"""Helpers shared by the test modules: fixture files and fault injection."""

import errno
import os

from conninsure import wire

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def load_hex_fixture(name: str) -> bytes:
    with open(fixture_path(name)) as fh:
        return bytes.fromhex(fh.read().strip())


# Fault injection: fail_once replaces owner.name so that its next call runs
# action(real, *args) instead; later calls reach the real function again.


def fail_once(monkeypatch, owner, name: str, action) -> None:
    real = getattr(owner, name)

    def once(*args):
        monkeypatch.setattr(owner, name, real)
        return action(real, *args)

    monkeypatch.setattr(owner, name, once)


def io_error(real, *args):
    raise OSError(errno.EIO, "injected I/O error")


def torn_write(real, data):
    """Writes half the bytes, then fails."""
    real(data[: len(data) // 2])
    raise OSError(errno.ENOSPC, "injected I/O error after a partial write")


def short_write(real, data):
    return real(data[: len(data) // 2])


# The frame writer in wire opens its files through the name open, so a
# test can stand in for it there; os.fsync and os.replace are looked up on
# the os module at each call.


def fail_write(monkeypatch, action, name: str | None = None) -> None:
    """The next write to a file that wire opens runs action(real, data)
    instead; with name, only a write to that file or its .tmp counts."""
    pending = [action]

    def opening(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if name in (None, os.path.basename(path).removesuffix(".tmp")):
            real = fh.write
            fh.write = lambda data: pending.pop()(real, data) if pending else real(data)
        return fh

    monkeypatch.setattr(wire, "open", opening, raising=False)


class FailAt:
    """Counts the file writes, fsyncs and renames of the frame writer; the
    n-th one fails (a write after writing half its bytes)."""

    def __init__(self, monkeypatch, n: int):
        self.n = n
        self.calls = 0

        def counting_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            real_write = fh.write
            fh.write = lambda data: self._step(real_write, torn_write, data)
            return fh

        monkeypatch.setattr(wire, "open", counting_open, raising=False)
        for name in ("fsync", "replace"):
            real = getattr(wire.os, name)
            monkeypatch.setattr(
                wire.os, name,
                lambda *args, real=real: self._step(real, io_error, *args),
            )

    def _step(self, real, fault, *args):
        self.calls += 1
        if self.calls == self.n:
            return fault(real, *args)
        return real(*args)
