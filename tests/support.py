"""Helpers shared by the test modules: fixture files and fault injection."""

import dataclasses
import errno
import os
from collections import Counter

from conninsure import crypto, wire

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def load_hex_fixture(name: str) -> bytes:
    with open(fixture_path(name)) as fh:
        return bytes.fromhex(fh.read().strip())


def record_ch(insurer, record) -> bytes:
    """The chameleon hash of a logged record, in its customer's group
    encoding: the key a LOOKUP_RECORD by CH carries."""
    chameleon = insurer.contracts[record.customer].chameleon
    params = chameleon.params
    return params.element_bytes(
        crypto.chameleon_hash(params, chameleon.y, record.message, record.r)
    )


def one_byte_short(record, field: str):
    """A copy of record with field one byte short, which its type may
    refuse to build; it still encodes, as a corrupt file or a hostile claim
    would carry it."""
    bad = dataclasses.replace(record)
    object.__setattr__(bad, field, getattr(record, field)[:-1])
    return bad


def short_r_voucher(voucher):
    """A copy of voucher with a 31-byte r, which Voucher refuses to build."""
    return one_byte_short(voucher, "r")


def flip_signature_bit(record, domain):
    """record with one bit of domain's server signature flipped."""
    evidence = record.evidences[domain]
    signature = bytearray(evidence.transcript.signature)
    signature[0] ^= 1
    transcript = dataclasses.replace(evidence.transcript, signature=bytes(signature))
    return dataclasses.replace(
        record,
        evidences={**record.evidences, domain: dataclasses.replace(evidence, transcript=transcript)},
    )


def count_powers(monkeypatch) -> list[str]:
    """From now on, the list returned gets "comb" for each FixedBaseComb
    built and "modexp" for each crypto.modexp call."""
    powers = []
    real_init, real_modexp = crypto.FixedBaseComb.__init__, crypto.modexp

    def init(comb, *args, **kwargs):
        powers.append("comb")
        real_init(comb, *args, **kwargs)

    def modexp(*args):
        powers.append("modexp")
        return real_modexp(*args)

    monkeypatch.setattr(crypto.FixedBaseComb, "__init__", init)
    monkeypatch.setattr(crypto, "modexp", modexp)
    return powers


def unchecked_proof(params, y: int, context: bytes):
    """A trapdoor proof on params whose challenge holds but whose equation
    need not: it reaches the powers of a proof check, and making it takes
    none."""
    u = 2
    return crypto.TrapdoorProof(u, crypto._trapdoor_challenge(params, y, u, context), 1)


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


def count_written(monkeypatch) -> Counter:
    """From now on, the bytes that wire.append_frames and wire.replace_frames
    are asked to write, by file name."""
    written = Counter()
    for name in ("append_frames", "replace_frames"):
        real = getattr(wire, name)

        def counting(path, payloads, real=real):
            written[os.path.basename(path)] += sum(4 + len(p) for p in payloads)
            return real(path, payloads)

        monkeypatch.setattr(wire, name, counting)
    return written
