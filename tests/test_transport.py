"""Framed channel: full protocol over TCP and concurrent customers."""

import socket
import struct
import threading
import tracemalloc

import pytest

import conninsure.insurer as insurer_module
from support import fail_once, io_error
from conninsure import crypto, tlssim, wire
from conninsure.client import ClientState
from conninsure.errors import CIError, EncodingError, NotFoundError
from conninsure.insurer import Insurer
from conninsure.rand import RandomSource
from conninsure.transport import (
    InProcessChannel,
    InsurerServer,
    SocketChannel,
    _recv_exact,
)


@pytest.fixture
def served_insurer():
    rng = RandomSource(71)
    server_cert, _ = tlssim.make_self_signed_cert("bob.example.org", rng=rng, now=0)
    insurer = Insurer.setup([server_cert], rng=rng)
    server = InsurerServer(insurer, port=0)
    server.serve_in_background()
    yield insurer, server.address
    server.shutdown()


class TestSocketChannel:
    def test_full_cycle_over_tcp(self, served_insurer):
        import time

        _, (host, port) = served_insurer
        channel = SocketChannel(host, port)
        try:
            rng = RandomSource(72)
            client = ClientState.register(channel, 86_400, rng=rng,
                                          group=crypto.TOY_GROUP)
            now = int(time.time())
            client.do_update_cycle(channel, now=now)
            record = client.submit_cycle(channel, now=now, rng=rng)
            assert record.covered is True
        finally:
            channel.close()

    def test_error_crosses_the_wire(self, served_insurer):
        import time

        _, (host, port) = served_insurer
        channel = SocketChannel(host, port)
        try:
            rng = RandomSource(73)
            client = ClientState.register(channel, 86_400, rng=rng,
                                          group=crypto.TOY_GROUP)
            # claim assembly needs an archived cycle; the error type survives
            with pytest.raises(NotFoundError):
                client.assemble_claim(b"\x00" * 32, "bob.example.org")
        finally:
            channel.close()

    def test_concurrent_customers(self, served_insurer):
        import time

        insurer, (host, port) = served_insurer
        errors = []

        def enroll(seed):
            channel = SocketChannel(host, port)
            try:
                rng = RandomSource(seed)
                client = ClientState.register(channel, 86_400, rng=rng,
                                              group=crypto.TOY_GROUP)
                now = int(time.time())
                client.do_update_cycle(channel, now=now)
                client.submit_cycle(channel, now=now, rng=rng)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)
            finally:
                channel.close()

        threads = [threading.Thread(target=enroll, args=(100 + i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(insurer.contracts) == 8
        assert len(insurer.records) == 16


@pytest.mark.parametrize("kind", ["in-process", "tcp"])
def test_internal_error_is_answered_and_serving_goes_on(tmp_path, monkeypatch, kind):
    """An exception that is no protocol error, here a failed fsync of the
    log, reaches the client as ERR_INTERNAL; the next request is served."""
    rng = RandomSource(74)
    server_cert, _ = tlssim.make_self_signed_cert("bob.example.org", rng=rng, now=0)
    insurer = Insurer.setup([server_cert], rng=rng, log_path=str(tmp_path / "insurer.log"))
    server = None
    if kind == "tcp":
        server = InsurerServer(insurer, port=0)
        server.serve_in_background()
        channel = SocketChannel(*server.address)
    else:
        channel = InProcessChannel(insurer)
    try:
        fail_once(monkeypatch, insurer_module.os, "fsync", io_error)
        with pytest.raises(CIError, match="injected I/O error") as failed:
            ClientState.register(channel, 86_400, rng=rng, group=crypto.TOY_GROUP)
        assert type(failed.value) is CIError
        client = ClientState.register(channel, 86_400, rng=rng, group=crypto.TOY_GROUP)
        assert client.customer == 1
    finally:
        channel.close()
        if server is not None:
            server.shutdown()
            server.server_close()
        insurer.close()


def test_announced_frame_length_is_not_allocated_up_front():
    """A header may announce up to 4 GiB: the reader takes the bytes in
    bounded chunks as they arrive, so a peer that announces 64 MiB and
    sends 10 bytes costs no 64 MiB buffer."""
    ours, peer = socket.socketpair()
    try:
        peer.sendall(struct.pack(">I", 64 << 20) + b"0123456789")
        peer.close()
        tracemalloc.start()
        try:
            with pytest.raises(EncodingError, match="closed mid-frame"):
                wire.read_frame(lambda n: _recv_exact(ours, n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
    finally:
        ours.close()
