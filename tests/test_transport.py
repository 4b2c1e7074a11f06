"""Framed channel: full protocol over TCP and concurrent customers."""

import socket
import struct
import threading
import time
import tracemalloc

import pytest

import conninsure.insurer as insurer_module
import conninsure.transport as transport_module
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
    MAX_REQUEST,
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
    server.server_close()


class TestSocketChannel:
    def test_full_cycle_over_tcp(self, served_insurer):
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


def _closed_by_server(sock: socket.socket) -> bool:
    """Whether the peer closes or resets sock within 10 s."""
    sock.settimeout(10)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def test_oversized_request_frame_closes_its_connection(served_insurer):
    """A request header announcing 1 GiB gets its connection closed before
    any body is read; another connection is still served."""
    _, address = served_insurer
    with socket.create_connection(address) as hostile:
        hostile.sendall(struct.pack(">I", 1 << 30) + b"0123456789")
        assert _closed_by_server(hostile)
    channel = SocketChannel(*address)
    try:
        rng = RandomSource(75)
        client = ClientState.register(channel, 86_400, rng=rng, group=crypto.TOY_GROUP)
        assert client.customer == 1
    finally:
        channel.close()


def test_empty_request_frame_is_answered_and_its_connection_kept(served_insurer):
    """A zero-length request frame gets ERR_ENCODING, and the same
    connection then serves a registration."""
    _, address = served_insurer
    channel = SocketChannel(*address)
    try:
        with pytest.raises(EncodingError, match="truncated TLV header"):
            channel.request(b"")
        rng = RandomSource(77)
        client = ClientState.register(channel, 86_400, rng=rng, group=crypto.TOY_GROUP)
        assert client.customer == 1
    finally:
        channel.close()


def test_idle_connection_is_closed(served_insurer, monkeypatch):
    """A connection that sends nothing is closed once a read waits longer
    than IDLE_TIMEOUT; another connection is still served."""
    monkeypatch.setattr(transport_module, "IDLE_TIMEOUT", 0.2)
    _, address = served_insurer
    with socket.create_connection(address) as idle:
        started = time.monotonic()
        assert _closed_by_server(idle) and time.monotonic() - started < 5
    channel = SocketChannel(*address)
    try:
        rng = RandomSource(76)
        client = ClientState.register(channel, 86_400, rng=rng, group=crypto.TOY_GROUP)
        assert client.customer == 1
    finally:
        channel.close()


def test_read_frame_limit():
    frames = iter([struct.pack(">I", MAX_REQUEST), b"x" * MAX_REQUEST])
    assert wire.read_frame(lambda n: next(frames), MAX_REQUEST) == b"x" * MAX_REQUEST
    frames = iter([struct.pack(">I", MAX_REQUEST + 1)])
    with pytest.raises(EncodingError, match="exceeds the limit"):
        wire.read_frame(lambda n: next(frames), MAX_REQUEST)
