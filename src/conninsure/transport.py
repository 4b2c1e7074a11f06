"""Client-insurer channel: one TLV message per 4-byte length-prefixed frame.

Two interchangeable channels: an in-process dispatch for deterministic
simulation, and a TCP channel talking to a served insurer.  The channel's
authentication is assumed deniable and is not modeled; both channels are
plain byte pipes (see README).
"""

import socket
import socketserver
import threading
import time

from . import wire
from .errors import CIError, EncodingError
from .insurer import ERROR_RESPONSE, EXCEPTION_BY_CODE, Insurer, handle_request


def unwrap_response(response: bytes) -> bytes:
    """Return the OK payload or raise the transported error."""
    if response and response[0] == wire.RESP_ERR:
        code, message = ERROR_RESPONSE.decode(response)
        raise EXCEPTION_BY_CODE.get(code, CIError)(message)
    return wire.unpack_exact(response, wire.RESP_OK)


class InProcessChannel:
    """Direct dispatch into an insurer instance; now_fn supplies its clock."""

    def __init__(self, insurer: Insurer, now_fn=time.time):
        self.insurer = insurer
        self.now_fn = now_fn

    def request(self, payload: bytes) -> bytes:
        return unwrap_response(handle_request(self.insurer, payload, int(self.now_fn())))

    def close(self) -> None:
        pass


# sock.recv(n) allocates n bytes before any arrive, and a frame header
# announces up to 4 GiB, so a frame is read in chunks of at most this size.
RECV_CHUNK = 1 << 20
# The largest request frame the insurer reads.  Its largest request, a
# registration, is under 1 KB at 2048 bits; a connection announcing more
# is closed.  Responses have no limit: a whole-list download must fit.
MAX_REQUEST = 64 << 10
# Seconds the insurer waits for each read from a connection, or to send
# one response, before closing it, so a silent or vanished peer does not
# hold its thread forever.
IDLE_TIMEOUT = 120


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, RECV_CHUNK))
        if not chunk:
            raise EncodingError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class SocketChannel:
    """Framed request/response over TCP."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port))

    def request(self, payload: bytes) -> bytes:
        self._sock.sendall(wire.frame(payload))
        response = wire.read_frame(lambda n: _recv_exact(self._sock, n))
        return unwrap_response(response)

    def close(self) -> None:
        self._sock.close()


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        sock = self.request
        sock.settimeout(IDLE_TIMEOUT)
        try:
            while True:
                payload = wire.read_frame(lambda n: _recv_exact(sock, n), MAX_REQUEST)
                response = handle_request(
                    self.server.insurer, payload, int(self.server.now_fn())
                )
                sock.sendall(wire.frame(response))
        except (EncodingError, OSError):  # a bad frame, a timeout or a reset
            return


class InsurerServer(socketserver.ThreadingTCPServer):
    """Serves one insurer over TCP; handles concurrent client connections."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, insurer: Insurer, host: str = "127.0.0.1", port: int = 0,
                 now_fn=time.time):
        super().__init__((host, port), _Handler)
        self.insurer = insurer
        self.now_fn = now_fn

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread
