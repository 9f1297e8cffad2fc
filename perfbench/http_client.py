"""Closed-loop HTTP/1.1 load generator for the screen workloads.

One thread drives ``connections`` keep-alive sockets through a selector.
Each connection has at most one request outstanding and sends its next one
only after the answer arrived (a closed loop: a wallet waits for the verdict
before it signs).  The framing is written by hand so the client spends as
little time per request as it can; it must never be the bottleneck of the
server it measures.

Every request ends as one :class:`Exchange`.  A request succeeds only with
status 200; a non-200 answer, a connection error or a timeout is a failure
(``status`` 0 for the last two), counted against the attempts.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

#: A request factory: the i-th request's tag (e.g. its pool index) and bytes.
RequestFactory = Callable[[int], Optional[Tuple[int, bytes]]]


@dataclass
class Exchange:
    """One request and its answer."""

    tag: int
    sent: float
    received: float
    status: int
    body: bytes = b""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        return (self.received - self.sent) * 1000.0


def post_request(path: str, payload: dict) -> bytes:
    """Raw bytes of one keep-alive ``POST`` with a JSON body."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n"
        f"content-length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return head + body


def parse_response(buffer: bytes) -> Optional[Tuple[int, bytes, bool, int]]:
    """``(status, body, close, consumed)`` of the first complete response.

    Returns ``None`` while the response is incomplete.  Raises
    :class:`ValueError` on bytes that are not an HTTP/1.1 response.
    """
    head_end = buffer.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    lines = buffer[:head_end].split(b"\r\n")
    parts = lines[0].split(b" ", 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
        raise ValueError(f"not an HTTP response: {lines[0][:80]!r}")
    status = int(parts[1])
    length = 0
    close = False
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            length = int(value.strip())
        elif name == b"connection":
            close = value.strip().lower() == b"close"
    end = head_end + 4 + length
    if len(buffer) < end:
        return None
    return status, buffer[head_end + 4 : end], close, end


class _Connection:
    __slots__ = ("sock", "buffer", "tag", "sent")

    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.tag = -1
        self.sent = 0.0


def closed_loop(
    address: Tuple[str, int],
    make_request: RequestFactory,
    seconds: float,
    connections: int = 2,
    timeout_s: float = 30.0,
) -> List[Exchange]:
    """Drive ``connections`` closed-loop clients for ``seconds`` seconds.

    No new request is sent once ``seconds`` have passed, or once
    ``make_request`` returns ``None`` (its inputs ran out); requests still
    in flight complete and are counted.
    """
    selector = selectors.DefaultSelector()
    exchanges: List[Exchange] = []
    deadline = time.perf_counter() + seconds
    counter = 0

    def send_next(conn: Optional[_Connection]) -> None:
        """Send the next request on ``conn`` (a new connection if ``None``)."""
        nonlocal counter
        while True:
            request = make_request(counter) if time.perf_counter() < deadline else None
            if request is None:
                if conn is not None:
                    drop(conn)
                return
            counter += 1
            tag, raw = request
            if conn is None:
                try:
                    conn = _Connection(address)
                except OSError as exc:
                    now = time.perf_counter()
                    exchanges.append(Exchange(tag, now, now, 0, error=f"connect: {exc}"))
                    continue
                selector.register(conn.sock, selectors.EVENT_READ, conn)
            conn.tag = tag
            conn.sent = time.perf_counter()
            try:
                conn.sock.sendall(raw)
                return
            except OSError as exc:
                exchanges.append(
                    Exchange(tag, conn.sent, time.perf_counter(), 0, error=f"send: {exc}")
                )
                drop(conn)
                conn = None

    def drop(conn: _Connection) -> None:
        selector.unregister(conn.sock)
        conn.sock.close()

    def fail(conn: _Connection, error: str) -> None:
        exchanges.append(Exchange(conn.tag, conn.sent, time.perf_counter(), 0, error=error))
        drop(conn)
        send_next(None)

    for _ in range(connections):
        send_next(None)
    while selector.get_map():
        events = selector.select(timeout=0.5)
        now = time.perf_counter()
        for key, _ in events:
            conn: _Connection = key.data
            try:
                data = conn.sock.recv(65536)
            except OSError as exc:
                fail(conn, f"recv: {exc}")
                continue
            if not data:
                fail(conn, "connection closed by server")
                continue
            conn.buffer += data
            try:
                parsed = parse_response(conn.buffer)
            except ValueError as exc:
                fail(conn, str(exc))
                continue
            if parsed is None:
                continue
            status, body, close, consumed = parsed
            exchanges.append(Exchange(conn.tag, conn.sent, now, status, body))
            conn.buffer = conn.buffer[consumed:]
            if close:
                drop(conn)
                conn = None
            send_next(conn)
        for key in list(selector.get_map().values()):
            conn = key.data
            if now - conn.sent > timeout_s:
                fail(conn, "timeout")
    selector.close()
    return exchanges


def get_json(address: Tuple[str, int], path: str, timeout_s: float = 30.0) -> dict:
    """One ``GET`` on a fresh connection, decoded from JSON (outside timing)."""
    with socket.create_connection(address, timeout=timeout_s) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n".encode())
        buffer = b""
        while True:
            parsed = parse_response(buffer)
            if parsed is not None:
                break
            data = sock.recv(65536)
            if not data:
                raise ConnectionError(f"GET {path}: connection closed mid-response")
            buffer += data
    status, body, _, _ = parsed
    if status != 200:
        raise ConnectionError(f"GET {path} answered {status}")
    return json.loads(body)
