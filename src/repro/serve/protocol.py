"""JSON-lines wire protocol for the profiling service.

One message per line, UTF-8 JSON objects, over TCP.  Requests carry an
``op`` field; responses always carry ``ok`` (bool) and, on failure,
``error`` (str).  :mod:`repro.serve.server` speaks it over asyncio
streams, :class:`ServeClient` over a blocking socket for the CLI's
``submit``/``status``/``fetch`` trio and the tests.

Operations (see :mod:`repro.serve.server` for handler semantics):

``ping``      liveness + server version + known scenarios
``submit``    enqueue a job; rejected with ``retry_after_s`` when full
``status``    one job (``job_id``) or the whole job table
``fetch``     a completed job's stored profile, rendered as a view
``list``      the session store's archives
``metrics``   counters + a Prometheus-style text rendering
``shutdown``  graceful drain-and-stop (same path as SIGTERM)
"""

from __future__ import annotations

import json
import socket

from repro.errors import ProtocolError

#: Upper bound on one protocol line.  Archives ride in fetch *responses*
#: (written, not line-read), but the asyncio reader limit and the client
#: both honour this so a corrupt peer cannot balloon memory.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Default TCP endpoint; port 0 = ephemeral (the server reports the real
#: port on stdout and via ``--port-file``).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 0


def encode(message: dict) -> bytes:
    """One wire line for *message* (compact JSON + newline)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


def decode_line(line: bytes | str) -> dict:
    """Parse one wire line; raises :class:`ProtocolError` on junk."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode()
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"message is not UTF-8: {exc}") from exc
    line = line.strip()
    if not line:
        raise ProtocolError("empty message")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"message is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message is not a JSON object")
    if not isinstance(message.get("op"), str):
        raise ProtocolError("message has no string 'op' field")
    return message


def error_response(message: str, **extra) -> dict:
    """Uniform failure payload."""
    response = {"ok": False, "error": message}
    response.update(extra)
    return response


class ServeClient:
    """Blocking JSON-lines client over one TCP connection.

    Used by the CLI's ``submit``/``status``/``fetch`` commands and the
    smoke tests.  One client = one connection; requests pipeline in
    order.  Context-manager friendly.
    """

    def __init__(
        self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, message: dict) -> dict:
        """Send one request and block for its response."""
        self._file.write(encode(message))
        self._file.flush()
        line = self._file.readline(MAX_LINE_BYTES)
        if not line:
            raise ProtocolError("server closed the connection mid-request")
        return decode_response(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def decode_response(line: bytes | str) -> dict:
    """Parse a response line (an object with an ``ok`` field)."""
    if isinstance(line, bytes):
        try:
            line = line.decode()
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"response is not UTF-8: {exc}") from exc
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(message, dict) or "ok" not in message:
        raise ProtocolError("response is not an object with an 'ok' field")
    return message


def request_once(host: str, port: int, message: dict, timeout: float = 30.0) -> dict:
    """One-shot request/response on a fresh connection."""
    with ServeClient(host, port, timeout=timeout) as client:
        return client.request(message)
