"""Shared fixtures: a scripted local HTTP server for the live backends."""

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest


class _ScriptedHandler(BaseHTTPRequestHandler):
    script = []
    log = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        type(self).log.append(
            {"path": self.path, "payload": payload, "auth": self.headers.get("Authorization")}
        )
        step = type(self).script.pop(0) if type(self).script else (500, {"error": "empty script"})
        if callable(step):  # writes its own reply, or none
            step(self)
            return
        status, body, *headers = step
        # bytes go out verbatim, anything else as JSON
        data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt, *args):
        pass


@contextmanager
def _serve(script):
    _ScriptedHandler.script = list(script)
    _ScriptedHandler.log = []
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    # a short poll interval keeps shutdown() from waiting the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", _ScriptedHandler.log
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.fixture
def scripted_server():
    """``with scripted_server([(status, body), ...]) as (endpoint, log)``
    serves the scripted replies to successive POSTs and logs each request.
    A step may be ``(status, body, headers)``, or a callable that gets the
    request handler and writes its own reply, or none."""
    return _serve
