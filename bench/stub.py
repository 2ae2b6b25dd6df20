"""OpenAI-compatible stub endpoint serving the scripted model.

Serves ``POST /chat/completions`` and ``POST /embeddings`` on 127.0.0.1
from a fixed pool of worker threads. Latency is simulated and set by the
request fingerprint. A seeded share of fingerprints is refused with 429 or
503 on every odd attempt, so each call to one of them needs exactly one
retry. Each response carries its service time in ``X-Service-Seconds``;
``GET /stats`` returns, per fingerprint, the attempts seen and the service
time spent (``?reset=1`` clears them afterwards), since ragsel's clients do
not pass response headers on.

Usage: python3 bench/stub.py --seed N [--cpu C] [--parent PID]
Prints ``PORT <n>`` once it listens.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

FAIL_SHARE = 0.1
WORKERS = 8


class PoolServer(HTTPServer):
    request_queue_size = 64

    def __init__(self, seed: int):
        super().__init__(("127.0.0.1", 0), Handler)
        self.pool = ThreadPoolExecutor(max_workers=WORKERS)
        self.seed = seed
        self.lock = threading.Lock()
        self.stats: dict[str, list] = {}

    def process_request(self, request, client_address):
        self.pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"

    def log_message(self, format, *args):
        pass

    def _send(self, status: int, body: dict, service_s: float | None = None) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if service_s is not None:
            self.send_header("X-Service-Seconds", repr(service_s))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if not self.path.startswith("/stats"):
            self._send(404, {"error": "not found"})
            return
        with self.server.lock:
            stats = {key: list(entry) for key, entry in self.server.stats.items()}
            if "reset=1" in self.path:
                self.server.stats = {}
        self._send(200, {"calls": stats})

    def do_POST(self):
        start = time.perf_counter()
        payload = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        model = payload["model"]
        if self.path == "/chat/completions":
            contents = [m["content"] for m in payload["messages"]]
        elif self.path == "/embeddings":
            contents = list(payload["input"])
        else:
            self._send(404, {"error": "not found"})
            return
        key = scripted.request_key(model, contents)
        with self.server.lock:
            entry = self.server.stats.setdefault(key, [0, 0.0])
            entry[0] += 1
            attempt = entry[0]
        if attempt % 2 == 1 and scripted.key_fraction(key, f"fail{self.server.seed}") < FAIL_SHARE:
            status = 429 if scripted.key_fraction(key, "status") < 0.5 else 503
            body = {"error": {"message": "scripted refusal", "code": status}}
        elif self.path == "/chat/completions":
            status = 200
            text = scripted.complete(contents[-1], key)
            usage = scripted.usage_for(contents, text)
            body = {
                "object": "chat.completion",
                "model": model,
                "choices": [{"index": 0, "message": {"role": "assistant", "content": text}, "finish_reason": "stop"}],
                "usage": {"prompt_tokens": usage.prompt_tokens, "completion_tokens": usage.completion_tokens},
            }
        else:
            status = 200
            body = {
                "object": "list",
                "model": model,
                "data": [{"object": "embedding", "index": i, "embedding": scripted.embed_text(t)} for i, t in enumerate(contents)],
            }
        if status == 200:
            remaining = scripted.service_seconds(model, key, len(contents)) - (time.perf_counter() - start)
            if remaining > 0:
                time.sleep(remaining)
        service_s = time.perf_counter() - start
        with self.server.lock:
            entry[1] += service_s
        self._send(status, body, service_s)


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    parser.add_argument("--parent", type=int, help="exit when this process is gone")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    server = PoolServer(args.seed)
    if args.parent:
        threading.Thread(target=_exit_with_parent, args=(args.parent,), daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import scripted

    sys.exit(main())
