"""Loopback chat-completion stub that stands in for a remote LLM.

It answers the request shape `mootopt.warmstart.RemoteSynthesizer` posts
(a model id plus role/content messages) with a completion in the markdown
layout `warmstart.parse_response` reads: up to two of the prompt's rows
tagged `Best`, echoed as "better" examples, and up to two tagged `Rest`,
echoed as "poorer" ones. Every reply waits a fixed delay first, so the
warm-remote workload spends its synthesis time waiting on I/O. The reply
is a pure function of the request, so reruns are byte-identical.

Run as a process of its own:

    python3 perfbench/stub.py --delay-ms 50

It binds 127.0.0.1 on a free port, prints `PORT <n>` once it accepts
connections, serves with at most nproc handler threads, and shuts down
cleanly when its standard input closes.
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


def _table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(" --- " for _ in header) + "|"]
    lines += ["| " + " | ".join(cells) + " |" for cells in rows]
    return "\n".join(lines)


def reply_text(prompt: str) -> str:
    """Echo the prompt's Best rows as better and its Rest rows as poorer.

    The example table is the first markdown table in `prompt`; its last
    column holds the Best/Rest tag, which the echoed rows drop.
    """
    table = [line.strip() for line in prompt.splitlines()
             if line.strip().startswith("|")]
    if len(table) < 3:
        raise ValueError("prompt holds no example table")
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in table]
    header, body = cells[0], cells[2:]
    best = [row[:-1] for row in body if row[-1] == "Best"][:2]
    rest = [row[:-1] for row in body if row[-1] == "Rest"][:2]
    return ("Better Examples:\n\n" + _table(header[:-1], best)
            + "\n\nPoorer Examples:\n\n" + _table(header[:-1], rest))


def completion(request: dict) -> dict:
    """Chat-completion response body for one request body."""
    prompt = next(m["content"] for m in request["messages"]
                  if m["role"] == "user")
    return {"model": request["model"],
            "choices": [{"message": {"role": "assistant",
                                     "content": reply_text(prompt)}}]}


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            payload = json.dumps(completion(json.loads(body))).encode("utf-8")
            status = 200
        except (ValueError, KeyError, StopIteration, TypeError) as exc:
            payload = json.dumps({"error": str(exc)}).encode("utf-8")
            status = 400
        time.sleep(self.server.delay_s)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt, *args) -> None:
        pass  # one line per request would swamp the benchmark's output


class PoolServer(HTTPServer):
    """HTTP server whose requests run on a fixed pool of handler threads."""

    def __init__(self, delay_s: float, workers: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.delay_s = delay_s
        self._pool = ThreadPoolExecutor(max_workers=workers)

    def process_request(self, request, client_address) -> None:
        self._pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:  # noqa: BLE001 - logged by the server, not fatal
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        self._pool.shutdown(wait=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args(argv)
    server = PoolServer(args.delay_ms / 1000.0, workers=os.cpu_count() or 1)
    loop = threading.Thread(target=server.serve_forever, args=(0.05,),
                            daemon=True)
    loop.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes our stdin
    finally:
        server.shutdown()
        loop.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
