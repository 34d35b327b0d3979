"""Local chat-completions stub for the track-http workload.

Serves ``POST <base>/chat/completions`` from a precomputed answer table
keyed by the whitespace-collapsed live input of the prompt (the text
between the last ``Input:`` and ``Response:``).  Every request takes a
fixed service time.  Keys marked flaky get HTTP 503 on every other
request, so each pass over the corpus retries exactly that many times.
``GET /stats`` reports requests served, 503s sent and the summed
service time.  An unknown prompt gets HTTP 400, which fails the pass.

It does not import the program under test, so CPU-side changes to the
program cannot change the stub's cost.  At most ``nproc`` requests are
handled at once.

Usage: python3 perfbench/stub.py --table stub_table.json --service-ms 5
Prints the bound port on the first line of stdout once it is listening.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubState:
    def __init__(self, table: dict, service_s: float):
        self.table = table
        self.service_s = service_s
        self.lock = threading.Lock()
        self.seen: dict[str, int] = {}
        self.requests = 0
        self.retries = 0
        self.server_s = 0.0


def live_input(prompt: str) -> str:
    start = prompt.rfind("Input:")
    section = prompt[start + len("Input:"):] if start >= 0 else prompt
    end = section.rfind("Response:")
    if end >= 0:
        section = section[:end]
    return " ".join(section.split())


class Handler(BaseHTTPRequestHandler):
    state: StubState  # set on the subclass built in main()

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path.rstrip("/").endswith("/stats"):
            st = self.state
            with st.lock:
                stats = {"requests": st.requests, "retries": st.retries,
                         "server_s": st.server_s}
            self._reply(200, stats)
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        started = time.perf_counter()
        st = self.state
        length = int(self.headers.get("Content-Length", "0"))
        try:
            body = json.loads(self.rfile.read(length))
            prompt = body["messages"][-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            self._reply(400, {"error": "malformed request"})
            return
        key = live_input(prompt)
        entry = st.table.get(key)
        time.sleep(st.service_s)
        with st.lock:
            st.requests += 1
            if entry is None:
                code = 400
            else:
                count = st.seen.get(key, 0)
                st.seen[key] = count + 1
                code = 503 if entry[1] and count % 2 == 0 else 200
                st.retries += code == 503
            st.server_s += time.perf_counter() - started
        if code == 200:
            self._reply(200, {"choices": [
                {"index": 0, "message": {"role": "assistant", "content": entry[0]}}
            ]})
        else:
            self._reply(code, {"error": "unknown prompt" if code == 400 else "busy"})


class BoundedServer(ThreadingHTTPServer):
    """Thread per request, but never more than nproc at once."""

    daemon_threads = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._slots = threading.BoundedSemaphore(os.cpu_count() or 1)
        self._parent = os.getppid()

    def service_actions(self):
        # stop with the benchmark process, even if it was killed
        if os.getppid() != self._parent:
            sys.exit(0)

    def process_request(self, request, client_address):
        self._slots.acquire()
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--table", required=True)
    ap.add_argument("--service-ms", type=float, required=True)
    args = ap.parse_args()
    with open(args.table, encoding="utf-8") as f:
        table = json.load(f)
    handler = type("BoundHandler", (Handler,), {
        "state": StubState(table, args.service_ms / 1000.0)
    })
    server = BoundedServer(("127.0.0.1", 0), handler)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
