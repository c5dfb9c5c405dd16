"""A real ``repro-biclique serve`` subprocess and keep-alive clients for it."""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass

__all__ = ["SERVE_FLAGS", "Reply", "Client", "ServeProcess"]

#: The exact ``serve`` flags; the traced run builds its in-process
#: executor from the same values.
SERVE_FLAGS = {
    "threads": 2,
    "queue_size": 64,
    "cache_capacity": 1024,
    "trace_ring": 256,
}
REQUEST_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0


@dataclass
class Reply:
    """One finished request as the client saw it."""

    status: "int | None"  # None: transport error or timeout
    seconds: float
    payload: "dict | None"

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300


class Client:
    """One persistent (keep-alive) HTTP/1.1 connection."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)

    def call(self, method: str, path: str, body: "dict | None" = None) -> Reply:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
            seconds = time.perf_counter() - start
            payload = json.loads(raw) if raw else None
            return Reply(response.status, seconds, payload)
        except (OSError, http.client.HTTPException, ValueError):
            seconds = time.perf_counter() - start
            # A broken connection is replaced so later requests still run.
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S
            )
            return Reply(None, seconds, None)

    def close(self) -> None:
        self.conn.close()


class ServeProcess:
    """``python -m repro.cli serve`` on a free port, stopped by :meth:`close`."""

    def __init__(self, root: str):
        self.argv = [sys.executable, "-m", "repro.cli", "serve",
                     "--host", "127.0.0.1", "--port", "0"]
        for flag, value in SERVE_FLAGS.items():
            self.argv += [f"--{flag.replace('_', '-')}", str(value)]
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            self.argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = self._readiness_line()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"serve did not report its address: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
        except BaseException:
            self.close()
            raise

    def _readiness_line(self) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=READY_TIMEOUT_S):
                raise RuntimeError("serve did not become ready in time")
        return self.proc.stdout.readline()

    def client(self) -> Client:
        return Client(self.host, self.port)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
