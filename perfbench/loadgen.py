"""The served side: a ``repro serve`` daemon process and an open-loop load generator.

The generator is open loop: requests are released on a seeded Poisson
schedule whatever the daemon's speed, onto at most ``CONNECTIONS``
keep-alive connections.  Each request is timed from when it was *due*,
so a stall also charges the requests queued behind it.  The generator's
own lateness (release time minus due time) is reported so a run whose
generator fell behind can be told apart from a slow daemon.
"""

from __future__ import annotations

import http.client
import json
import queue
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from common import Tracer, child_env, median, percentile

#: Keep-alive connections of the generator (the container's core count).
CONNECTIONS = 2
#: Seconds a daemon may take to load its store and answer ``/healthz``.
BOOT_TIMEOUT = 120.0


class Daemon:
    """``repro serve`` over one store, in its own process (single process)."""

    def __init__(self, store: Path, log: Path) -> None:
        self.store = store
        self.log = log
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        """Boot the daemon and wait until ``/healthz`` answers."""
        started = time.monotonic()
        with open(self.log, "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.experiments.cli", "serve",
                 "--store", str(self.store), "--port", "0"],
                stdout=subprocess.PIPE, stderr=log, env=child_env(), text=True,
            )
        line = self._read_line(started + BOOT_TIMEOUT)
        if " on http://" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].strip())
        status, _ = self.get("/healthz")
        if status != 200:
            raise RuntimeError(f"daemon /healthz answered {status}")

    def _read_line(self, deadline: float) -> str:
        assert self.process is not None and self.process.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if ready:
                return self.process.stdout.readline()
            if self.process.poll() is not None:
                return ""
        return ""

    def get(self, path: str) -> tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the daemon process so far (``VmHWM``)."""
        assert self.process is not None
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self.process = None



@dataclass
class Sent:
    """What happened to one request."""

    index: int
    due: float
    released: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes | None = None
    error: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from when the request was due until its answer arrived."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """Seconds from sending the request until its answer arrived."""
        return self.done - self.sent


@dataclass
class Phase:
    """One fixed-rate phase of open-loop traffic and its accounting."""

    rate: float
    records: list[Sent]
    max_backlog: int = 0
    end_backlog: int = 0

    def ok(self, record: Sent, kind: str) -> bool:
        if record.error is not None:
            return False
        return record.status == 200 or (kind == "derive" and record.status == 422)

    def summary(self, kinds: list[str]) -> dict:
        """Sent/succeeded/failed counts, latency percentiles, lateness, backlog."""
        latencies = [r.latency * 1e3 for r in self.records]
        lateness = [(r.released - r.due) * 1e3 for r in self.records]
        waits = [(r.sent - r.due) * 1e3 for r in self.records]
        failed = sum(not self.ok(r, kinds[r.index]) for r in self.records)
        quarter = max(1, len(waits) // 4)
        return {
            "rate_per_s": self.rate,
            "sent": len(self.records),
            "succeeded": len(self.records) - failed,
            "failed": failed,
            "p50_ms": percentile(latencies, 50),
            "p99_ms": percentile(latencies, 99),
            "service_p50_ms": median(r.service * 1e3 for r in self.records),
            "samples": len(latencies),
            "generator_lateness_p99_ms": percentile(lateness, 99),
            "generator_lateness_max_ms": max(lateness, default=0.0),
            "queue_wait_first_quarter_ms": median(waits[:quarter]),
            "queue_wait_last_quarter_ms": median(waits[-quarter:]),
            "max_backlog": self.max_backlog,
            "end_backlog": self.end_backlog,
        }


#: The backlog rule behind ``max_rps``.
BACKLOG_GROWTH_MS = 5.0
BACKLOG_RULE = (
    f"a backlog grows when the median queue wait of a phase's last quarter "
    f"exceeds its first quarter's by more than {BACKLOG_GROWTH_MS:g} ms, or when "
    f"more than {2 * CONNECTIONS} due requests are unsent when the phase ends"
)


def backlog_grew(summary: dict) -> bool:
    return (
        summary["queue_wait_last_quarter_ms"]
        - summary["queue_wait_first_quarter_ms"] > BACKLOG_GROWTH_MS
        or summary["end_backlog"] > 2 * CONNECTIONS
    )


class OpenLoop:
    """Open-loop traffic over ``CONNECTIONS`` keep-alive connections."""

    def __init__(self, port: int, tracer: Tracer | None = None) -> None:
        self.port = port
        self.tracer = tracer
        self._jobs: queue.Queue = queue.Queue()
        self._workers: list[threading.Thread] = []
        self._pending = 0
        self._idle = threading.Condition()

    def __enter__(self) -> "OpenLoop":
        for n in range(CONNECTIONS):
            worker = threading.Thread(target=self._work, name=f"conn-{n}", daemon=True)
            worker.start()
            self._workers.append(worker)
        return self

    def __exit__(self, *exc) -> None:
        for _ in self._workers:
            self._jobs.put(None)
        for worker in self._workers:
            worker.join(timeout=60)

    def _work(self) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            while True:
                job = self._jobs.get()
                if job is None:
                    return
                record, request, keep, traced, on_done = job
                record.sent = time.monotonic()
                body = None
                try:
                    if traced:
                        with self.tracer.span(f"http.{request.kind}", f"req-{record.index}"):
                            record.status, body = self._send(connection, request)
                    else:
                        record.status, body = self._send(connection, request)
                    if keep:
                        record.body = body
                except (OSError, http.client.HTTPException) as exc:
                    record.error = repr(exc)
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", self.port, timeout=60
                    )
                record.done = time.monotonic()
                try:
                    if on_done is not None:
                        on_done(record, body)
                finally:
                    with self._idle:
                        self._pending -= 1
                        self._idle.notify_all()
        finally:
            connection.close()

    @staticmethod
    def _send(connection, request) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if request.body else {}
        connection.request(request.method, request.path, body=request.body,
                           headers=headers)
        response = connection.getresponse()
        return response.status, response.read()

    def run(
        self,
        requests: list,
        offsets,
        rate: float,
        keep=lambda index: False,
        traced=lambda index: False,
        on_done=None,
        start: float | None = None,
    ) -> Phase:
        """Release ``requests[i]`` at ``start + offsets[i]``; wait for every answer."""
        start = (time.monotonic() + 0.05) if start is None else start
        records = [Sent(index=i, due=start + float(o)) for i, o in enumerate(offsets)]
        phase = Phase(rate=rate, records=records)
        for record, request in zip(records, requests):
            delay = record.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            record.released = time.monotonic()
            with self._idle:
                self._pending += 1
            backlog = self._jobs.qsize()
            phase.max_backlog = max(phase.max_backlog, backlog)
            self._jobs.put((record, request, keep(record.index),
                            self.tracer is not None and traced(record.index), on_done))
        phase.end_backlog = self._jobs.qsize()
        with self._idle:
            while self._pending:
                self._idle.wait(timeout=1.0)
        return phase
