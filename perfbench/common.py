"""Shared pieces of the end-to-end benchmark: paths, statistics, tracing, output.

Every workload module imports this first.  It locates the checkout the
benchmark runs from (the directory above ``perfbench/``), puts its
``src/`` tree on ``sys.path`` so the package is imported from source,
and refuses to run when that tree is missing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory (no package source)."""


def require_source() -> None:
    """Put the checkout's ``src/`` on ``sys.path``; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"package source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child processes: import the package from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def workdir() -> Path:
    """Scratch directory for stores, traces and count records (git-ignored)."""
    path = Path.cwd() / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: ``n * (1 - q/100)`` samples lie above it."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: name, start, end, parent span and request id.

    Spans nest per thread: a span opened while another is open on the
    same thread records it as its parent.  Nothing is written until
    :meth:`write`, called once when the benchmark ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: Named samples recorded beside the spans (counts, ratios).
        self.counters: dict[str, list[float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    @contextmanager
    def span(self, name: str, request: str | None = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        record = {
            "id": self._new_id(),
            "parent": parent["id"] if parent else None,
            "name": name,
            "request": request if request is not None else (
                parent["request"] if parent else None
            ),
            "start": time.monotonic(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def adopt(self, spans: list[dict], parent: int | None = None) -> None:
        """Merge spans recorded by a child process under fresh ids.

        The child's root spans get *parent*; times stay as recorded
        (``time.monotonic`` is one clock for every process on the host).
        """
        mapping = {span["id"]: self._new_id() for span in spans}
        with self._lock:
            for span in spans:
                copied = dict(span)
                copied["id"] = mapping[span["id"]]
                copied["parent"] = mapping.get(span["parent"], parent)
                self.spans.append(copied)

    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"])
                )
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span["start"]
            for start, end in sorted(children.get(span["id"], [])):
                start, end = max(start, cursor), min(end, span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            result[span["id"]] = (span["end"] - span["start"]) - covered
        return result

    def uncovered_ratio(self, root_name: str) -> float:
        """Median share of *root_name* spans not covered by a child span."""
        own = self.self_times()
        ratios = [
            own[s["id"]] / (s["end"] - s["start"])
            for s in self.spans
            if s["name"] == root_name and s["end"] > s["start"]
        ]
        return median(ratios) if ratios else 0.0

    def write(self, path: Path) -> None:
        own = self.self_times()
        rows = [dict(span, self=own[span["id"]]) for span in self.spans]
        rows.sort(key=lambda span: span["start"])
        path.write_text(json.dumps({"spans": rows}) + "\n")


class NullTracer:
    """The untraced run's tracer: every span is a no-op."""

    def span(self, name: str, request: str | None = None):
        return nullcontext()


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class Outcome:
    """Attempted/failed operation counts plus the reasons of failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def check(self, ok: bool, problem: str) -> bool:
        """A correctness check: counts as one attempted operation."""
        return self.record(ok, f"check failed: {problem}")


def source_digest() -> str:
    """Short digest of the package and benchmark source, so sizes follow the code."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def check_counts(
    workload: str, scale: str, seconds: float, seed: int, counts: dict, outcome: Outcome
) -> None:
    """Compare *counts* with those an earlier run of this seed and code recorded.

    Sizes (frequent/closed sets, edges, rules, store bytes, fallbacks) are
    pure functions of the seed and the code; a mismatch means the
    workload silently changed size between runs and is a failed check.
    """
    name = f"counts-{workload}-{scale}-{seconds:g}s-seed{seed}-{source_digest()}.json"
    path = workdir() / name
    if path.exists():
        earlier = json.loads(path.read_text())
        diff = sorted(k for k in set(counts) | set(earlier)
                      if counts.get(k) != earlier.get(k))
        outcome.check(not diff, f"sizes differ from an earlier run: {diff}")
    else:
        path.write_text(json.dumps(counts, sort_keys=True) + "\n")


def emit(result: dict) -> None:
    """Print the human report and then the one-line JSON result (last line)."""
    report = result.pop("report")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
