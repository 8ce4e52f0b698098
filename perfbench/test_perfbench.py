"""Self-tests of the end-to-end benchmark (tiny inputs; about a minute).

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import common
from common import NullTracer, Outcome, Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: The metrics each workload's report must name (untraced run).
NAMED = {
    "build-dense": ("setup_s", "build_s", "peak_rss_mb", "error_ratio"),
    "serve-dense": ("setup_s", "p50_ms", "p99_ms", "max_rps", "peak_rss_mb",
                    "error_ratio"),
    "append-sparse": ("setup_s", "append_p50_s", "visible_p50_s", "read_p50_ms",
                      "read_p99_ms", "peak_rss_mb", "error_ratio"),
}


def run_bench(cwd: Path, workload: str, trace: int, seconds: str = "4"):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(NAMED))
def test_tiny_run_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    report, result = run_bench(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for entry in declared:
        emitted = result["metrics"][entry["name"]]
        assert emitted["unit"] == entry["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, entry["name"]
    for name in NAMED[workload]:
        assert "unit" in report[name] and "value" in report[name], name
    if trace:
        assert (tmp_path / ".perfbench" / f"trace-{workload}-seed3.json").exists()
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_corrupted_served_answer_counts_as_a_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    common.require_source()
    from inputs import dense_sample, make_requests
    from loadgen import Sent
    from repro.bases.registry import registered_names
    from repro.serve import ServeApp
    from workload_build import build_once
    from workload_serve import compare_answers, encode

    sample = dense_sample(5, "tiny")
    path = tmp_path / "store.npz"
    build_once(sample.rows, path, NullTracer(), "build", sample.minsup, "MUSHROOM*")
    requests = make_requests(
        sample.held_out, sorted(registered_names()), 20, np.random.default_rng(0)
    )
    served = ServeApp(path)
    records = []
    for index, request in enumerate(requests):
        status, payload = served.handle(
            request.method, request.route, request.params(), request.body
        )
        records.append(Sent(index=index, due=0.0, status=status, body=encode(payload)))

    clean = Outcome()
    compare_answers(ServeApp(path), requests, records, clean)
    assert (clean.attempted, clean.failed) == (20, 0)

    wrong = json.loads(records[7].body)
    wrong["generation"] += 1
    records[7].body = encode(wrong)
    corrupted = Outcome()
    compare_answers(ServeApp(path), requests, records, corrupted)
    assert (corrupted.attempted, corrupted.failed) == (20, 1)


def test_corrupted_rule_support_counts_as_a_failure(tmp_path):
    common.require_source()
    from inputs import dense_sample
    from workload_build import build_once, check_build

    sample = dense_sample(5, "tiny")
    built = build_once(sample.rows, tmp_path / "store.npz", NullTracer(), "build",
                       sample.minsup, "MUSHROOM*")
    clean = Outcome()
    check_build(sample.rows, built["stored"], 5, clean)
    assert clean.attempted > 0 and clean.failed == 0

    from repro.core.rulearrays import RuleArrays

    rules = built["stored"].rule_arrays
    good = rules["all"]
    rules["all"] = RuleArrays(good.antecedents, good.consequents, good.universe,
                              good.support, good.confidence, good.support_count + 1)
    corrupted = Outcome()
    check_build(sample.rows, built["stored"], 5, corrupted)
    # the recount of "all" and the exact/approximate partition both fail
    assert corrupted.failed == 2


def test_a_changed_size_counts_as_a_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    first, same, changed = Outcome(), Outcome(), Outcome()
    common.check_counts("w", "tiny", 4, 1, {"closed_n": 10}, first)
    common.check_counts("w", "tiny", 4, 1, {"closed_n": 10}, same)
    common.check_counts("w", "tiny", 4, 1, {"closed_n": 11}, changed)
    assert (first.failed, same.failed, changed.failed) == (0, 0, 1)


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    with tracer.span("root", "r"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    by_name = {span["name"]: span for span in tracer.spans}
    own = tracer.self_times()
    root = by_name["root"]
    children = sum(by_name[n]["end"] - by_name[n]["start"] for n in ("a", "b"))
    assert own[root["id"]] == pytest.approx(root["end"] - root["start"] - children)
    assert by_name["a"]["parent"] == root["id"] and by_name["a"]["request"] == "r"


def test_without_the_package_source_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
