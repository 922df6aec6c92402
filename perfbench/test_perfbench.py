"""Tests of the benchmark itself, on tiny stores:

    python3 -m pytest perfbench

Traced runs with one seed repeat every count exactly; every workload prints
every metric the benchmark declares, with its unit; the benchmark refuses to
run without the eseds sources.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import DOMAIN_32, WORKLOADS  # noqa: E402

TINY = {
    "read-tcp": dict(n=2_000, span=DOMAIN_32 // 2_000 * 20),
    "write-dense": dict(n=2_000, span=DOMAIN_32 // 2_000 * 20),
    "dupes-dense": dict(n=400),
    "rebalance-decoupled": dict(n=1_000, span=DOMAIN_32 // 1_000 * 20, round_ops=40, trace_blocks=2),
}
TINY_WORKLOADS = {name: replace(WORKLOADS[name], **sizes) for name, sizes in TINY.items()}
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: per-layer figures that count work rather than time it
COUNTS = (
    "cipher.decrypt.calls_per_op",
    "transport.round_trips_per_op",
    "transport.bytes_per_op",
    "core.fetches_per_search",
    "core.fetches_per_insert",
    "core.fetches_per_topk",
    "core.full_scans",
    "core.search_budget_ratio",
    "core.insert_budget_ratio",
    "store.local_rebalances",
    "store.file_bytes_per_value",
)


def bench(capsys, name: str, seed: int, trace: int) -> tuple[list[str], dict]:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, TINY_WORKLOADS) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_for_a_seed(capsys, name):
    _, first = bench(capsys, name, 7, 1)
    _, second = bench(capsys, name, 7, 1)
    counts = {c: first["metrics"][c] for c in COUNTS if c in first["metrics"]}
    assert "core.full_scans" in counts and "transport.bytes_per_op" in counts
    if name == "rebalance-decoupled":
        assert "store.local_rebalances" in counts
    assert counts == {c: second["metrics"][c] for c in counts}
    assert first["attempted"] == second["attempted"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted({w["name"] for w in DECLARED["workloads"]} | {"read-tcp"}))
def test_workload_prints_every_declared_metric(capsys, name, trace):
    lines, result = bench(capsys, name, 3, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        m: v["unit"] for m, v in result["metrics"].items()
    }
    table = {line.split()[0]: line.split()[2] for line in lines[2:-1]}
    for m in declared:
        assert table[m["name"]] == m["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_rebalance_workload_reports_rebalance_latency(capsys):
    lines, result = bench(capsys, "rebalance-decoupled", 3, 0)
    table = {line.split()[0] for line in lines[2:-1]}
    assert {"rebalance_p50_ms", "rebalance_tail_ms", "fail_ratio"} <= table
    assert "rebalance_tail_ms" in result["metrics"]


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "read-tcp", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
