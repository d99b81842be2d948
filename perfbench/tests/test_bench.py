"""Tests of the benchmark itself, on the smoke scale (A2 flag, gr 2 5).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from run import latency_summary  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _smoke(workload: str, trace: int) -> dict:
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.1",
                "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_emitted_with_units(workload):
    got = _smoke(workload, 0)
    assert set(got) == {"correct", "attempted", "failed", "metrics"}
    assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in got["metrics"].items()} == want
    assert all(v["value"] > 0 for v in got["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_metrics_emitted_with_units(workload):
    got = _smoke(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in got["metrics"].items()} == want
    assert want == {n: u for n, u, _b in wl.layer_metrics()}
    calls = {k: v["value"] for k, v in got["metrics"].items() if k.endswith(".calls")}
    busy = {"flag-minq": "parabolic.min_chain_witnesses.calls",
            "flag-products": "quantum.product.calls",
            "gr-verify": "checks.chain_symmetry.calls"}[workload]
    assert calls[busy] > 0


def test_all_workloads_in_one_command():
    proc = _run("--workload", "all", "--seed", "1", "--seconds", "0.1", "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["correct"]
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            assert f"{w['name']}.{m['name']}" in got["metrics"]
            assert f"  {m['name']} " in proc.stdout


def _answered(name: str) -> wl.Run:
    w = wl.WORKLOADS[name]
    cfg = wl.SCALES["smoke"][name]
    run = wl.Run(cfg, w.inputs(cfg, 1), out_path=os.path.join(BENCH, "_out", "t.txt"))
    os.makedirs(os.path.dirname(run.out_path), exist_ok=True)
    w.setup(run)
    w.query(run)
    return run


def _corrupt_minq_frontier(run):
    frontier, chains = run.results[0]
    run.results[0] = (tuple(tuple(c + 1 for c in d) for d in frontier), chains)
    return 1


def _corrupt_minq_chain(run):
    # raise one edge degree: the edge no longer carries the degree it claims
    k = next(k for k, (_f, chains) in enumerate(run.results) if chains[0].edge_degrees)
    frontier, (w, *rest) = run.results[k]
    bump = (w.edge_degrees[0][0] + 1,) + w.edge_degrees[0][1:]
    bad = type(w)(w.degree, w.nodes, w.edge_roots, (bump,) + w.edge_degrees[1:])
    run.results[k] = (frontier, (bad, *rest))
    return 1


def _corrupt_product(run):
    # off the diagonal, so the pair and its transpose both stop commuting
    k = next(k for k, (i, j) in enumerate(run.inputs) if i != j)
    c = run.results[k]
    (key, coeff), *rest = c.terms.items()
    run.results[k] = type(c)(c.context, {key: coeff + 1, **dict(rest)})
    return 2


def _corrupt_verify(run):
    code, text = run.results
    run.results = [code, text.replace("PASS", "FAIL", 1)]
    return 1


@pytest.mark.parametrize("name,corrupt", [
    ("flag-minq", _corrupt_minq_frontier),
    ("flag-minq", _corrupt_minq_chain),
    ("flag-products", _corrupt_product),
    ("gr-verify", _corrupt_verify),
])
def test_correctness_pass_flags_a_corrupted_result(name, corrupt):
    run = _answered(name)
    canonical, check = wl.WORKLOADS[name].canonical, wl.WORKLOADS[name].check
    assert check(run) == []
    before = wl.digest(canonical(run))
    flagged = corrupt(run)
    assert wl.digest(canonical(run)) != before
    assert len(check(run)) == flagged


def test_bare_benchmark_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run("--workload", "flag-minq", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_latency_tail_has_ten_samples_beyond_it():
    got = latency_summary([list(range(1000))])
    assert got["samples"] == 1000 and got["tail_pct"] == 99.0 and got["tail_ms"] == 989
    small = latency_summary([[3.0, 1.0, 2.0]])
    assert small["tail_ms"] == 3.0 and small["tail_pct"] == 100.0


def test_latency_of_a_call_is_its_median_over_repetitions():
    # a burst slows call 0 in one repetition and call 2 in another
    got = latency_summary([[90.0, 2.0, 3.0], [1.0, 2.0, 90.0], [1.0, 2.0, 3.0]])
    assert got["tail_ms"] == 3.0 and got["p50_ms"] == 2.0


def test_self_time_subtracts_children_and_recursion_counts_once(tmp_path):
    class Box:
        def outer(self, n):
            return self.outer(n - 1) if n else 0

    t = tracer.Tracer()
    t.wrap(Box, "outer", "box.outer")
    Box().outer(3)
    header, bin_path = str(tmp_path / "t.json"), str(tmp_path / "t.bin")
    t.write(header, bin_path, {"counters": {}})
    head, cols = tracer.load(header)
    incl, own, calls = tracer.summarize(head["names"], cols)["box.outer"]
    assert calls == 4
    assert incl == pytest.approx(cols["end"][0] - cols["start"][0])
    assert own == pytest.approx(incl)  # self times of a recursion sum to its span


def test_speed_probe_samples_during_the_phase_and_hides_its_slices():
    probe = speed.SpeedProbe()
    with probe:
        t0, w0 = probe.clock(), time.perf_counter()
        while time.perf_counter() - w0 < 0.5:
            pass
        net, wall = probe.clock() - t0, time.perf_counter() - w0
    assert len(probe.slices) >= 5
    assert net == pytest.approx(wall - sum(probe.slices), abs=0.01)
