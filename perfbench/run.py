"""qschub benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload flag-minq --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (worker.py), one after the
other, so every repetition measures the cold program a user starts.
Repetitions continue until the next one would end after ``--seconds``,
with at least MIN_REPS of them; metrics are medians over repetitions.
The first repetition also runs the correctness pass; every other one must
produce the same SHA-256 digest of its answers, or all its operations
count as failed.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` one traced repetition follows the untraced ones and the
last line reports the per-layer metrics.  Human-readable lines and a run
record come first; the record is also written to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import import_package

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
WORKLOADS = ("flag-minq", "flag-products", "gr-verify")
MIN_REPS = 3
# a run stops adding repetitions past this many seconds, even below MIN_REPS,
# so a traced run still ends well inside three minutes on a slow program
LIMIT_S = 100
CHILD_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("pairs_per_s", "1/s"),
              ("query_p50_ms", "ms"), ("query_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class HarnessError(RuntimeError):
    """The benchmark could not run the program at all."""


def spawn(workload: str, seed: int, scale: str, check: bool, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale]
    cmd += ["--check"] * check + ["--trace"] * trace
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"error": f"repetition exceeded {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def repeat(workload: str, seed: int, seconds: float, scale: str) -> list:
    reps = []
    t0 = time.monotonic()
    while True:
        reps.append(spawn(workload, seed, scale, check=not reps, trace=False))
        elapsed = time.monotonic() - t0
        next_end = elapsed * (len(reps) + 1) / len(reps)
        if next_end > seconds and (len(reps) >= MIN_REPS or next_end > LIMIT_S):
            return reps


def count_failures(reps: list, ops: int) -> tuple[int, list]:
    """Failed operations over all repetitions, and sample messages."""
    ref = reps[0].get("digest")
    failed, notes = 0, []
    for i, rep in enumerate(reps):
        if rep.get("error"):
            failed += ops
            notes.append(f"repetition {i} raised: {rep['error'].strip().splitlines()[-1]}")
        elif i == 0:
            failed += rep["failed"]
            notes += rep["failures"]
        elif rep["digest"] != ref:
            failed += ops
            notes.append(f"repetition {i} digest {rep['digest']} differs from {ref}")
    return failed, notes


def latency_summary(per_rep_ms: list) -> dict:
    """Per-request latency over the repetitions of one run.

    Every repetition sends the same requests in the same order, so each
    request's latency is first taken as its median over repetitions; a
    burst of machine noise then moves no request unless it hits most
    repetitions.  Over those medians the summary gives the median and the
    highest percentile with at least ten samples beyond it; with fewer than
    eleven samples no percentile qualifies, and the tail is the largest.
    """
    lat = sorted(statistics.median(call) for call in zip(*per_rep_ms))
    n = len(lat)
    k = n - 11 if n > 10 else n - 1
    return {"p50_ms": statistics.median(lat), "tail_ms": lat[k],
            "tail_pct": 100.0 * (k + 1) / n, "samples": n}


def end_to_end(ok: list, pairs: int, lat: dict) -> dict:
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] for r in ok),
        "wall_s": med(r["wall_s"] for r in ok),
        "pairs_per_s": med(pairs / r["query_s"] for r in ok),
        "query_p50_ms": lat["p50_ms"],
        "query_tail_ms": lat["tail_ms"],
        "peak_rss_mb": med(r["peak_rss_mb"] for r in ok),
    }


def _commit():
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return got.stdout.strip() if got.returncode == 0 else None


def _src_digest() -> str:
    """SHA-256 over the package sources, naming the code measured without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "qschub")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str):
    """Run one workload; returns (result dict, record dict)."""
    import workloads as wl

    cfg = wl.SCALES[scale][workload]
    loadavg = os.getloadavg()
    reps = repeat(workload, seed, seconds, scale)
    traced = spawn(workload, seed, scale, check=False, trace=True) if trace else None
    failed, notes = count_failures(reps + [traced] if traced else reps, cfg["ops"])
    ok = [r for r in reps if not r.get("error")]
    if not ok:
        raise HarnessError("every repetition raised: " + "; ".join(notes[:3]))
    attempted = cfg["ops"] * (len(reps) + bool(traced))
    lat = latency_summary([r["latency_ms"] for r in ok])
    e2e = end_to_end(ok, cfg["pairs"], lat)
    if traced:
        if traced.get("error"):
            raise HarnessError("the traced repetition raised: " + notes[-1])
        layers = dict(traced["layers"], **{
            "trace.overhead_s": traced["wall_s"] - e2e["wall_s"]})
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _b in wl.layer_metrics()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    record = {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg,
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "repetitions": len(reps),
        "samples_per_repetition": lat["samples"],
        "samples": lat["samples"] * len(ok),
        "query_p50_ms": lat["p50_ms"],
        "tail_percentile": lat["tail_pct"],
        "wall_s_each": [r.get("wall_s") for r in ok],
        "speed_factor_each": [r["speed"]["factor"] for r in ok],
        "unscaled_wall_s_each": [r["speed"]["unscaled_wall_s"] for r in ok],
        "digest": ok[0]["digest"],
        "failed_frac": failed / attempted,
        "failures": notes[:5],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def report(result: dict, record: dict) -> None:
    print(f"{record['workload']} seed {record['seed']}: {record['repetitions']} "
          f"repetitions x {record['samples_per_repetition']} samples, tail = "
          f"p{record['tail_percentile']:g}, digest {record['digest'][:16]}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {record['failed_frac']:>14.6g} "
          f"({result['failed']}/{result['attempted']})")
    for note in record["failures"]:
        print(f"  failure: {note}")
    print("record: " + json.dumps(record, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"record-{record['workload']}-s{record['seed']}"
                             f"-t{int(record['trace'])}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"record": record, **result}, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: the same workloads on A2 flag and gr 2 5")
    args = p.parse_args(argv)
    import_package()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result, record = measure(name, args.seed, args.seconds, bool(args.trace),
                                     args.scale)
            report(result, record)
            results.append((name, result))
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _n, r in results),
            "attempted": sum(r["attempted"] for _n, r in results),
            "failed": sum(r["failed"] for _n, r in results),
            "metrics": {f"{n}.{k}": m for n, r in results for k, m in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
