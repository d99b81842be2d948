"""One cold repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload flag-minq --seed 1 [--check] [--trace]

``make_parabolic`` and the rim-hook reduction are ``lru_cache``d, the
Bruhat memo lives on the cached root system and the divisor engine on the
cached parabolic datum, so a second repetition inside one process would
run warm and measure a different program.  run.py therefore starts one
worker per repetition.  The worker prints one JSON object on its last
line of standard output.  It exits with status 2, without that line, when
the qschub sources are missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "_out")


def import_package():
    """Import qschub from this checkout's src/, never from anywhere else."""
    init = os.path.join(SRC, "qschub", "__init__.py")
    if not os.path.isfile(init):
        print(f"worker: {init} not found", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import qschub

    if os.path.abspath(qschub.__file__) != init:
        print(f"worker: imported qschub from {qschub.__file__}", file=sys.stderr)
        sys.exit(2)


def repetition(name: str, seed: int, scale: str, check: bool, trace: bool) -> dict:
    import workloads as wl
    from speed import SpeedProbe

    w = wl.WORKLOADS[name]
    cfg = wl.SCALES[scale][name]
    os.makedirs(OUT, exist_ok=True)
    probe = SpeedProbe()
    run = wl.Run(cfg, w.inputs(cfg, seed), clock=probe.clock,
                 out_path=os.path.join(OUT, f"verify-{os.getpid()}.txt"))
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(probe.clock)
        for owner, attr, span in wl.span_targets():
            tracer.wrap(owner, attr, span)
    rec = {"workload": name, "seed": seed, "ops": cfg["ops"], "error": None}
    try:
        with probe:
            t0 = probe.clock()
            w.setup(run)
            t1 = probe.clock()
            w.query(run)
            t2 = probe.clock()
        rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        f = probe.factor()
        rec.update(setup_s=(t1 - t0) * f, query_s=(t2 - t1) * f, wall_s=(t2 - t0) * f,
                   latency_ms=[x * f * 1e3 for x in run.latencies_s],
                   speed={"factor": f, "slices": len(probe.slices),
                          "unscaled_wall_s": t2 - t0})
        if tracer is not None:
            from tracer import summarize

            counters = wl.counters(run)
            stem = os.path.join(OUT, f"trace-{name}-s{seed}")
            tracer.write(stem + ".json", stem + ".bin", {
                "workload": name, "seed": seed, "counters": counters, "speed_factor": f})
            layers = dict(counters)
            for span, (incl, own, calls) in summarize(tracer.names, tracer.cols).items():
                layers.update({f"{span}.s": incl * f, f"{span}.self_s": own * f,
                               f"{span}.calls": calls})
            rec["layers"] = layers
        rec["digest"] = wl.digest(w.canonical(run))
        if check:
            bad = w.check(run)
            rec["failures"] = bad[:5]
            rec["failed"] = min(len(bad), cfg["ops"])
    except Exception:  # the program raised: every operation of this repetition failed
        rec["error"] = traceback.format_exc(limit=-3)
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full")
    p.add_argument("--check", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    import_package()
    rec = repetition(args.workload, args.seed, args.scale, args.check, args.trace)
    print(json.dumps(rec, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
