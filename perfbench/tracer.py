"""Span recording for traced runs, and the reader that turns spans into times.

A traced repetition replaces chosen functions, in the namespace their
callers read them from, by wrappers that record one span per call: the
span's name, its parent span, and its start and end in seconds on the
tracer's clock (the speed probe's, in a traced repetition).  Spans stay in memory in flat arrays and are
written once, at the end, as a JSON header plus a binary file of arrays.

Self time of a span is its duration minus the durations of its direct
children.  Inclusive time of a name counts only its outermost spans, so a
recursive function (``quantum.product``) is not counted once per level.

Read a trace written by a traced run:

    python3 perfbench/tracer.py perfbench/_out/trace-flag-minq-s1.json
"""

from __future__ import annotations

import array
import functools
import json
import os
import sys
import time

# column name -> array typecode, in the order they are stored in the .bin file
_COLUMNS = (("name", "H"), ("parent", "q"), ("start", "d"), ("end", "d"),
            ("nested", "b"))


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {col: array.array(code) for col, code in _COLUMNS}
        self._stack = [-1]
        self._active: list[int] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span named ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        fn = getattr(owner, attr)
        c = self.cols
        names, parents, starts, ends, nested = (
            c["name"], c["parent"], c["start"], c["end"], c["nested"])
        stack, active, clock = self._stack, self._active, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            nested.append(active[nid] > 0)
            ends.append(0.0)
            stack.append(idx)
            active[nid] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[nid] -= 1
                stack.pop()

        setattr(owner, attr, traced)

    def write(self, header_path: str, bin_path: str, extra: dict) -> None:
        with open(bin_path, "wb") as fh:
            for col, _code in _COLUMNS:
                self.cols[col].tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.cols["start"]),
            "columns": [list(c) for c in _COLUMNS],
            "bin": os.path.basename(bin_path),
            **extra,
        }
        with open(header_path, "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)


def summarize(names, cols) -> dict:
    """name -> [inclusive s, self s, calls] from the span arrays."""
    name, parent, start, end, nested = (
        cols["name"], cols["parent"], cols["start"], cols["end"], cols["nested"])
    n = len(start)
    covered = [0.0] * n  # time of each span covered by its direct children
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    out = {x: [0.0, 0.0, 0] for x in names}
    for i in range(n):
        d = end[i] - start[i]
        row = out[names[name[i]]]
        if not nested[i]:
            row[0] += d
        row[1] += d - covered[i]
        row[2] += 1
    return out


def load(header_path: str):
    """Read a trace back: (header, columns)."""
    with open(header_path, encoding="utf-8") as fh:
        header = json.load(fh)
    cols = {}
    with open(os.path.join(os.path.dirname(header_path), header["bin"]), "rb") as fh:
        for col, code in header["columns"]:
            a = array.array(code)
            a.fromfile(fh, header["spans"])
            cols[col] = a
    return header, cols


def main(argv) -> int:
    header, cols = load(argv[0])
    rows = summarize(header["names"], cols)
    print(f"{'span':40s} {'incl_s':>10s} {'self_s':>10s} {'calls':>10s}")
    for x, (incl, own, calls) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        print(f"{x:40s} {incl:10.4f} {own:10.4f} {calls:10d}")
    for key, value in sorted(header.get("counters", {}).items()):
        print(f"{key:40s} {value:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
