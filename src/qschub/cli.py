"""Command-line surface: minimal q-degrees, products, graphs, verification.

Instances are spelled either "gr <k> <n>" (Grassmannian; classes are
partitions, the single quantum parameter prints as q^d) or "<Type><rank>"
followed by "flag" or by the 1-based indices kept out of Delta_P (classes
are Weyl words; quantum parameters print as q<i> factors in q_index
order).  A bare "<Type><rank>" means the full flag.  The zero degree
always prints as "q^0".

Exit codes: 0 success, 1 usage or parse error, 2 instance guard
exceeded, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import checks
from .grassmann import (
    coset_of_partition,
    format_partition,
    parse_partition,
    partition_of_coset,
    rimhook_engine,
)
from .parabolic import Coset, ParabolicData
from .quantum import (
    DEFAULT_PRODUCT_GUARD,
    QClass,
    product_engine,
    quantum_chevalley,
)
from .weyl import DEFAULT_ENUMERATION_GUARD, GroupSizeGuardError, format_word, parse_word

__all__ = ["main"]


class UsageError(ValueError):
    """Bad arguments or unparseable input: exit code 1."""


@dataclass
class Instance:
    label: str
    P: ParabolicData
    gr_spelled: bool


def _build(tokens, guard: int | None) -> Instance:
    try:
        label, P = checks.build_instance(
            tokens, max_elements=guard if guard else DEFAULT_ENUMERATION_GUARD
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return Instance(label, P, gr_spelled=str(tokens[0]).lower() == "gr")


# ---------------------------------------------------------------------------
# formatting


def degree_str(inst: Instance, deg: tuple) -> str:
    if sum(deg) == 0:
        return "q^0"
    if inst.gr_spelled:
        return f"q^{deg[0]}"
    factors = []
    for pos, e in zip(inst.P.q_index, deg):
        if e:
            factors.append(f"q{pos + 1}" + (f"^{e}" if e > 1 else ""))
    return " ".join(factors)


def coset_str(inst: Instance, u: Coset) -> str:
    if inst.gr_spelled:
        return format_partition(partition_of_coset(inst.P, u))
    return format_word(u.word())


def root_str(root) -> str:
    parts = []
    for i, c in enumerate(root.coeffs):
        if c:
            parts.append(("" if c == 1 else str(c)) + f"a{i + 1}")
    return "+".join(parts)


def parse_coset(inst: Instance, text: str) -> Coset:
    t = text.strip()
    try:
        if t == "e" or t.startswith("s"):
            return inst.P.to_coset(parse_word(inst.P.system, t))
        if inst.P.grassmannian_shape() is None:
            raise ValueError(
                f"{inst.label} classes are Weyl words like s1*s2 (or e), got {t!r}"
            )
        return coset_of_partition(inst.P, parse_partition(t))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _term_order(inst: Instance, terms):
    """Ascending q-power; within a power, partitions reverse-lex / words."""

    def key(item):
        (deg, u), _coeff = item
        if inst.gr_spelled:
            lam = partition_of_coset(inst.P, u)
            # k zeros of padding: partitions in the box differ within k parts
            inner = tuple(-a for a in lam + (0,) * inst.P.grassmannian_shape()[0])
        else:
            inner = u.sort_key()
        return (sum(deg), deg, inner)

    return sorted(terms, key=key)


def render_qclass(inst: Instance, c: QClass) -> list[str]:
    lines = []
    for (deg, u), coeff in _term_order(inst, c.terms.items()):
        pieces = []
        if coeff != 1:
            pieces.append(str(coeff))
        if sum(deg) != 0:
            pieces.append(degree_str(inst, deg))
        pieces.append(f"sigma[{coset_str(inst, u)}]")
        lines.append(" * ".join(pieces))
    return lines


def qclass_records(inst: Instance, c: QClass) -> list[dict]:
    return [
        {"degree": list(deg), "label": coset_str(inst, u), "coeff": coeff}
        for (deg, u), coeff in _term_order(inst, c.terms.items())
    ]


# ---------------------------------------------------------------------------
# commands


def cmd_minq(inst: Instance, args) -> tuple[str, int]:
    u = parse_coset(inst, args.u)
    v = parse_coset(inst, args.v)
    frontier, witnesses = inst.P.min_chain_witnesses(u, v)
    if args.format == "json":
        payload = {
            "command": "minq",
            "instance": inst.label,
            "u": coset_str(inst, u),
            "v": coset_str(inst, v),
            "frontier": [list(d) for d in frontier],
            "chains": [
                {
                    "degree": list(w.degree),
                    "nodes": [coset_str(inst, x) for x in w.nodes],
                    "edges": [
                        {"root": list(r.coeffs), "degree": list(d)}
                        for r, d in zip(w.edge_roots, w.edge_degrees)
                    ],
                }
                for w in witnesses
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n", 0
    lines = [
        "# command: minq",
        f"# instance: {inst.label}",
        f"# u: sigma[{coset_str(inst, u)}]",
        f"# v: sigma[{coset_str(inst, v)}]",
        "frontier: " + ", ".join(degree_str(inst, d) for d in frontier),
    ]
    for w in witnesses:
        hops = [f"sigma[{coset_str(inst, w.nodes[0])}]"]
        for x, r, d in zip(w.nodes[1:], w.edge_roots, w.edge_degrees):
            hops.append(f"--({root_str(r)} | {degree_str(inst, d)})--")
            hops.append(f"sigma[{coset_str(inst, x)}]")
        lines.append(f"chain[{degree_str(inst, w.degree)}]: " + " ".join(hops))
    return "\n".join(lines) + "\n", 0


def _pick_engine(inst: Instance, engine: str, u: Coset, guard: int):
    """(engine name, product(u, v) -> QClass) for an --engine choice.

    `auto` is product_engine's choice; an explicit choice is checked
    against the instance.
    """
    P = inst.P
    if engine == "auto":
        try:
            chosen = product_engine(P, guard)
        except ValueError:
            raise UsageError(
                f"no full-product engine applies to {inst.label}: the divisor "
                "recursion needs the full flag and the rim-hook oracle needs a "
                "Grassmannian; --engine chevalley works when u is a divisor class"
            ) from None
        return chosen.name, chosen.product
    if engine == "divisor":
        if P.delta_P:
            raise UsageError("the divisor engine requires a full flag (Delta_P empty)")
        return engine, product_engine(P, guard).product
    if engine == "rimhook":
        if P.grassmannian_shape() is None:
            raise UsageError("the rim-hook engine requires a Grassmannian instance")
        return engine, rimhook_engine(P).product
    if u.length != 1:
        raise UsageError("--engine chevalley needs u to be a divisor class sigma[s<i>]")
    return engine, lambda a, b: quantum_chevalley(P, a.word()[0], b)


def cmd_product(inst: Instance, args) -> tuple[str, int]:
    u = parse_coset(inst, args.u)
    v = parse_coset(inst, args.v)
    guard = args.max_group_order if args.max_group_order else DEFAULT_PRODUCT_GUARD
    engine, product = _pick_engine(inst, args.engine, u, guard)
    result = product(u, v)
    if args.format == "json":
        payload = {
            "command": "product",
            "instance": inst.label,
            "engine": engine,
            "u": coset_str(inst, u),
            "v": coset_str(inst, v),
            "terms": qclass_records(inst, result),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n", 0
    lines = [
        "# command: product",
        f"# instance: {inst.label}",
        f"# engine: {engine}",
        f"# u: sigma[{coset_str(inst, u)}]",
        f"# v: sigma[{coset_str(inst, v)}]",
    ]
    lines.extend(render_qclass(inst, result))
    return "\n".join(lines) + "\n", 0


def cmd_graph(inst: Instance, args) -> tuple[str, int]:
    g = inst.P.graph()
    names = [coset_str(inst, u) for u in g.nodes]
    edge_items = sorted(g.edges.items())
    if args.format == "json":
        payload = {
            "command": "graph",
            "instance": inst.label,
            "nodes": [
                {"label": names[i], "length": g.nodes[i].length}
                for i in range(g.node_count)
            ],
            "edges": [
                {
                    "u": names[i],
                    "v": names[j],
                    "root": list(root.coeffs),
                    "degree": list(deg),
                }
                for (i, j), (root, deg) in edge_items
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n", 0
    if args.format == "dot":
        lines = [f'graph "{inst.label}" {{']
        for i in range(g.node_count):
            lines.append(f'  "{names[i]}" [len={g.nodes[i].length}];')
        for (i, j), (root, deg) in edge_items:
            lines.append(
                f'  "{names[i]}" -- "{names[j]}" '
                f'[label="{degree_str(inst, deg)}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n", 0
    lines = [
        "# command: graph",
        f"# instance: {inst.label}",
        f"nodes: {g.node_count}",
    ]
    for i in range(g.node_count):
        lines.append(f"node sigma[{names[i]}] len={g.nodes[i].length}")
    lines.append(f"edges: {g.edge_count}")
    for (i, j), (root, deg) in edge_items:
        lines.append(
            f"edge sigma[{names[i]}] -- sigma[{names[j]}] "
            f"root={root_str(root)} degree={degree_str(inst, deg)}"
        )
    return "\n".join(lines) + "\n", 0


def _verify_worker(job):
    tokens, guard = job
    rows = checks.run_instance_checks(tokens, max_group_order=guard)
    return [r.to_dict() for r in rows]


def _split_instances(tokens: list[str]) -> list[tuple[str, ...]]:
    """Split "A2 flag gr 2 4 A1" into instance token groups."""
    groups: list[list[str]] = []
    for t in tokens:
        starts = not (t.isdigit() or t == "flag")
        if starts or not groups:
            if not starts:
                raise UsageError(f"instance list cannot start with {t!r}")
            groups.append([t])
        else:
            groups.append(groups.pop() + [t])
    return [tuple(g) for g in groups]


def cmd_verify(args) -> tuple[str, int]:
    if args.instances == ["default-suite"]:
        jobs = [tuple(t) for t in checks.DEFAULT_SUITE]
    else:
        jobs = _split_instances(args.instances)
        for tokens in jobs:  # a malformed instance is a usage error, before any work
            _build(tokens, None)
    guard = args.max_group_order if args.max_group_order else DEFAULT_PRODUCT_GUARD
    work = [(tokens, guard) for tokens in jobs]
    if args.jobs > 1:  # no more workers than instances: the pool starts them all at once
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(work))) as pool:
            reports = list(pool.map(_verify_worker, work))
    else:
        reports = [_verify_worker(w) for w in work]
    rows = [row for report in reports for row in report]
    failed = [r for r in rows if not r["passed"]]
    if args.format == "json":
        payload = {
            "command": "verify",
            "passed": not failed,
            "checks_total": len(rows),
            "checks_failed": len(failed),
            "instances": [
                {"instance": " ".join(tokens), "checks": report}
                for tokens, report in zip(jobs, reports)
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n", 3 if failed else 0
    lines = ["# command: verify"]
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        tail = f" :: {r['detail']}" if r["detail"] else ""
        lines.append(
            f"{status} {r['instance']} :: {r['name']} ({r['checked']} checked){tail}"
        )
    lines.append(f"summary: {len(rows)} checks, {len(failed)} failed")
    return "\n".join(lines) + "\n", 3 if failed else 0


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qschub", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_uv: bool):
        p.add_argument("instance", nargs="+", help="gr k n | A3 flag | A3 2 ...")
        if needs_uv:
            p.add_argument("--u", required=True, help="coset: word s1*s2, e, or partition")
            p.add_argument("--v", required=True, help="coset: word s1*s2, e, or partition")
        p.add_argument("--format", choices=["text", "json", "dot"])
        p.add_argument("--max-group-order", type=int, default=0,
                       help="bound the coset enumeration and, on product, the "
                            "divisor engine's |W| (0: 10^6 and 240)")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p_minq = sub.add_parser("minq", help="Pareto-minimal q-degrees with witness chains")
    common(p_minq, needs_uv=True)

    p_prod = sub.add_parser("product", help="quantum product of two classes")
    common(p_prod, needs_uv=True)
    p_prod.add_argument(
        "--engine",
        choices=["auto", "chevalley", "divisor", "rimhook"],
        default="auto",
    )

    p_graph = sub.add_parser("graph", help="dump the Bruhat adjacency graph")
    common(p_graph, needs_uv=False)

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument("instances", nargs="+",
                          help="'default-suite' or instance descriptions")
    p_verify.add_argument("--format", choices=["text", "json"])
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="parallel workers across instances")
    p_verify.add_argument("--max-group-order", type=int, default=0,
                          help="bound the divisor engine's |W| only; enumeration "
                               "keeps its 10^6 guard (0: 240)")
    p_verify.add_argument("--out")
    return parser


def _resolve_format(args) -> None:
    """--format, else QSCHUB_FORMAT, else text; only graph prints dot."""
    formats = ("text", "json", "dot") if args.command == "graph" else ("text", "json")
    env = os.environ.get("QSCHUB_FORMAT") or "text"
    if args.format is None and env not in formats:
        raise UsageError(f"QSCHUB_FORMAT={env!r} is not one of {', '.join(formats)}")
    args.format = args.format or env
    if args.format not in formats:
        raise UsageError("--format dot only applies to the graph command")


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        _resolve_format(args)
        if args.max_group_order < 0:
            raise UsageError("--max-group-order must be >= 0 (0 means the default)")
        if getattr(args, "jobs", 1) < 1:
            raise UsageError("--jobs must be at least 1")
        if args.command == "verify":
            out, code = cmd_verify(args)
        else:
            inst = _build(
                args.instance,
                args.max_group_order if args.max_group_order else None,
            )
            if args.command == "minq":
                out, code = cmd_minq(inst, args)
            elif args.command == "product":
                out, code = cmd_product(inst, args)
            else:
                out, code = cmd_graph(inst, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GroupSizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
