"""Command-line surface: minimal q-degrees, products, graphs, verification.

Instances are spelled either "gr <k> <n>" (Grassmannian; classes are
partitions, the single quantum parameter prints as q^d) or "<Type><rank>"
followed by "flag" or by the 1-based indices kept out of Delta_P (classes
are Weyl words; quantum parameters print as q<i> factors in q_index
order).  A bare "<Type><rank>" means the full flag.  The zero degree
always prints as "q^0".  Keywords and type letters are read in any case,
by `checks.split_instances`, the one splitter, and `checks.build_instance`.

Output depends on the arguments alone.  `--format` is the one format
switch: each command lists only the formats it writes (dot on graph
alone), text is the default, and argparse refuses any other value.

The minq, product and graph reports come from one writer: text opens
with the "# command:" and "# instance:" lines, JSON is one object with
sorted keys holding "command", "instance" and the report's fields (graph
--format dot and verify keep their own layouts).  A product's terms come
from one term list: ascending q-power, then partitions reverse-lex on
"gr" instances and words by length, then letters, otherwise; each class
is labelled once.

Exit codes: 0 success, 1 usage or parse error, 2 instance guard
exceeded, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

from . import checks
from .grassmann import (
    coset_of_partition,
    format_partition,
    parse_partition,
    partition_of_coset,
    qproduct_grassmann_cosets,
)
from .parabolic import Coset, ParabolicData
from .quantum import (
    DEFAULT_PRODUCT_GUARD,
    QClass,
    product_engine,
    quantum_chevalley,
)
from .weyl import (DEFAULT_ENUMERATION_GUARD, GroupSizeGuardError, _ascii_int,
                   format_word, parse_word)

__all__ = ["main"]


class UsageError(ValueError):
    """Bad arguments or unparseable input: exit code 1."""


@dataclass
class Instance:
    label: str
    P: ParabolicData
    gr_spelled: bool


def _build(tokens, guard: int) -> Instance:
    try:
        label, P = checks.build_instance(tokens, guard or DEFAULT_ENUMERATION_GUARD)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return Instance(label, P, gr_spelled=checks.keyword(tokens[0]) == "gr")


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


def _label(inst: Instance, u: Coset) -> tuple[str, tuple]:
    """The one label rule: u's printed label and its order within a q-power.

    On gr-spelled instances the label is u's partition, ordered reverse-lex
    once padded with k zeros (partitions in the box differ within k parts);
    otherwise it is u's Weyl word, in `Coset.sort_key` order.
    """
    if inst.gr_spelled:
        lam = partition_of_coset(inst.P, u)
        return format_partition(lam), tuple(
            -a for a in lam + (0,) * inst.P.grassmannian_shape()[0])
    key = u.sort_key()  # (length, word), so the word is computed once
    return format_word(key[1]), key


def coset_str(inst: Instance, u: Coset) -> str:
    return _label(inst, u)[0]


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


def qclass_terms(inst: Instance, c: QClass) -> list[tuple[tuple, str, int]]:
    """c's terms as (degree, label, coefficient), each coset labelled once:
    ascending q-power, then the label rule's order within a power."""
    rows = [(deg, *_label(inst, u), coeff) for (deg, u), coeff in c.terms.items()]
    rows.sort(key=lambda row: (sum(row[0]), row[0], row[2]))
    return [(deg, label, coeff) for deg, label, _key, coeff in rows]


def render_qclass(inst: Instance, c: QClass) -> list[str]:
    lines = []
    for deg, label, coeff in qclass_terms(inst, c):
        pieces = []
        if coeff != 1:
            pieces.append(str(coeff))
        if sum(deg) != 0:
            pieces.append(degree_str(inst, deg))
        pieces.append(f"sigma[{label}]")
        lines.append(" * ".join(pieces))
    return lines


def qclass_records(inst: Instance, c: QClass) -> list[dict]:
    return [
        {"degree": list(deg), "label": label, "coeff": coeff}
        for deg, label, coeff in qclass_terms(inst, c)
    ]


def _report(command: str, inst: Instance, body: dict | list[str]) -> tuple[str, int]:
    """The one writer of a minq, product or graph report.

    `body` is either the JSON fields (a dict), written in the sorted-key
    envelope beside `command` and `instance`, or the text lines (a list),
    written under the `# command:` and `# instance:` header lines.
    """
    if isinstance(body, dict):
        payload = {"command": command, "instance": inst.label, **body}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n", 0
    lines = [f"# command: {command}", f"# instance: {inst.label}", *body]
    return "\n".join(lines) + "\n", 0


# ---------------------------------------------------------------------------
# commands


def cmd_minq(inst: Instance, args) -> tuple[str, int]:
    u = parse_coset(inst, args.u)
    v = parse_coset(inst, args.v)
    frontier, witnesses = inst.P.min_chain_witnesses(u, v)
    if args.format == "json":
        return _report("minq", inst, {
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
        })
    lines = [
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
    return _report("minq", inst, lines)


def cmd_product(inst: Instance, args) -> tuple[str, int]:
    """sigma_u * sigma_v by the first exact rule that applies, named in the
    report: the quantum Chevalley rule when u is a divisor class, on any
    quotient; the rim-hook rule on a Grassmannian, on the one pair asked
    for; otherwise `product_engine`'s engine, under its guards."""
    P = inst.P
    u = parse_coset(inst, args.u)
    v = parse_coset(inst, args.v)
    if u.length == 1:
        rule, result = "chevalley", quantum_chevalley(P, u.word()[0], v)
    elif P.delta_P and P.grassmannian_shape():
        rule, result = "rimhook", qproduct_grassmann_cosets(P, u, v)
    else:
        engine = product_engine(P, args.max_group_order or DEFAULT_PRODUCT_GUARD)
        if engine is None:
            raise UsageError(
                f"no full-product engine applies to {inst.label}: the divisor "
                "recursion needs the full flag and the quantum Pieri rows need a "
                "Grassmannian; here u must be a divisor class sigma[s<i>]")
        rule, result = engine.name, engine.product(u, v)
    if args.format == "json":
        return _report("product", inst, {
            "engine": rule,
            "u": coset_str(inst, u),
            "v": coset_str(inst, v),
            "terms": qclass_records(inst, result),
        })
    return _report("product", inst, [
        f"# engine: {rule}",
        f"# u: sigma[{coset_str(inst, u)}]",
        f"# v: sigma[{coset_str(inst, v)}]",
        *render_qclass(inst, result),
    ])


def cmd_graph(inst: Instance, args) -> tuple[str, int]:
    g = inst.P.graph()
    names = [coset_str(inst, u) for u in g.nodes]
    edge_items = sorted(g.edges.items())
    if args.format == "json":
        return _report("graph", inst, {
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
        })
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
    lines = [f"nodes: {g.node_count}"]
    for i in range(g.node_count):
        lines.append(f"node sigma[{names[i]}] len={g.nodes[i].length}")
    lines.append(f"edges: {g.edge_count}")
    for (i, j), (root, deg) in edge_items:
        lines.append(
            f"edge sigma[{names[i]}] -- sigma[{names[j]}] "
            f"root={root_str(root)} degree={degree_str(inst, deg)}"
        )
    return _report("graph", inst, lines)


def cmd_verify(args) -> tuple[str, int]:
    try:
        jobs = checks.split_instances(args.instances)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    for tokens in jobs:  # a malformed instance is a usage error, before any work
        _build(tokens, 0)
    run = partial(checks.run_instance_checks,
                  max_group_order=args.max_group_order or DEFAULT_PRODUCT_GUARD)
    if args.jobs > 1:  # no more workers than instances: the pool starts them all at once
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs))) as pool:
            reports = list(pool.map(run, jobs))
    else:
        reports = list(map(run, jobs))
    rows = [row for report in reports for row in report]
    failed = [r for r in rows if not r.passed]
    if args.format == "json":
        payload = {
            "command": "verify",
            "passed": not failed,
            "checks_total": len(rows),
            "checks_failed": len(failed),
            "instances": [
                {"instance": " ".join(tokens), "checks": list(map(asdict, report))}
                for tokens, report in zip(jobs, reports)
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n", 3 if failed else 0
    lines = ["# command: verify"]
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        tail = f" :: {r.detail}" if r.detail else ""
        lines.append(f"{status} {r.instance} :: {r.name} ({r.checked} checked){tail}")
    lines.append(f"summary: {len(rows)} checks, {len(failed)} failed")
    return "\n".join(lines) + "\n", 3 if failed else 0


# ---------------------------------------------------------------------------
# argument plumbing


def _int_arg(text: str) -> int:
    """argparse's int, with non-ASCII digits refused as invalid ints."""
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qschub", description="Minimal q-degrees, quantum products, "
                     "adjacency graphs and verification sweeps on flag varieties G/P.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_uv: bool, formats=("text", "json")):
        p.add_argument("instance", nargs="+", help="gr k n | A3 flag | A3 2 ...")
        if needs_uv:
            p.add_argument("--u", required=True, help="coset: word s1*s2, e, or partition")
            p.add_argument("--v", required=True, help="coset: word s1*s2, e, or partition")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--max-group-order", type=_int_arg, default=0,
                       help="bound the coset enumeration and, where product needs "
                            "the divisor engine, its |W| (0: 10^6 and 240)")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p_minq = sub.add_parser("minq", help="Pareto-minimal q-degrees with witness chains")
    common(p_minq, needs_uv=True)

    p_prod = sub.add_parser("product", help="quantum product of two classes")
    common(p_prod, needs_uv=True)

    p_graph = sub.add_parser("graph", help="dump the Bruhat adjacency graph")
    common(p_graph, needs_uv=False, formats=("text", "json", "dot"))

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument("instances", nargs="+",
                          help="'default-suite' or instance descriptions")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--jobs", type=_int_arg, default=1,
                          help="parallel workers across instances")
    p_verify.add_argument("--max-group-order", type=_int_arg, default=0,
                          help="bound the divisor engine's |W| only; enumeration "
                               "keeps its 10^6 guard (0: 240)")
    p_verify.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_group_order < 0:
            raise UsageError("--max-group-order must be >= 0 (0 means the default)")
        if getattr(args, "jobs", 1) < 1:
            raise UsageError("--jobs must be at least 1")
        if args.command == "verify":
            out, code = cmd_verify(args)
        else:
            inst = _build(args.instance, args.max_group_order)
            command = {"minq": cmd_minq, "product": cmd_product, "graph": cmd_graph}
            out, code = command[args.command](inst, args)
    except (UsageError, GroupSizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, GroupSizeGuardError) else 1
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
