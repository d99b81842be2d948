"""Command-line surface: frozen outputs, exit codes, determinism, round-trips."""

import json
import os
import pickle
import re
import subprocess
import sys
import time

import pytest

from qschub import checks, cli
from qschub.cli import main
from qschub.grassmann import (format_partition, grassmannian_parabolic, partition_of_coset,
                              qproduct_grassmann_cosets)
from qschub.parabolic import ParabolicData
from qschub.quantum import DEFAULT_PRODUCT_GUARD, product_engine, quantum_chevalley
from qschub.roots import build_root_system
from qschub.weyl import GroupSizeGuardError, format_word, longest_element


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# frozen example outputs


def test_minq_gr24_top_pair(capsys):
    code, out = run(capsys, "minq", "gr", "2", "4", "--u", "2,2", "--v", "2,2")
    assert code == 0
    assert out == (
        "# command: minq\n"
        "# instance: gr 2 4\n"
        "# u: sigma[22]\n"
        "# v: sigma[22]\n"
        "frontier: q^2\n"
        "chain[q^2]: sigma[22] --(a1+a2+a3 | q^1)-- sigma[1] --(a2 | q^1)-- sigma[0]\n"
    )


def test_minq_golden_instance(capsys):
    code, out = run(capsys, "minq", "gr", "4", "9", "--u", "5,4,4,3", "--v", "5,4,4,1")
    assert code == 0
    assert "frontier: q^2\n" in out


def test_minq_identity_below_everything(capsys):
    code, out = run(capsys, "minq", "A2", "flag", "--u", "e", "--v", "s1*s2*s1")
    assert code == 0
    assert "frontier: q^0\n" in out
    assert "chain[q^0]: sigma[e]\n" in out


def test_product_a1_quantum_point(capsys):
    code, out = run(capsys, "product", "A1", "flag", "--u", "s1", "--v", "s1")
    assert code == 0
    assert out.endswith("q1 * sigma[e]\n")
    assert "# engine: chevalley\n" in out


def test_product_rimhook_classical_part(capsys):
    code, out = run(capsys, "product", "gr", "2", "4", "--u", "1", "--v", "1")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body == ["sigma[2]", "sigma[11]"]


def test_product_order_is_reverse_lex_beyond_32_parts(capsys):
    """Partitions that agree on their first 32 parts still print reverse-lex."""
    v = ",".join(["2"] * 32 + ["1"])
    want = ["2" * 33, "2" * 32 + "11"]
    code, out = run(capsys, "product", "gr", "34", "36", "--u", "1", "--v", v)
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body == [f"sigma[{lam}]" for lam in want]
    code, out = run(capsys, "product", "gr", "34", "36", "--u", "1", "--v", v,
                    "--format", "json")
    assert code == 0
    assert [t["label"] for t in json.loads(out)["terms"]] == want


def test_product_auto_uses_the_cached_engine(monkeypatch, capsys):
    # a Grassmannian product is the rim-hook rule on the one pair asked
    # for: no coset listed and no engine built, on a quotient nothing else used
    cached = grassmannian_parabolic(3, 7)
    P = ParabolicData(cached.system, cached.delta_P)
    monkeypatch.setattr(checks, "build_instance", lambda tokens, guard: ("gr 3 7", P))
    code, out = run(capsys, "product", "gr", "3", "7", "--u", "21", "--v", "32")
    assert code == 0
    assert "# engine: rimhook\n" in out
    assert P._cosets is None and P._divisor_engine is None


def test_product_golden_expansion(capsys):
    code, out = run(capsys, "product", "gr", "4", "9", "--u", "5,4,4,3", "--v", "5,4,4,1")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body == [
        "q^2 * sigma[5421]",
        "q^2 * sigma[5331]",
        "q^2 * sigma[5322]",
        "q^3 * sigma[3]",
        "2 * q^3 * sigma[21]",
        "q^3 * sigma[111]",
    ]


def test_graph_counts(capsys):
    code, out = run(capsys, "graph", "A1", "flag", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 2
    assert len(payload["edges"]) == 1

    code, out = run(capsys, "graph", "gr", "2", "4", "--format", "json")
    payload = json.loads(out)
    assert (len(payload["nodes"]), len(payload["edges"])) == (6, 12)

    code, out = run(capsys, "graph", "gr", "2", "5", "--format", "json")
    payload = json.loads(out)
    assert (len(payload["nodes"]), len(payload["edges"])) == (10, 30)


def test_graph_dot_format(capsys):
    code, out = run(capsys, "graph", "A1", "flag", "--format", "dot")
    assert code == 0
    assert out.startswith("graph")
    assert "--" in out


# ---------------------------------------------------------------------------
# engines


def _cli_product(capsys, tokens, u, v, *extra):
    """(rule named in the report, terms read back into cosets) of one product."""
    code, out = run(capsys, "product", *tokens, "--u", u, "--v", v, "--format", "json", *extra)
    assert code == 0
    payload = json.loads(out)
    inst = cli._build(tokens, 0)
    terms = {(tuple(t["degree"]), cli.parse_coset(inst, t["label"])): t["coeff"]
             for t in payload["terms"]}
    return payload["engine"], terms


@pytest.mark.parametrize("tokens, u, v, rule", [
    (("A2", "flag"), "s1", "s1*s2", "chevalley"),
    (("A2", "flag"), "s1*s2", "s2*s1", "divisor"),
    (("B4", "flag"), "s2", "s1*s2*s3", "chevalley"),
    (("B4", "flag"), "s1*s2", "s4*s3*s2", "divisor"),
    (("A3", "2"), "s2", "s1*s3*s2", "chevalley"),
    (("A3", "2"), "s1*s2", "s3*s2", "rimhook"),
    (("gr", "3", "6"), "1", "21", "chevalley"),
    (("gr", "3", "6"), "21", "32", "rimhook"),
    (("B3", "2"), "s2", "s3*s2", "chevalley"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else value)
def test_product_rule_table(capsys, tokens, u, v, rule):
    # a divisor class u takes the Chevalley rule on any quotient, a
    # Grassmannian the rim-hook rule, anything else product_engine's engine;
    # each answer is the library's, and the engine's where one applies
    guard = 384 if tokens[0] == "B4" else DEFAULT_PRODUCT_GUARD
    got_rule, got = _cli_product(capsys, tokens, u, v, "--max-group-order", str(guard))
    assert got_rule == rule
    inst = cli._build(tokens, guard)
    P, cu, cv = inst.P, cli.parse_coset(inst, u), cli.parse_coset(inst, v)
    want = {"chevalley": lambda: quantum_chevalley(P, cu.word()[0], cv),
            "rimhook": lambda: qproduct_grassmann_cosets(P, cu, cv),
            "divisor": lambda: product_engine(P, guard).product(cu, cv)}[rule]()
    assert got == want.terms
    engine = product_engine(P, guard)
    if engine is not None:
        assert got == engine.product(cu, cv).terms


def test_product_rule_refuses_where_no_rule_applies(capsys):
    # B3 2 is neither a full flag nor a Grassmannian: past a divisor class
    # u (in the rule table), no rule applies
    assert main(["product", "B3", "2", "--u", "s1*s2", "--v", "s2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no full-product engine applies to B3 2: ")
    assert "u must be a divisor class" in err


def test_product_rule_matches_pieri_on_every_gr_2_5_pair(capsys):
    P = grassmannian_parabolic(2, 5)
    engine = product_engine(P)
    for u in P.cosets():
        for v in P.cosets():
            lam, mu = (format_partition(partition_of_coset(P, x)) for x in (u, v))
            assert _cli_product(capsys, ("gr", "2", "5"), lam, mu)[1] == \
                engine.product(u, v).terms


def test_engine_mismatch_is_usage_error(capsys):
    code = main(["product", "gr", "2", "4", "--u", "1", "--v", "1", "--engine", "divisor"])
    assert code == 1
    code = main(["product", "A2", "flag", "--u", "s1", "--v", "s2", "--engine", "rimhook"])
    assert code == 1
    # chevalley requires a length-one class on the left
    code = main(["product", "A2", "flag", "--u", "s1*s2", "--v", "s1",
                 "--engine", "chevalley"])
    assert code == 1


@pytest.mark.parametrize("argv", [[], ["minq"], ["product"], ["graph"], ["verify"]],
                         ids=["qschub", "minq", "product", "graph", "verify"])
def test_help_is_written_for_users(capsys, argv):
    # --help prints the parser's descriptions, not the module's code notes
    with pytest.raises(SystemExit) as info:
        main([*argv, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: qschub") and "`" not in out


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_usage_errors(capsys):
    assert main(["nonsense"]) == 1
    assert main(["minq", "gr", "2", "4", "--u", "9,9", "--v", "1"]) == 1
    assert main(["minq", "Z9", "flag", "--u", "e", "--v", "e"]) == 1
    assert main(["minq", "gr", "2", "4", "--v", "1"]) == 1  # --u missing
    assert main(["product", "A2", "flag", "--u", "s1", "--v", "s9"]) == 1


@pytest.mark.parametrize("argv,message", [
    (["minq", "gr", "2", "4", "flag", "--u", "1", "--v", "1"],
     "Grassmannian instances read: gr <k> <n>"),
    (["product", "A3", "flag", "--u", "21", "--v", "e"],
     "A3 flag classes are Weyl words like s1*s2 (or e), got '21'"),
])
def test_refused_instance_or_class_prints_one_error_line(capsys, argv, message):
    tokens = argv[1:argv.index("--u")]
    # the instance is refused by _build, the class by parse_coset
    with pytest.raises(cli.UsageError) as err:
        cli.parse_coset(cli._build(tokens, 0), argv[argv.index("--u") + 1])
    assert str(err.value) == message
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_bad_numeric_options_are_usage_errors(capsys):
    for argv, message in (
        (["graph", "A3", "flag", "--max-group-order", "-5"], "--max-group-order"),
        (["verify", "A2", "flag", "--max-group-order", "-1"], "--max-group-order"),
        (["verify", "A1", "flag", "--jobs", "0"], "--jobs"),
        (["verify", "A1", "flag", "--jobs", "-2"], "--jobs"),
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
    # zero keeps meaning "the default guard"
    assert main(["graph", "A2", "flag", "--max-group-order", "0"]) == 0


@pytest.mark.parametrize("argv", [
    ["minq", "A2", "flag", "--u", "s1", "--v", "s2"],
    ["product", "A2", "flag", "--u", "s1", "--v", "s2"],
    ["verify", "A1", "flag"],
])
def test_unwritable_out_is_an_error_line(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x"
    assert main(argv + ["--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


@pytest.mark.parametrize("word", [
    "s\N{SUPERSCRIPT ONE}",  # a digit int() refuses
    "s\N{ARABIC-INDIC DIGIT ONE}",  # a digit int() would read as 1
], ids=["superscript", "arabic-indic"])
def test_non_ascii_digits_are_malformed_words(capsys, word):
    assert main(["minq", "A2", "flag", "--u", word, "--v", "s1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed Weyl word {word!r}: bad token {word!r}\n"


ARABIC_ONE, ARABIC_TWO = "\N{ARABIC-INDIC DIGIT ONE}", "\N{ARABIC-INDIC DIGIT TWO}"


@pytest.mark.parametrize("argv,message", [
    (["minq", f"A{ARABIC_TWO}", "flag", "--u", "s1", "--v", "s1"],
     f"cannot read rank from 'A{ARABIC_TWO}'"),
    (["minq", "gr", ARABIC_TWO, "4", "--u", "1", "--v", "1"],
     f"gr needs integers, got ('{ARABIC_TWO}', '4')"),
    (["minq", "A2", ARABIC_ONE, "--u", "s1", "--v", "s1"],
     f"instance tail must be 'flag' or 1-based node indices, got ('{ARABIC_ONE}',)"),
    (["verify", "A2", ARABIC_ONE],
     f"cannot read instance type from '{ARABIC_ONE}'"),
    (["minq", "gr", "2", "4", "--u", ARABIC_ONE, "--v", "1"],
     f"cannot read partition from '{ARABIC_ONE}'"),
    (["minq", "gr", "2", "4", "--u", f"{ARABIC_ONE},", "--v", "1"],
     f"cannot read partition from '{ARABIC_ONE},'"),
    (["graph", "A2", "flag", "--max-group-order", ARABIC_TWO + "4"],
     f"argument --max-group-order: invalid int value: '{ARABIC_TWO}4'"),
    (["verify", "A1", "--jobs", ARABIC_TWO],
     f"argument --jobs: invalid int value: '{ARABIC_TWO}'"),
], ids=["rank", "gr", "node", "split", "partition-digits", "partition-commas",
        "max-group-order", "jobs"])
def test_non_ascii_digits_are_not_numbers(capsys, argv, message):
    # int() reads every Unicode digit; instances, partitions and numeric
    # options take ASCII digits only, as Weyl words do
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["verify", "A 3", "flag"], "cannot read rank from 'A 3'"),
    (["minq", "A0_2", "flag", "--u", "s1", "--v", "s1"], "cannot read rank from 'A0_2'"),
    (["minq", "gr", "2", "4", "--u", "+1,", "--v", "1"], "cannot read partition from '+1,'"),
    (["minq", "gr", " 2", "4", "--u", "1", "--v", "1"], "gr needs integers, got (' 2', '4')"),
    (["graph", "A2", "flag", "--max-group-order", "+24"],
     "argument --max-group-order: invalid int value: '+24'"),
    (["minq", "gr", "2", "4", "--u", "", "--v", "1"],
     "cannot read partition from '': write the empty partition as '0'"),
], ids=["space", "underscore", "plus", "gr-space", "option-plus", "empty-partition"])
def test_numbers_are_spelled_in_ascii_digits_only(capsys, argv, message):
    # int() also reads a '+', surrounding whitespace and '_' separators;
    # numbers in instances, partitions and options are -?[0-9]+
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")
    assert captured.err.count("error:") == 1


@pytest.mark.parametrize("argv,message", [
    (["minq", "A2", "1", "1", "--u", "s1", "--v", "e"], "node indices must not repeat: [1, 1]"),
    (["verify", "A2", "1", "1"], "node indices must not repeat: [1, 1]"),
    (["graph", "B3", "2", "1", "2"], "node indices must not repeat: [1, 2, 2]"),
], ids=["minq", "verify", "graph"])
def test_repeated_node_indices_are_malformed(capsys, argv, message):
    # "A2 1 1" is not a third quotient beside "A2 1": it is refused, not read as it
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["verify", "A3", "-1"], "cannot read instance type from '-1'"),
    (["minq", "A3", "-1", "--u", "e", "--v", "e"], "node indices must lie in 1..3: [-1]"),
], ids=["split", "node"])
def test_negative_numbers_keep_their_errors(capsys, argv, message):
    # the optional '-' stays: a negative node index is out of range, not unreadable
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_engine_auto_without_engine_is_usage_error(capsys):
    code = main(["product", "B3", "1", "--u", "s2*s1", "--v", "s1"])
    assert code == 1
    assert "no full-product engine applies to B3 1" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_bad_instance_is_usage_error(capsys, jobs):
    assert main(["verify", "Z3", "--jobs", jobs]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read instance type")
    # one bad instance among good ones stops the run before any check
    assert main(["verify", "A2", "flag", "A0", "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: type A requires rank >= 1, got rank 0\n"


@pytest.mark.parametrize("argv", [["default-suite", "A1"], ["A1", "default-suite"]])
def test_verify_default_suite_stands_alone(capsys, argv):
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 'default-suite' is a keyword that must stand alone\n"


@pytest.mark.parametrize("spelling, lower", [
    ("verify A2 FLAG", "verify A2 flag"),
    ("verify A2 FLAG --format json", "verify A2 flag --format json"),
    ("minq A2 Flag --u s1 --v s2", "minq A2 flag --u s1 --v s2"),
    ("verify DEFAULT-SUITE", "verify default-suite"),
])
def test_keywords_are_read_in_any_case(capsys, spelling, lower):
    want = (main(lower.split()), capsys.readouterr())
    assert want[0] == 0
    assert (main(spelling.split()), capsys.readouterr()) == want


def old_split_instances(tokens: list[str]) -> list[tuple[str, ...]]:
    """Split "A2 flag gr 2 4 A1" into instance token groups."""
    groups: list[list[str]] = []
    for t in tokens:
        starts = not ((t.isascii() and t.isdigit()) or t == "flag")
        if starts or not groups:
            if not starts:
                raise cli.UsageError(f"instance list cannot start with {t!r}")
            groups.append([t])
        else:
            groups.append(groups.pop() + [t])
    return [tuple(g) for g in groups]


@pytest.mark.parametrize("spelling", [" ".join(t) for t in checks.DEFAULT_SUITE] + [
    "A3 1 3 gr 2 5 B2", "a4 flag", "gr 2 4 A1", "A2 flag A1 gr 3 6 C3 1 3 flag",
    "2 A2", "flag A2", "1", "A2 3 x",
])
def test_split_instances_matches_the_old_splitter(spelling):
    tokens = spelling.split()
    try:
        want = old_split_instances(tokens)
    except cli.UsageError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            checks.split_instances(tokens)
    else:
        assert checks.split_instances(tokens) == want


def test_guard_error_survives_pickle():
    exc = pickle.loads(pickle.dumps(GroupSizeGuardError("W(E7)", 10)))
    assert isinstance(exc, GroupSizeGuardError)
    assert exc.bound == 10 and "W(E7) exceeds the enumeration guard of 10" in str(exc)


def test_group_order_guard_error_survives_pickle():
    sent = GroupSizeGuardError("divisor engine on A4 flag (|W| = 120)", 100, "group-order")
    exc = pickle.loads(pickle.dumps(sent))
    assert isinstance(exc, GroupSizeGuardError)
    assert (exc.what, exc.bound, exc.guard) == (sent.what, 100, "group-order")
    assert str(exc) == str(sent) == (
        "divisor engine on A4 flag (|W| = 120) exceeds the group-order guard "
        "of 100 elements; raise the bound explicitly to proceed")


def test_verify_guard_exits_2_in_workers(capsys):
    assert main(["verify", "E7", "flag", "--jobs", "2"]) == 2
    assert "exceeds the enumeration guard" in capsys.readouterr().err


def test_exit_code_guard(capsys):
    assert main(["graph", "A3", "flag", "--max-group-order", "5"]) == 2
    assert main(["product", "B4", "flag", "--u", "s1*s2", "--v", "s1"]) == 2
    # the guard in force applies to a cached enumeration, and a later
    # default call is not held to it
    assert main(["graph", "A3", "flag"]) == 0
    assert main(["graph", "A3", "flag", "--max-group-order", "5"]) == 2
    assert main(["minq", "A3", "flag", "--u", "s1", "--v", "s2",
                 "--max-group-order", "23"]) == 2
    assert main(["graph", "A3", "flag"]) == 0
    assert main(["graph", "A3", "flag", "--max-group-order", "24"]) == 0


def test_graph_labels_feed_back_to_minq(capsys):
    # gr 1 12 has classes sigma[10,] and sigma[11,]; each printed label
    # must name its own class again, not (1,) or (1, 1)
    _code, out = run(capsys, "graph", "gr", "1", "12")
    labels = [line.split("[")[1].split("]")[0]
              for line in out.splitlines() if line.startswith("node ")]
    assert labels[10:] == ["10,", "11,"]
    for label in labels:
        code, out = run(capsys, "minq", "gr", "1", "12", "--u", label, "--v", "1")
        assert code == 0 and f"# u: sigma[{label}]\n" in out


def _case_id(text):
    # the case names leave out the |W/W_P| the enumeration guard reports,
    # so they read as they did before the guard reported it
    return re.sub(r" \(\|W/W_P\| = \d+\)$", "", text)


@pytest.mark.parametrize("argv,what,bound", [
    ("product A3 flag --u s1*s2 --v s2 --max-group-order 5", "W/W_P for A3 flag (|W/W_P| = 24)", 5),
    ("graph A3 2 --max-group-order 3", "W/W_P for A3 omit 2 (|W/W_P| = 6)", 3),
    ("verify A4 flag --max-group-order 100", "divisor engine on A4 flag (|W| = 120)", 100),
    # on minq, product and graph the flag bounds the enumeration too; on
    # verify it bounds only the divisor engine
    ("minq A3 flag --u s1 --v s2 --max-group-order 10", "W/W_P for A3 flag (|W/W_P| = 24)", 10),
    ("verify A3 flag --max-group-order 10", "divisor engine on A3 flag (|W| = 24)", 10),
    ("graph E8 flag", "W/W_P for E8 flag (|W/W_P| = 696729600)", 1000000),
], ids=lambda value: _case_id(value) if isinstance(value, str) else None)
def test_guard_messages(capsys, argv, what, bound):
    # the enumeration guard speaks before the product guard, and each
    # message names the guard that tripped
    guard = "group-order" if what.startswith("divisor engine") else "enumeration"
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {what} exceeds the {guard} guard of {bound} "
                   "elements; raise the bound explicitly to proceed\n")


def _src_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_guard_refuses_a_large_grassmannian_quickly():
    # building the roots of A99 comes before the guard; it must stay cheap
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "qschub.cli", "minq", "gr", "50", "100", "--u", "1", "--v", "1"],
        env=_src_env(), capture_output=True, text=True, timeout=60)
    assert time.monotonic() - t0 < 10.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: W/W_P for A99 omit 50 "
                           "(|W/W_P| = 100891344545564193334812497256) exceeds the "
                           "enumeration guard of 1000000 elements; raise the bound "
                           "explicitly to proceed\n")


def test_python_m_qschub_runs_the_cli():
    argv = ["product", "A2", "flag", "--u", "s1", "--v", "s2"]
    outs = [subprocess.run([sys.executable, "-m", module, *argv], env=_src_env(),
                           capture_output=True, timeout=60)
            for module in ("qschub", "qschub.cli")]
    assert [(p.returncode, p.stderr) for p in outs] == [(0, b"")] * 2
    assert outs[0].stdout == outs[1].stdout
    assert outs[0].stdout.endswith(b"sigma[s1*s2]\nsigma[s2*s1]\n")


def _longest_e8_word():
    return format_word(longest_element(build_root_system("E", 8)).word())


@pytest.mark.parametrize("argv", [
    ["product", "gr", "12", "24", "--u", "1", "--v", ",".join(["12"] * 11 + ["11"])],
    ["product", "E8", "flag", "--u", "s1", "--v", _longest_e8_word()],
], ids=["gr 12 24, length 143", "E8 flag, length 120"])
def test_long_cosets_need_no_deep_recursion(capsys, argv):
    # rows, words and interning walk parent chains in a loop, so a coset
    # longer than the recursion limit prints its product
    code = (
        "import sys; sys.setrecursionlimit(100)\n"
        "from qschub import cli\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run(capsys, *argv)[1]
    if argv[1] == "gr":
        assert proc.stdout.splitlines()[-2:] == [
            "sigma[12,12,12,12,12,12,12,12,12,12,12,12]",
            "q^1 * sigma[11,11,11,11,11,11,11,11,11,11,10]",
        ]


def test_exit_code_verify_failure(capsys, monkeypatch):
    # corrupt the golden anchor: the sweep must notice and exit 3
    monkeypatch.setattr(checks, "GOLDEN_GR49", {(2, (5, 3, 2, 2)): 999})
    code = main(["verify", "gr", "4", "9"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL" in out


def test_verify_single_instance(capsys):
    code, out = run(capsys, "verify", "A1")
    assert code == 0
    assert out.rstrip().splitlines()[-1].startswith("summary:")
    assert "0 failed" in out


def test_verify_row_order(capsys):
    flag = [r.name for r in checks.run_instance_checks(("A2", "flag"))]
    assert flag == [
        "pairing-integrality", "weyl-structure", "bruhat-duality",
        "wp-degree-invariance", "graph-structure", "chain-symmetry",
        "frontier-singleton",
        "nonvanishing", "grading", "nonnegativity", "commutativity",
        "minimal-degree-agreement", "chevalley-column", "classical-duality",
        "associativity", "quantum-monk", "raising-witness",
    ]
    gr = [r.name for r in checks.run_instance_checks(("gr", "2", "4"))]
    assert gr == [
        "pairing-integrality", "weyl-structure", "bruhat-duality",
        "wp-degree-invariance", "graph-structure", "chain-symmetry",
        "partition-dictionary", "nonvanishing", "grading", "nonnegativity",
        "commutativity", "degree-triple-agreement", "chevalley-column",
        "classical-duality", "monotone-chains", "associativity",
        "raising-witness",
    ]
    partial = [r.name for r in checks.run_instance_checks(("B3", "1"))]
    assert partial[-1] == "chain-symmetry"


def test_verify_weyl_structure_row(capsys):
    code, out = run(capsys, "verify", "A2", "flag")
    assert code == 0
    assert "PASS A2 flag :: weyl-structure (14 checked)\n" in out
    # |W(A6)| = 5040 is over the row's bound; gr 3 7 shares that group
    code, out = run(capsys, "verify", "gr", "1", "7")
    assert code == 0
    assert "weyl-structure" not in out


def test_verify_runs_the_large_e_type_quotients(capsys):
    # wp-degree-invariance applies the generators of W_P, not its elements:
    # |W_P| is 51,840 on E7 7 and 2,903,040 on E8 8, past the enumeration guard
    code, out = run(capsys, "verify", "E7", "7")
    assert code == 0
    rows = out.splitlines()[1:-1]
    assert len(rows) == 5 and all(r.startswith("PASS E7 7 :: ") for r in rows)
    assert "PASS E7 7 :: wp-degree-invariance (162 checked)\n" in out
    code, out = run(capsys, "verify", "E8", "8")
    assert code == 0
    assert "PASS E8 8 :: wp-degree-invariance (399 checked)\n" in out


def test_verify_json_shape(capsys):
    code, out = run(capsys, "verify", "A1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checks_failed"] == 0
    assert payload["instances"][0]["instance"] == "A1"
    for row in payload["instances"][0]["checks"]:
        assert set(row) >= {"instance", "name", "passed", "checked"}


def test_verify_multiple_instances_split(capsys):
    code, out = run(capsys, "verify", "A1", "gr", "2", "4")
    assert code == 0
    assert "A1 ::" in out and "gr 2 4 ::" in out


# ---------------------------------------------------------------------------
# determinism, env, files


def test_byte_identical_reruns(capsys):
    args = ("product", "gr", "4", "9", "--u", "5,4,4,3", "--v", "5,4,4,1")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second

    args = ("verify", "gr", "2", "4", "--format", "json")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("QSCHUB_FORMAT", "json")
    code, out = run(capsys, "minq", "A1", "flag", "--u", "e", "--v", "s1")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "minq"
    # explicit flag still wins
    code, out = run(capsys, "minq", "A1", "flag", "--u", "e", "--v", "s1",
                    "--format", "text")
    assert out.startswith("# command: minq")


def test_format_env_outside_the_choices_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("QSCHUB_FORMAT", "xml")
    assert main(["verify", "A1", "flag"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: QSCHUB_FORMAT='xml'")
    # an explicit --format overrides the environment
    code, out = run(capsys, "verify", "A1", "flag", "--format", "text")
    assert code == 0 and out.startswith("# command: verify")


def test_format_env_dot_only_reaches_graph(capsys, monkeypatch):
    monkeypatch.setenv("QSCHUB_FORMAT", "dot")
    for argv in (["minq", "A1", "flag", "--u", "e", "--v", "s1"],
                 ["verify", "A1", "flag"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: QSCHUB_FORMAT='dot'"), err
    code, out = run(capsys, "graph", "A1", "flag")
    assert code == 0 and out.startswith('graph "A1 flag" {')
    # without the environment, --format dot on minq is refused as before
    monkeypatch.delenv("QSCHUB_FORMAT")
    assert main(["minq", "A1", "flag", "--u", "e", "--v", "s1", "--format", "dot"]) == 1
    assert "--format dot only applies to the graph command" in capsys.readouterr().err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code = main(["graph", "gr", "2", "4", "--format", "json", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert len(payload["nodes"]) == 6


def test_verify_jobs_parallel(capsys):
    code, out = run(capsys, "verify", "A1", "gr", "2", "4", "--jobs", "2")
    assert code == 0
    assert "0 failed" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_jobs_two_prints_what_the_serial_run_prints(capsys, fmt):
    # a real pool of two workers (three instances, --jobs 2), byte for byte
    argv = ("verify", "A1", "flag", "A2", "flag", "gr", "2", "4", "--format", fmt)
    serial = run(capsys, *argv, "--jobs", "1")
    assert serial[0] == 0 and serial[1]
    assert run(capsys, *argv, "--jobs", "2") == serial


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_verify_jobs_capped_at_the_instance_count(capsys, monkeypatch):
    # a process pool forks all its workers at the first submit, so --jobs
    # 5000 on one instance must not ask for 5000 of them
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    serial = run(capsys, "verify", "A1", "gr", "2", "4")
    assert run(capsys, "verify", "A1", "--jobs", "5000") == run(capsys, "verify", "A1")
    assert run(capsys, "verify", "A1", "gr", "2", "4", "--jobs", "5000") == serial
    assert run(capsys, "verify", "A1", "gr", "2", "4", "--jobs", "2") == serial
    assert RecordingExecutor.sizes == [1, 2, 2]


# ---------------------------------------------------------------------------
# round-trips


def extract_labels(out):
    labels = []
    for line in out.splitlines():
        if line.startswith("#"):
            continue
        term = line.split("sigma[", 1)
        if len(term) == 2:
            labels.append(term[1].rstrip("]"))
    return labels


def test_printed_cosets_reparse(capsys):
    # every sigma printed by product output parses back as a valid --u
    _, out = run(capsys, "product", "gr", "2", "4", "--u", "2,1", "--v", "2,1")
    for label in extract_labels(out):
        code, echoed = run(capsys, "minq", "gr", "2", "4", "--u", label, "--v", "0")
        assert code == 0
        assert f"# u: sigma[{label}]" in echoed

    _, out = run(capsys, "product", "B2", "flag", "--u", "s1*s2", "--v", "s2*s1")
    for label in extract_labels(out):
        code, echoed = run(capsys, "minq", "B2", "flag", "--u", label, "--v", "e")
        assert code == 0
        assert f"# u: sigma[{label}]" in echoed


def test_minq_json_chain_structure(capsys):
    code, out = run(capsys, "minq", "gr", "2", "4", "--u", "2,2", "--v", "2,2",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["frontier"] == [[2]]
    (chain,) = payload["chains"]
    assert chain["degree"] == [2]
    assert len(chain["nodes"]) == len(chain["edges"]) + 1


def test_golden_product_three_ways(capsys):
    # rim-hook product, chain-search frontier and diagonal rule agree on q^2
    from qschub.grassmann import min_degree_diagonal

    code, out = run(capsys, "product", "gr", "4", "9", "--u", "5,4,4,3", "--v", "5,4,4,1")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body[0].startswith("q^2 * ")
    code, out = run(capsys, "minq", "gr", "4", "9", "--u", "5443", "--v", "5441")
    assert code == 0
    assert "frontier: q^2\n" in out
    assert min_degree_diagonal(4, 9, (5, 4, 4, 3), (5, 4, 4, 1)) == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_each_printed_class_is_labelled_once(capsys, monkeypatch, fmt):
    calls = []

    def counting(P, u):
        calls.append(u)
        return partition_of_coset(P, u)

    monkeypatch.setattr(cli, "partition_of_coset", counting)
    code, out = run(capsys, "product", "gr", "4", "9", "--u", "5443", "--v", "5441",
                    "--format", fmt)
    assert code == 0
    if fmt == "json":
        terms = len(json.loads(out)["terms"])
    else:
        terms = sum(not line.startswith("#") for line in out.splitlines())
    # sigma[5443], sigma[5441] and each of the six terms, once each
    assert terms == 6 and len(calls) == 8


def test_product_json_terms(capsys):
    code, out = run(capsys, "product", "A1", "flag", "--u", "s1", "--v", "s1",
                    "--format", "json")
    payload = json.loads(out)
    assert payload["engine"] == "chevalley"
    assert payload["terms"] == [{"degree": [1], "label": "e", "coeff": 1}]
