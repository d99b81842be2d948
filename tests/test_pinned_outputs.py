"""Byte-for-byte pins of the command line's output.

Each digest is the SHA-256 of what in-process `cli.main` returns and
prints (the exit code, a newline, then stdout), recorded from the
matrix-based coset layer that the orbit-point layer replaced.  The D4
product pin was recorded from the Fraction divisor engine that the
integer engine replaced, the `verify gr 3 7` pin from the rim-hook
engine before it memoised its products, and the `A4 1 4` and `C3 flag`
minq pins from the chain search on degree tuples, before it ran on
packed ints, and the `D4 flag`, `F4 1 4`, `E6 1` and `B3 1 3` graph pins
from rows built on Weyl matrices, before each row came from its
parent's.  The `G2 flag` (an edge coordinate of 3) and `B3 2 3` (two
retained nodes) minq pins were recorded from the chain search that froze
its labels back to degree tuples, before they stayed packed, and the
`verify A4 flag` and `verify gr 4 8` pins from the sweep that searched
each frontier three times and walked the abacus once per pair.  The
`gr 3 6` minq pin was recorded from the coset dictionary that wrote the
bead map out inline, before it went through `_beta` and
`partition_from_beta`, so every chain label it prints was converted the
old way.  A change
to any printed byte, or to the order of cosets, fails here.  The minq
pins hash the text output of every ordered pair of classes, in coset
order.
"""

import contextlib
import hashlib
import io

import pytest

from qschub import cli
from qschub.checks import build_instance
from qschub.weyl import format_word

COMMANDS = {
    "verify default-suite":
        "60fb90e0abdebf952173f0fedb154f16d3d479b2be322b85a1e96c0a5b3aedbd",
    "verify default-suite --format json":
        "3407883aeb2c28caa55e14e62d61e47bef321ec7c996a4e14085b1b5b42feb04",
    # the command the gr-verify benchmark workload runs
    "verify gr 3 7":
        "f93081cf6ac73aea954083156171306711541a8b1f8c2c6357ab0b3b5b22957b",
    "verify A4 flag":
        "04d9415a8da44e2cb58a8577ead966bcd7420a8cd0a98f3ffb89c6add00a58b0",
    "verify gr 4 8":
        "db6ce266ef5cc72d3f3277072e37fc5df54e6220a9e635bd9a9c04ee0bb493f5",
    "verify B3 2 C3 1 3":
        "5d269e0181e275184f204cee145aa69d262a49f0788fd8cdc5af7381101a9b04",
    "graph gr 2 5":
        "0cae40e0eaef286cce25885459c2b7937721fea00421bd958f99a7ce84f514ea",
    "graph gr 2 5 --format json":
        "2fac110434cd678f6ae864e81d6ac105183b17e9e241dbf5ab825e21d30b02e9",
    "graph gr 2 5 --format dot":
        "740cc1337e48fe9bc57519fe953dd9a37195f7e3d75af3ef569de142e7c21e30",
    "graph G2 flag --format json":
        "4f70c2c2ceb3567f534d08e996b2b5027fba7575e5fcf352a2c05bedbe5744de",
    "graph B3 2 --format json":
        "d02368a5376b05018804e4a272ea3f36bd14f54de859a10a7e8f3e99abe9d478",
    "graph D4 flag --format json":
        "1fe63228cf9308859afc7a8d0e682679e8827fba55d9e279c1060fa755dc55b0",
    "graph F4 1 4 --format json":
        "fb083673f73c3f1baed36a9b99ed9ffb2b249f22e5cf587efd09dcced924c457",
    "graph E6 1 --format json":
        "4402809dfea432902cc7a0391c46e03f782b2d4de8c31a8c3fa2bfb81fb9574d",
    "graph B3 1 3 --format json":
        "aaf1fbf5e96cc6e0f8108ebab0f663c01623de02dd8a3ed835e40945c2bfc2a2",
    "product gr 4 9 --u 5,4,4,3 --v 5,4,4,1":
        "4b1b40376386254c77a13795e18157aa4a19d6025703926fef7c3d21bbab8d78",
    "product B3 flag --max-group-order 48 --u s1*s2 --v s3*s2":
        "aa01c6f7b89439b4f5ce6b01d55fc8dcc77f8fea67f00048444031407515940f",
    # sigma[s1*s2*s4*s2] is stored over the denominator 2
    "product D4 flag --max-group-order 192 --u s1*s2*s4*s2 --v s2*s4*s2*s3*s2*s1":
        "820261daff94ea05b0a73e119116eec94eb20600ecbbcf88466757848dad8d85",
    "product E7 flag --engine chevalley --u s3 --v s1*s4":
        "022da32b9e26bd92f8333305a9bebf10cc2c689c60204ccab60ee7aece7060f2",
}

MINQ = {
    "A3 flag":
        "098d90025d3c0efa3766bd39bc5db18b3e459f7a154b14045f0685b7f9062f4b",
    "B3 2":
        "4385c094414d2faa2429106a543a8f83caa6deee62c8a700c3d6a6b02d2118a8",
    "A4 1 4":
        "6afd3c94872943a5be0d5451e9cf1b36d5592ce6a50e4f639ebeb3c65d49611f",
    "C3 flag":
        "65e741259827b299d58b7ad0871b52a98e32027544db1ddcf84fa35ec20c6e6b",
    "G2 flag":
        "b464eadf58a81f47c427a16204f6b68fb853bdeca379dea23fd5af1f008b920e",
    "B3 2 3":
        "24ea922de513c47ad2c155881703997442c2ccd5c4b43c092ca9389e90533f06",
    "gr 3 6":
        "c65fdb59577dcc13c774951add1cbb1da845f3feec1e811bf4dd66f5e3fbb9d0",
}


def output(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"{code}\n{buf.getvalue()}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def minq_all_pairs(tokens: str) -> str:
    argv = tokens.split()
    words = [format_word(u.word()) for u in build_instance(argv)[1].cosets()]
    return "".join(
        output(["minq", *argv, "--u", a, "--v", b]) for a in words for b in words)


@pytest.mark.parametrize("argv", COMMANDS)
def test_command_output_is_pinned(argv):
    assert digest(output(argv.split())) == COMMANDS[argv]


@pytest.mark.parametrize("tokens", MINQ)
def test_minq_output_is_pinned_on_all_pairs(tokens):
    assert digest(minq_all_pairs(tokens)) == MINQ[tokens]
