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
old way.  The six `verify` pins were re-recorded from the
`wp-degree-invariance` row that applies the generators of W_P, whose
count is |Delta_P| * |crossing roots|, when it replaced the walk over
every element of W_P; `MASKED`, recorded from that walk, hashes the same
outputs with the row's count masked, so nothing else on them moved.  The
`gr 4 9` product pin was re-recorded twice: when Grassmannian products
moved from the rim-hook rule to the Pieri engine, and back when `product`
came to pick the first exact rule that applies, the rim-hook rule on a
Grassmannian pair, so its digest is again the one first recorded from the
rim-hook rule.  Its `MASKED` digest, recorded from the rim-hook engine,
hashes the output with the `# engine:` line masked, so only the engine's
name moved there.  The E7 pin kept its digest when `--engine chevalley`
left its command: the Chevalley rule answers a divisor class u by
itself.  The two
`verify default-suite` pins were re-recorded when gr 4 9 went from the
golden product alone to every row with the golden product last; their
`MASKED` digests, recorded from the golden-only sweep, hash the outputs
with gr 4 9's other rows dropped and the check total counted again over
the rows kept, so nothing else moved there.  A change
to any printed byte, or to the order of cosets, fails here.  The minq
pins hash the text output of every ordered pair of classes, in coset
order.
"""

import contextlib
import hashlib
import io
import json
import re

import pytest

from qschub import cli
from qschub.checks import build_instance
from qschub.weyl import format_word

COMMANDS = {
    "verify default-suite":
        "6e596b60d2351ebffec68d418b94f017cdf1375531d5e38d7acdf7c99a4cf23c",
    "verify default-suite --format json":
        "08cf17c3be9f7a4279bfa3b27cc91c5e61298d178697ef5bf0bf225f9ac42e13",
    # the command the gr-verify benchmark workload runs
    "verify gr 3 7":
        "3683e389ed8a335df9cd4d24b541d0d9fcf68fecec6a3cc815222c31f02b12c4",
    "verify A4 flag":
        "87716b56ca2147a6419e510cb63ce68f73bd3563a24eee34b256e6023ba4996a",
    "verify gr 4 8":
        "78497c26dfa70dd2809b43bf1592ff5d0630f2d815106562229fc51dfbcb68aa",
    "verify B3 2 C3 1 3":
        "165ae81d41875c3d18287898f9dcad9dc7e3ae5f9bc9e58a8cdb9ad4f0102c80",
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
    "product E7 flag --u s3 --v s1*s4":
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

MASKED = {
    "verify default-suite":
        "f3bfebde13795fa9d9e8c6dd50eb7136a207e6c9f8dc35b8087d918225919f59",
    "verify default-suite --format json":
        "5c1ff431ea96f97db2c0df8642caf6b21dc9e2ffe984b96385b80a217d4020d8",
    "verify gr 3 7":
        "4e8ae5ec36ba96160400b83da8a9f7b41251bbf3ad7b688bae5e7016decac5b9",
    "verify A4 flag":
        "f18737b1325bc3741dc5d1ca314215e30ae9198d73c289e509d07fb4adfe8e91",
    "verify gr 4 8":
        "97664673b5487443355e6fb2df9dd3e6dfc4539527926a1c429e3cc5fc473b71",
    "verify B3 2 C3 1 3":
        "68f1b7afe67020c402f412ecbf49eeb8bb909c6b6d079fd2ffd16d98598933f2",
    "product gr 4 9 --u 5,4,4,3 --v 5,4,4,1":
        "92e12c6b40eaf0265da2a3b2c3d959a4c5ab58a9bf54b9d0530d63cb63f4466e",
}


def output(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"{code}\n{buf.getvalue()}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def masked(text: str) -> str:
    """An output with the wp-degree-invariance count replaced by N, the
    rows of gr 4 9 other than golden-product dropped, the check total read
    again off the rows kept and, in text, a product's engine name replaced
    by E; JSON is re-dumped with sorted keys after the mask."""
    code, _, body = text.partition("\n")
    try:
        doc = json.loads(body)
    except ValueError:
        body = re.sub(r"^# engine: \w+$", "# engine: E", body, flags=re.M)
        body = re.sub(r"^\w+ gr 4 9 :: (?!golden-product ).*\n", "", body, flags=re.M)
        rows = len(re.findall(r"^\w+ .* :: ", body, flags=re.M))
        body = re.sub(r"^summary: \d+ checks", f"summary: {rows} checks", body, flags=re.M)
        return f"{code}\n" + re.sub(r"wp-degree-invariance \(\d+ checked\)",
                                    "wp-degree-invariance (N checked)", body)
    for inst in doc["instances"]:
        if inst["instance"] == "gr 4 9":
            inst["checks"] = [row for row in inst["checks"] if row["name"] == "golden-product"]
        for row in inst["checks"]:
            if row["name"] == "wp-degree-invariance":
                row["checked"] = "N"
    doc["checks_total"] = sum(len(inst["checks"]) for inst in doc["instances"])
    return f"{code}\n" + json.dumps(doc, indent=2, sort_keys=True) + "\n"


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


@pytest.mark.parametrize("argv", MASKED)
def test_verify_output_moved_only_in_the_wp_count(argv):
    assert digest(masked(output(argv.split()))) == MASKED[argv]
