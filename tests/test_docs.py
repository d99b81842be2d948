"""The examples in the README and in docstrings run and print what they say."""

import contextlib
import doctest
import importlib
import io
import re
from pathlib import Path

import qschub

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_prints_what_its_comments_say():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    lines = out.getvalue().splitlines()
    # the chain frontier, then the product's minimal q-degrees: the same set
    assert len(lines) == 3 and lines[0] == lines[1]
    assert lines[2] == "{(1, (2,)): 1, (1, (1, 1)): 1}"


def test_docstring_examples_pass():
    # __main__ runs the command line when imported, and holds no examples
    modules = [qschub] + [importlib.import_module(f"qschub.{p.stem}")
                          for p in Path(qschub.__file__).parent.glob("*.py")
                          if not p.stem.startswith("__")]
    results = [doctest.testmod(module) for module in modules]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 2  # build_root_system's two
