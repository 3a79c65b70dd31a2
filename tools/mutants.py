"""Mutants of named library functions, scored by two test groups.

Usage, from the root of a checkout:

    python tools/mutants.py --work DIR orbit.py:_bracket_value checks.py:_picked

Each site is `module.py:function` under src/heisenmech; functions nested in
it are included. A site gives three kinds of mutant, one change each:

- every binary `+`, `-`, `*` and `/` and every augmented `+=`, `-=`, `*=`
  and `/=` flipped (+ and - swap, * and / swap);
- every ` + `, ` - `, ` * ` and ` / ` inside a string constant or the
  literal text of an f-string flipped the same way, docstrings skipped (a
  site that writes code as text, such as a generated step driver, is
  mutated in that text);
- every numeric literal n written as n + 1, as mutmut does.

The checkout, without .git and caches, is copied once to DIR/tree, which
must not exist yet; each mutant rewrites one module there and restores it
afterwards, so the checkout itself is never changed.

Each mutant runs against two groups, one pytest process at a time with -x
and without hypothesis's shrink phase:
the test files that hold kernels bitwise to frozen copies of replaced
writings (FROZEN, which must not be empty: pytest given no path would run
the whole suite), and the rest of tier-1 (tests/ without them, and
perfbench/). A group kills a mutant when pytest exits nonzero or runs past
TIMEOUT seconds. The last output is a markdown table, one row per mutant.
Standard library only (the groups' pytest runs need hypothesis, as the
tests do).
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

FROZEN = ("test_float_steps.py", "test_row_writer_bits.py", "test_propagator_rows.py")
FLIPS = {ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*"}
TEXT_FLIPS = {b" + ": b" - ", b" - ": b" + ", b" * ": b" / ", b" / ": b" * "}
# A group run takes under 30 s on 2 vCPUs; a mutant that loops is a kill.
TIMEOUT = 600.0
# pytest, with hypothesis's shrink phase off: shrinking a failing example
# only shortens its report, and took most of a killed mutant's time.
PYTEST = """\
import sys, pytest
from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))
"""


def mutants(source: str, function: str) -> list[tuple[int, int, str, str, str]]:
    """(byte offset, end offset, "line:column", old text, new text) of every
    mutant inside the named function, the position counted from 1."""
    data = source.encode()
    starts = [0]
    for line in data.split(b"\n"):
        starts.append(starts[-1] + len(line) + 1)

    def span(node):
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    found = {}

    def add(pos, end, new):
        line, column = data.count(b"\n", 0, pos) + 1, pos - data.rfind(b"\n", 0, pos)
        found[pos] = (pos, end, f"{line}:{column}", data[pos:end].decode(), new)

    def flip_text(begin, end, skip=()):
        for old, new in TEXT_FLIPS.items():
            pos = data.find(old, begin, end)
            while pos >= 0:
                if not any(a <= pos < b for a, b in skip):
                    add(pos, pos + len(old), new.decode())
                pos = data.find(old, pos + 1, end)

    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == function):
            continue
        docstrings = {id(node.body[0].value) for node in ast.walk(fn)
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and ast.get_docstring(node, clean=False) is not None}
        # Before Python 3.12 the literal parts of an f-string carry the
        # position of the whole f-string, so its text is scanned instead,
        # leaving out the expressions in its braces.
        parts = {id(value) for node in ast.walk(fn)
                 if isinstance(node, ast.JoinedStr) for value in node.values}
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp):
                before, op = node.left, node.op
            elif isinstance(node, ast.AugAssign):
                before, op = node.target, node.op
            elif isinstance(node, ast.JoinedStr):
                flip_text(*span(node), skip=[span(value.value) for value in node.values
                                             if isinstance(value, ast.FormattedValue)])
                continue
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docstrings and id(node) not in parts:
                    flip_text(*span(node))
                continue
            elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                  and id(node) not in parts):
                pos, end = span(node)
                # a literal whose text is not where the tree says is skipped
                if ast.literal_eval(data[pos:end].decode() or "None") == node.value:
                    add(pos, end, repr(node.value + 1))
                continue
            else:
                continue
            if type(op) not in FLIPS:
                continue
            # The operator is the first operator character after `before`
            # ends; brackets, blanks, line breaks and comments come first.
            pos = starts[before.end_lineno - 1] + before.end_col_offset
            while data[pos:pos + 1] not in (b"+", b"-", b"*", b"/"):
                pos = data.index(b"\n", pos) if data[pos:pos + 1] == b"#" else pos + 1
            add(pos, pos + 1, FLIPS[type(op)])
    return sorted(found.values())


def killed(tree: Path, paths: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-c", PYTEST, "-x", "-q", "-p", "no:cacheprovider",
             *paths], cwd=tree, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "killed" if run.returncode else "survived"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--work", type=Path, required=True,
                        help="scratch directory for the copied tree")
    parser.add_argument("sites", nargs="+", help="module.py:function")
    args = parser.parse_args(argv)
    if not FROZEN:
        print("FROZEN is empty: its group would run the whole suite", file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    tree = args.work / "tree"
    shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
    groups = {"frozen copies": [f"tests/{name}" for name in FROZEN],
              "rest of tier-1": ["tests", "perfbench",
                                 *(f"--ignore=tests/{name}" for name in FROZEN)]}
    for name, paths in groups.items():
        if killed(tree, paths) != "survived":
            print(f"the unmutated tree fails the {name} group", file=sys.stderr)
            return 1
    rows = ["| site | line:col | mutant | frozen copies | rest of tier-1 |",
            "|---|---|---|---|---|"]
    for site in args.sites:
        module, function = site.split(":")
        path = tree / "src" / "heisenmech" / module
        original = path.read_text()
        found = mutants(original, function)
        if not found:
            print(f"no mutant in {site}", file=sys.stderr)
        data = original.encode()
        for pos, end, where, old, new in found:
            path.write_bytes(data[:pos] + new.encode() + data[end:])
            try:
                verdicts = [killed(tree, paths) for paths in groups.values()]
            finally:
                path.write_text(original)
            rows.append(f"| {site} | {where} | `{old}` -> `{new}` | "
                        + " | ".join(verdicts) + " |")
            print(rows[-1], flush=True)
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
