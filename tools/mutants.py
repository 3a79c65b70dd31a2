"""Operator-flip mutants of named library functions, scored by two test groups.

Usage, from the root of a checkout:

    python tools/mutants.py --work DIR orbit.py:_bracket_value checks.py:_picked

Each site is `module.py:function` under src/heisenmech; functions nested in
it are included. Every binary `+`, `-`, `*` and `/` in a site, and every
augmented `+=`, `-=`, `*=` and `/=`, gives one mutant: that one operator
flipped (+ and - swap, * and / swap). The checkout, without .git and
caches, is copied once to DIR/tree, which must not exist yet; each mutant
rewrites one module there and restores it afterwards, so the checkout itself
is never changed.

Each mutant runs against two groups, one pytest process at a time with -x:
the test files that hold kernels bitwise to frozen copies of replaced
writings (FROZEN), and the rest of tier-1 (tests/ without them, and
perfbench/). A group kills a mutant when pytest exits nonzero or runs past
TIMEOUT seconds. The last output is a markdown table, one row per mutant.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

FROZEN = ("test_trivialization.py", "test_algebra_checks_reference.py",
          "test_chart_checks_reference.py", "test_mr_checks_reference.py",
          "test_row_writer_bits.py", "test_propagator_rows.py",
          "test_float_steps.py")
FLIPS = {ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*"}
# A group run takes under 30 s on 2 vCPUs; a mutant that loops is a kill.
TIMEOUT = 600.0


def operator_offsets(source: str, function: str) -> list[tuple[int, str, str]]:
    """(byte offset, "line:column", flipped character) of every flippable
    operator inside the named function, both counted from 1."""
    data = source.encode()
    starts = [0]
    for line in data.split(b"\n"):
        starts.append(starts[-1] + len(line) + 1)
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == function):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp):
                before, op = node.left, node.op
            elif isinstance(node, ast.AugAssign):
                before, op = node.target, node.op
            else:
                continue
            if type(op) not in FLIPS:
                continue
            # The operator is the first operator character after `before`
            # ends; brackets, blanks, line breaks and comments come first.
            pos = starts[before.end_lineno - 1] + before.end_col_offset
            while data[pos:pos + 1] not in (b"+", b"-", b"*", b"/"):
                pos = data.index(b"\n", pos) if data[pos:pos + 1] == b"#" else pos + 1
            line, column = data.count(b"\n", 0, pos) + 1, pos - data.rfind(b"\n", 0, pos)
            where = f"{line}:{column}"
            found.append((pos, where, FLIPS[type(op)]))
    return sorted(found)


def killed(tree: Path, paths: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
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
    rows = ["| site | line:col | flip | frozen copies | rest of tier-1 |",
            "|---|---|---|---|---|"]
    for site in args.sites:
        module, function = site.split(":")
        path = tree / "src" / "heisenmech" / module
        original = path.read_text()
        offsets = operator_offsets(original, function)
        if not offsets:
            print(f"no flippable operator in {site}", file=sys.stderr)
        data = original.encode()
        for pos, where, flip in offsets:
            path.write_bytes(data[:pos] + flip.encode() + data[pos + 1:])
            try:
                verdicts = [killed(tree, paths) for paths in groups.values()]
            finally:
                path.write_text(original)
            rows.append(f"| {site} | {where} | `{chr(data[pos])}` -> `{flip}` | "
                        + " | ".join(verdicts) + " |")
            print(rows[-1], flush=True)
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
