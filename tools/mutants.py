"""Mutation audit: which wrong programs do the tests let through?

    python3 tools/mutants.py src/lprime/lseries.py [src/lprime/cli.py ...] \
        [--tests tests/test_lseries.py ...] [--full] [--json out.json]

Run from the root of a source checkout.  Each mutant changes one site of
one module:

* a comparison swapped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in``;
* an integer constant 0, 1 or 2 raised by one;
* ``and`` and ``or`` swapped.

Each mutant is written, by ``ast.unparse``, into a copy of ``src/``,
``tests/`` and ``perfbench/`` in a temporary directory (the checkout is
never written), and runs its module's tests with ``pytest -x``: by
default ``tests/test_<module>.py``, or the ``--tests`` files for every
module.  A mutant is killed when they fail or run past five times the
unmutated run; otherwise it survives.  With ``--full`` each survivor
runs the whole suite once more, so that a survivor is one that no test
kills.  Each survivor still needs a verdict by hand: equivalent (no
input tells it apart), cost-only (the same output at another cost) or
real (a wrong answer no test sees).

The exit status is 0 when every mutant ran, whatever survived.  The
audit is not part of the test suite: a module takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench")
COMPARE_SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
                 ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
                 ast.In: ast.NotIn, ast.NotIn: ast.In}
BOOL_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
           ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
           ast.And: "and", ast.Or: "or"}
#: A mutant's tests may run this many times as long as the unmutated run.
TIMEOUT_FACTOR = 5
#: The verdict on a mutant from the outcome of its tests.
VERDICTS = {"failed": "killed", "timeout": "timeout", "passed": "survived"}


@dataclass(frozen=True)
class Mutant:
    module: str
    index: int  # the site's place in ``sites``' walk order
    line: int
    change: str


@dataclass
class Outcome:
    mutant: Mutant
    verdict: str  # "killed", "timeout" or "survived"
    seconds: float
    full_suite: str | None = None  # with --full: "killed", "timeout" or "survived"


def sites(tree: ast.AST) -> list[tuple[ast.AST, object, str]]:
    """Every mutation site, in one fixed walk order: (node, key, description).

    The key is the index of the operator of a comparison, or None.
    Docstrings and other strings are never touched; bools are not ints here.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in COMPARE_SWAPS:
                    which = f" (comparison {i + 1} of {len(node.ops)})" if len(node.ops) > 1 else ""
                    found.append((node, i, f"{SYMBOLS[type(op)]} -> {SYMBOLS[COMPARE_SWAPS[type(op)]]}{which}"))
        elif isinstance(node, ast.BoolOp):
            found.append((node, None, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[BOOL_SWAPS[type(node.op)]]}"))
        elif (isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1, 2)):
            found.append((node, None, f"{node.value} -> {node.value + 1}"))
    return found


def mutate(source: str, index: int) -> str:
    """The module's source with site ``index`` changed, as ``ast.unparse`` writes it."""
    tree = ast.parse(source)
    node, key, _ = sites(tree)[index]
    if isinstance(node, ast.Compare):
        node.ops[key] = COMPARE_SWAPS[type(node.ops[key])]()
    elif isinstance(node, ast.BoolOp):
        node.op = BOOL_SWAPS[type(node.op)]()
    else:
        node.value += 1
    return ast.unparse(tree) + "\n"


def mutants_of(module: Path) -> list[Mutant]:
    tree = ast.parse(module.read_text(encoding="utf-8"))
    name = str(module.relative_to(ROOT))
    return [Mutant(name, i, node.lineno, change) for i, (node, _, change) in enumerate(sites(tree))]


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> tuple[str, float]:
    """("passed" | "failed" | "timeout", seconds) of pytest -x over ``tests`` in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("passed" if done.returncode == 0 else "failed"), time.perf_counter() - start


def default_tests(module: str) -> list[str]:
    own = Path("tests") / f"test_{Path(module).stem}.py"
    if not (ROOT / own).exists():
        sys.exit(f"mutants: no {own} for {module}; name its tests with --tests")
    return [str(own)]


def audit(mutants: list[Mutant], tests_of: dict[str, list[str]], full: bool, copy: Path) -> list[Outcome]:
    timeouts = {}
    for module, tests in tests_of.items():
        status, seconds = run_tests(copy, tests, None)
        if status != "passed":
            sys.exit(f"mutants: {' '.join(tests)} fail without a mutant; fix them first")
        timeouts[module] = max(30.0, TIMEOUT_FACTOR * seconds)
    full_timeout = None
    if full:
        status, seconds = run_tests(copy, [], None)
        if status != "passed":
            sys.exit("mutants: the suite fails without a mutant; fix it first")
        full_timeout = max(60.0, TIMEOUT_FACTOR * seconds)
    outcomes = []
    for mutant in mutants:
        target = copy / mutant.module
        original = target.read_text(encoding="utf-8")
        target.write_text(mutate(original, mutant.index), encoding="utf-8")
        try:
            status, seconds = run_tests(copy, tests_of[mutant.module], timeouts[mutant.module])
            outcome = Outcome(mutant, VERDICTS[status], round(seconds, 2))
            if full and outcome.verdict == "survived":
                status, _ = run_tests(copy, [], full_timeout)
                outcome.full_suite = VERDICTS[status]
        finally:
            target.write_text(original, encoding="utf-8")
        outcomes.append(outcome)
        where = f"{mutant.module}:{mutant.line}"
        extra = f" (full suite: {outcome.full_suite})" if outcome.full_suite else ""
        print(f"{outcome.verdict:8} {where:32} {mutant.change}{extra}", flush=True)
    return outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module files, such as src/lprime/lseries.py")
    parser.add_argument("--tests", nargs="+", help="test files for every module (default: tests/test_<module>.py)")
    parser.add_argument("--full", action="store_true", help="run each survivor against the whole suite")
    parser.add_argument("--json", type=Path, help="write every outcome to this file")
    args = parser.parse_args(argv)

    modules = [Path(m).resolve() for m in args.modules]
    mutants = [m for module in modules for m in mutants_of(module)]
    tests_of = {str(m.relative_to(ROOT)): args.tests or default_tests(str(m)) for m in modules}
    with tempfile.TemporaryDirectory(prefix="lprime-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".work", "*.pyc"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        outcomes = audit(mutants, tests_of, args.full, copy)
    survived = [o for o in outcomes if o.verdict == "survived" and o.full_suite in (None, "survived")]
    print(f"{len(outcomes)} mutants, {len(outcomes) - len(survived)} killed, {len(survived)} survived")
    if args.json:
        args.json.write_text(json.dumps([{**asdict(o.mutant), "verdict": o.verdict, "seconds": o.seconds,
                                          "full_suite": o.full_suite} for o in outcomes], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
