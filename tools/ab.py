"""Interleaved A/B timing of two revisions of lprime in one process.

    python3 tools/ab.py --parent REV [--change REV] [--workload evaluate] \
        [--seed 1] [--rounds 4] [--cold] [--json out.json]

Run from the root of a git checkout.  ``git archive`` writes each
revision's ``src/lprime`` into a package of its own name: ``lp_parent``,
``lp_aa`` (a second copy of the parent, the A/A control) and
``lp_change``.  ``--change`` defaults to the working tree's
``src/lprime``.  lprime imports itself only relatively, so the three load
side by side.  Each side builds the operations of one workload of
``perfbench/workloads.py`` (read from this checkout) against its own
package, from the same seed.

One untimed round warms every side; then each timed round runs every
operation on all three sides back to back, the side that goes first
rotating per operation and round, so that none finds mpmath's caches warm
more often than another.  With ``--cold`` there is no warm-up: each round
builds every side's operations afresh (new functions, new input files)
and times their one call, so first-call costs such as a function's lazy
checks are in every round; the module-level caches of lprime and mpmath
stay warm from the rounds before.  Every output of the first round is
compared with the parent's: a CLI report byte for byte, a library value
by its raw ``_mpf_``, and a library object field by field
(``comparable``).

Printed, and written with ``--json``, over the timed rounds (median,
quartiles and range of the per-round ratios): the ratio of the median
operation latency, change over parent and A/A over parent, and the same
for the round total; both ratios again per operation kind; and, on the
parent and the change, the kind of the operation at each round's median
latency (the lower median for an even count).  The exit status is 1 when
an output differs, 0 otherwise.  Standard library only; not part of the
test suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import importlib
import importlib.util
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from collections.abc import Mapping
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("lp_parent", "lp_aa", "lp_change")


def write_package(rev: str | None, name: str, into: Path) -> None:
    """``src/lprime`` of ``rev`` (the working tree for None) as the package ``into/name``."""
    target = into / name
    if rev is None:
        shutil.copytree(ROOT / "src" / "lprime", target, ignore=shutil.ignore_patterns("__pycache__"))
        return
    archive = subprocess.run(["git", "archive", rev, "src/lprime"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                path = target / Path(member.name).relative_to("src/lprime")
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(tar.extractfile(member).read())


def load_workloads(name: str):
    """perfbench/workloads.py as a module of its own whose ``lprime`` is the package ``name``."""
    package = importlib.import_module(name)
    modules = {f"lprime.{path.stem}": importlib.import_module(f"{name}.{path.stem}")
               for path in Path(package.__file__).parent.glob("*.py") if path.stem != "__init__"}
    modules["lprime"] = package
    saved = {key: sys.modules.pop(key) for key in list(sys.modules) if key.split(".")[0] == "lprime"}
    sys.modules.update(modules)
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{name}", ROOT / "perfbench" / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key in modules:
            del sys.modules[key]
        sys.modules.update(saved)
    return module


def comparable(out):
    """An output as a value to compare across sides, whichever package built it.

    An mpf becomes its raw tuple, an enum member its class name and value,
    and a dataclass its class name and fields, as do the items of a
    mapping, list or tuple; anything else stands for itself.
    """
    if hasattr(out, "_mpf_"):
        return out._mpf_
    if isinstance(out, enum.Enum):
        return type(out).__name__, out.value
    if dataclasses.is_dataclass(out):
        return (type(out).__name__, *(comparable(getattr(out, f.name)) for f in dataclasses.fields(out)))
    if isinstance(out, Mapping):
        return {key: comparable(value) for key, value in out.items()}
    if isinstance(out, (list, tuple)):
        return tuple(map(comparable, out))
    return out


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "quartiles": [round(q1, 4), round(q3, 4)],
            "range": [round(min(values), 4), round(max(values), 4)]}


def run(build, rounds: int, cold: bool) -> tuple[list[dict[str, list[float]]], list[str], list[str]]:
    """Per timed round, each side's latencies in seconds by operation; the differing outputs; the operation kinds.

    ``build(r)`` gives each side's operations for round r: once, before an
    untimed warm-up round, or, when ``cold``, afresh for every round, each
    of them timed.
    """
    timings, differ = [], []
    ops = build(0)
    count = len(ops[SIDES[0]])
    for r in range(rounds + (not cold)):
        if cold and r:
            ops = build(r)
        latencies = {side: [0.0] * count for side in SIDES}
        for i in range(count):
            shift = (i + r) % len(SIDES)
            outputs = {}
            for side in SIDES[shift:] + SIDES[:shift]:
                op = ops[side][i]
                start = perf_counter()
                out = op.call()
                latencies[side][i] = perf_counter() - start
                outputs[side] = comparable(out)
            if r == 0:
                differ += [f"{ops[side][i].kind} {ops[side][i].label} ({side})"
                           for side in SIDES[1:] if outputs[side] != outputs[SIDES[0]]]
        if cold or r:
            timings.append(latencies)
    return timings, differ, [op.kind for op in ops[SIDES[0]]]


def summarise(timings: list[dict[str, list[float]]], kinds: list[str]) -> dict:
    def ratios(measure, side, pick=None):
        out = []
        for latencies in timings:
            chosen = {s: [t for t, k in zip(latencies[s], kinds) if pick in (None, k)] for s in SIDES}
            out.append(measure(chosen[side]) / measure(chosen["lp_parent"]))
        return out

    def median_kind(latencies):
        return kinds[sorted(range(len(kinds)), key=latencies.__getitem__)[(len(kinds) - 1) // 2]]

    measures = (("median_op_latency", statistics.median), ("round_total", sum))
    summary = {}
    for metric, measure in measures:
        summary[metric] = {
            "parent_ms_median": round(1000 * statistics.median(measure(t["lp_parent"]) for t in timings), 4),
            "change_ms_median": round(1000 * statistics.median(measure(t["lp_change"]) for t in timings), 4),
            "change_over_parent": quartiles(ratios(measure, "lp_change")),
            "aa_control": quartiles(ratios(measure, "lp_aa")),
        }
    # the kind of the operation at each round's (lower) median, counted over the rounds
    summary["median_op_kind"] = {side: dict(Counter(median_kind(t[side]) for t in timings).most_common())
                                 for side in ("lp_parent", "lp_change")}
    summary["by_kind"] = {
        kind: {"ops_per_round": kinds.count(kind),
               **{metric: {"change_over_parent": quartiles(ratios(measure, "lp_change", kind)),
                           "aa_control": quartiles(ratios(measure, "lp_aa", kind))}
                  for metric, measure in measures}}
        for kind in dict.fromkeys(kinds)}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", help="git revision of the change side (default: the working tree)")
    parser.add_argument("--workload", default="evaluate", choices=("evaluate", "relations", "census"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=4, help="timed rounds, at least 2")
    parser.add_argument("--cold", action="store_true",
                        help="build fresh operations for every round and time their first call, with no warm-up")
    parser.add_argument("--json", type=Path, help="write the summary to this file")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    with tempfile.TemporaryDirectory(prefix="lprime-ab-") as tmp:
        tmp = Path(tmp)
        for name, rev in zip(SIDES, (args.parent, args.parent, args.change)):
            write_package(rev, name, tmp)
        sys.path[:0] = [str(tmp), str(ROOT / "perfbench")]
        modules = {name: load_workloads(name) for name in SIDES}

        def build(r: int) -> dict[str, list]:
            return {name: module.build(args.workload, args.seed, tmp / f"work_{name}_{r}")
                    for name, module in modules.items()}

        timings, differ, kinds = run(build, args.rounds, args.cold)
    summary = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds, "cold": args.cold,
               "parent": args.parent, "change": args.change or "working tree",
               "ops_per_round": len(kinds), "outputs_differ": differ, **summarise(timings, kinds)}
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    for metric in ("median_op_latency", "round_total"):
        m = summary[metric]
        print(f"{metric}: parent {m['parent_ms_median']} ms, change {m['change_ms_median']} ms; "
              f"change/parent {m['change_over_parent']['median']} {m['change_over_parent']['quartiles']}, "
              f"A/A {m['aa_control']['median']} {m['aa_control']['quartiles']}")
    for side, counts in summary["median_op_kind"].items():
        print(f"  median operation of the {side[3:]}: " + ", ".join(f"{k} in {n} round(s)" for k, n in counts.items()))
    for kind, m in summary["by_kind"].items():
        median, total = m["median_op_latency"], m["round_total"]
        print(f"  {kind} x{m['ops_per_round']}: change/parent median op {median['change_over_parent']['median']} "
              f"(A/A {median['aa_control']['median']}), round total {total['change_over_parent']['median']} "
              f"(A/A {total['aa_control']['median']})")
    for line in differ:
        print(f"output differs: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
