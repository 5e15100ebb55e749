"""Benchmark for lprime: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload {evaluate,relations,census} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; lprime is imported from ``src/``.
Each operation starts when the previous one returns.  A run makes
max(1, round(S / ROUND_SECONDS[workload])) whole rounds of the workload's
operations, which lasts about S seconds on the reference machine.  Every
latency is scaled to nominal machine speed by ``SpeedProbe``.  After the
timed part every output is checked against ``oracle`` and every check's
negative controls are confirmed to fail.  The last line of stdout is one
JSON object:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``;
* ``--trace 1``: the per-layer metrics, from a second process that runs
  the same rounds with ``spans.Tracer`` installed, and ``trace.overhead_s``,
  the scaled busy time of its rounds minus that of this process's rounds.

Failed operations are listed on stderr, one ``failed:`` line each.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from mpmath import mp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_SAMPLES = 5
PROBE_INTERVAL_S = 0.25
#: Median time of ``SpeedProbe.measure`` on the reference machine (README.md).
PROBE_NOMINAL_S = 0.0034
#: Relation ranks pinned by earlier numeric checks of the character criterion.
PINNED_RANKS = {55: 2, 155: 6, 105: 2, 175: 5, 1705: 13, 693: 3}


def import_lprime() -> None:
    """Import lprime from this checkout's ``src/``, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lprime
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lprime from {src}: {exc}")
    if Path(lprime.__file__).resolve().parent != src / "lprime":
        sys.exit(f"perfbench: lprime was imported from {lprime.__file__}, not from {src}")


@dataclass(frozen=True)
class Raised:
    """An operation that raised instead of returning."""

    message: str


class SpeedProbe:
    """Times a fixed mpmath computation that does not call lprime.

    The speed of a shared machine moves by up to a factor of two within
    seconds (README.md).  Each latency is scaled by PROBE_NOMINAL_S over the
    median of the probes taken nearest to it, which gives the latency the
    operation would have had at the machine's nominal speed.
    """

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []

    def measure(self) -> float:
        start = perf_counter()
        with mp.workdps(60):
            for k in range(1, 120):
                mp.log(2 * mp.sin(mp.pi * k / 121))
        end = perf_counter()
        self.times.append(end)
        self.seconds.append(end - start)
        return end - start

    def due(self) -> bool:
        return perf_counter() - self.times[-1] >= PROBE_INTERVAL_S

    def scale(self, t: float) -> float:
        i = bisect.bisect(self.times, t)
        return PROBE_NOMINAL_S / statistics.median(self.seconds[max(0, i - 2):i + 2])


def run_rounds(ops, rounds: int, tracer=None):
    """Run ``rounds`` whole rounds of ``ops``, each operation after the previous
    one returns.  Returns the outputs per round, every operation's latency at
    nominal machine speed, and the probe."""
    probe = SpeedProbe()
    probe.measure()
    outputs, timed = [], []
    for r in range(rounds):
        done = []
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = r * len(ops) + i
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # counted as a failed operation
                out = Raised(f"{type(exc).__name__}: {exc}")
            t1 = perf_counter()
            timed.append((t0, t1 - t0))
            done.append(out)
            if probe.due():
                probe.measure()
        outputs.append(done)
    probe.measure()
    return outputs, [dt * probe.scale(t0) for t0, dt in timed], probe


def digest(outputs) -> str:
    return hashlib.sha256("\n".join(repr(o) for done in outputs for o in done).encode()).hexdigest()


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Checks, run after the timed part

def safe_check(op, out):
    from workloads import Failure

    if isinstance(out, Raised):
        return Failure(out.message)
    try:
        return op.check(out)
    except Exception as exc:  # a malformed output must fail, not stop the run
        return Failure(f"check raised {type(exc).__name__}: {exc}")


def check_outputs(ops, outputs):
    """Failed operation count and the failures the benchmark does not expect."""
    from workloads import Failure

    for op, out in zip(ops, outputs[0]):
        op.result = out
    first = [safe_check(op, out) for op, out in zip(ops, outputs[0])]
    failed, unexpected = 0, []
    for r, done in enumerate(outputs):
        for i, (op, out) in enumerate(zip(ops, done)):
            failure = first[i]
            if r and out != outputs[0][i]:
                failure = Failure(f"output changed between rounds: {out!r}")
            if failure is None:
                continue
            failed += 1
            if r == 0 or failure is not first[i]:
                tag = "known fault" if failure.known else "UNEXPECTED"
                print(f"failed: {op.kind} {op.label}: {failure.message} ({tag})", file=sys.stderr)
            if not failure.known:
                unexpected.append(f"{op.kind} {op.label}: {failure.message}")
    return failed, unexpected, first


def run_controls(ops, first) -> list[str]:
    """Each corruption must make its check fail on the first passing output it applies to."""
    problems = []
    kinds = dict.fromkeys(op.kind for op in ops)
    for kind in kinds:
        passing = [op for op, failure in zip(ops, first) if op.kind == kind and failure is None]
        count = max((len(op.corruptions) for op in ops if op.kind == kind), default=0)
        for j in range(count):
            for op in passing:
                corrupted = op.corruptions[j](op.result)
                if corrupted is not None:
                    if safe_check(op, corrupted) is None:
                        problems.append(f"negative control {j} of {kind} ({op.label}) was accepted")
                    break
            else:
                print(f"note: negative control {j} of {kind} applies to no output", file=sys.stderr)
    return problems


def oracle_self_checks() -> list[str]:
    import oracle
    import workloads

    problems = [f"relation rank at q = {q} is {oracle.relation_rank(q)}, pinned {r}"
                for q, r in PINNED_RANKS.items() if oracle.relation_rank(q) != r]
    for q in workloads.RELATIONS_COMPOSITE:
        span = oracle.exact_rank(oracle.distribution_relations(q))
        if span != oracle.relation_rank(q):
            problems.append(f"q = {q}: distribution span rank {span} != character rank "
                            f"{oracle.relation_rank(q)}")
    return problems


# ---------------------------------------------------------------------------

def measure_setup(args) -> list[float]:
    """Time from starting a fresh Python process to the moment it has imported
    lprime and written the workload's inputs, at nominal machine speed.  The
    child reports that moment on the system-wide monotonic clock, so
    interpreter shutdown is excluded."""
    probe = SpeedProbe()
    samples = []
    for k in range(SETUP_SAMPLES):
        target = WORK / f"setup-{args.workload}-s{args.seed}-p{os.getpid()}-{k}"
        before = probe.measure()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(args.seed), "--seconds", "0",
                               "--setup-only", str(target)],
                              check=True, capture_output=True, text=True)
        seconds = float(proc.stdout.split()[-1]) - start
        samples.append(seconds * 2 * PROBE_NOMINAL_S / (before + probe.measure()))
        shutil.rmtree(target, ignore_errors=True)
    return samples


def traced_pass(args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--traced-pass"], capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.exit(f"perfbench: traced pass failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def traced_child(args, ops, rounds: int) -> None:
    """The traced pass: the same rounds as the parent, with spans recorded."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        outputs, latencies, probe = run_rounds(ops, rounds, tracer)
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"trace-{args.workload}-s{args.seed}.jsonl")
    # layer times are scaled to nominal machine speed as a whole, by the pass's median probe
    factor = PROBE_NOMINAL_S / statistics.median(probe.seconds)
    metrics = {name: value * factor if name.endswith("_s") else value
               for name, value in tracer.metrics().items()}
    print(json.dumps({"busy_s": sum(latencies), "digest": digest(outputs), "metrics": metrics}))


def report(args, correct: bool, attempted: int, failed: int, values: dict) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}, correct = {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main() -> None:
    import_lprime()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--traced-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_only:
        workloads.build(args.workload, args.seed, args.setup_only)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return
    rounds = max(1, round(args.seconds / workloads.ROUND_SECONDS[args.workload]))
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        setup = [] if args.trace or args.traced_pass else measure_setup(args)
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.traced_pass:
            traced_child(args, ops, rounds)
            return
        outputs, latencies, probe = run_rounds(ops, rounds)
        rss = peak_rss_mb()
        traced = traced_pass(args) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, problems, first = check_outputs(ops, outputs)
    problems += run_controls(ops, first)
    problems += oracle_self_checks()
    if traced and traced["digest"] != digest(outputs):
        problems.append("the traced pass produced different outputs")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    if traced:
        values = dict(traced["metrics"], **{"trace.overhead_s": traced["busy_s"] - sum(latencies)})
    else:
        values = {"setup_s": statistics.median(setup),
                  "ops_per_s": len(latencies) / sum(latencies),
                  "op_p50_ms": 1000 * statistics.median(latencies),
                  "peak_rss_mb": rss}
    print(f"{args.workload}: {rounds} rounds; probe median {1000 * statistics.median(probe.seconds):.2f} ms "
          f"against nominal {1000 * PROBE_NOMINAL_S:.2f} ms")
    report(args, not problems, rounds * len(ops), failed, values)


if __name__ == "__main__":
    main()
