"""The three workloads: seeded inputs, the operations that run them, and
the check each operation's output must pass.

An ``Op`` pairs a timed call into lprime with a check that runs after the
timed part of the run, against ``oracle`` (which does not import lprime).
A check returns ``None`` or a ``Failure``; ``known`` marks the one fault the
benchmark keeps on purpose, a classifier claim of independence that the
exact relation rank refutes.  Each ``Op`` also carries corruptions of its
output that its check must reject: the negative controls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from mpmath import mp, mpf, nstr

import lprime.classify
import lprime.cli
import lprime.lseries
from lprime.periodic import PeriodicFunction

import oracle

#: Seconds one round takes on the reference machine (README.md); a run of
#: S seconds makes max(1, round(S / ROUND_SECONDS)) rounds.
ROUND_SECONDS = {"evaluate": 6.5, "relations": 7.0, "census": 19.0}
WORKLOADS = tuple(ROUND_SECONDS)


@dataclass(frozen=True)
class Failure:
    message: str
    known: bool = False


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], Failure | None]
    corruptions: list[Callable[[object], object | None]] = field(default_factory=list)
    result: object = None


class OpError(Exception):
    """A CLI operation exited with a non-zero code."""


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lprime.cli.run(argv + ["--output", "json"])
    if code != 0:
        raise OpError(f"lprime {' '.join(argv)} exited with code {code}")
    return buf.getvalue()


def parse_report(out: str) -> tuple[dict | None, Failure | None]:
    """The JSON report of a CLI operation, which must re-serialise byte-identically."""
    if not isinstance(out, str):
        return None, Failure(f"no report: {out!r}")
    text = out.rstrip("\n")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, Failure(f"report is not JSON: {exc}")
    if json.dumps(report) != text:
        return None, Failure("report does not re-serialise byte-identically")
    return report, None


def respace(out: str) -> str:
    """Corruption: the same report with one extra space."""
    return out.replace(", ", ",  ", 1)


def edit_report(out: str, edit: Callable[[dict], bool]) -> str | None:
    """Corruption helper: apply ``edit`` to the parsed report, or None if it does not apply."""
    report = json.loads(out)
    return json.dumps(report) + "\n" if edit(report) else None


def perturb(value, digits: int):
    """Corruption: move a value by 10^(-d+6), past the 10^(-d+5) tolerance."""
    with mp.workdps(digits + oracle.GUARD):
        v = mpf(value)
        return v + mpf(10) ** (-digits + 6) * max(mpf(1), abs(v))


def perturb_key(key: str, digits: int):
    """Corruption: perturb a value, or the decimal string ``key`` of a report."""
    def corrupt(out):
        if isinstance(out, mpf):
            return perturb(out, digits)

        def edit(report):
            report[key] = nstr(perturb(report[key], digits), digits + 5)
            return True
        return edit_report(out, edit)
    return corrupt


# ---------------------------------------------------------------------------
# Seeded inputs

#: The values seeded functions take: n/d with 0 < |n| <= 5 and d in (1, 1, 2, 3).
SMALL_RATIONALS = tuple(Fraction(n, d) for n in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
                        for d in (1, 1, 2, 3))


def even_dirichlet(q: int, rng: random.Random) -> dict[int, Fraction]:
    """Even Dirichlet-type values mod q: small non-zero rationals on the units."""
    values = {}
    for a in oracle.half_support(q):
        values[a] = values[q - a] = rng.choice(SMALL_RATIONALS)
    return dict(sorted(values.items()))


def canonical_json(q: int, values: dict[int, Fraction]) -> str:
    return json.dumps({"q": q, "values": {
        str(a): str(v) for a, v in sorted(values.items()) if v}})


class Inputs:
    """Writes the periodic-function files a workload's CLI operations read."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, q: int, values: dict[int, Fraction]) -> str:
        self.count += 1
        path = self.workdir / f"f{self.count}_q{q}.json"
        path.write_text(canonical_json(q, values))
        return str(path)


# ---------------------------------------------------------------------------
# evaluate

#: (period, digits) of the functions in one round: periods spread over
#: 3..100, each digit count on small and large periods.  The 240-digit
#: Hurwitz operations at q = 41 and the 120-digit ones at q = 87 are the tail.
EVALUATE_FUNCTIONS = ((3, 240), (4, 120), (7, 50), (12, 240), (19, 120), (25, 50),
                      (36, 120), (41, 240), (44, 50), (70, 50), (87, 120), (100, 50))
#: Non-zero evaluation points: negative, between 0 and 1, above 1.  Function
#: i of EVALUATE_FUNCTIONS takes the pair starting at 2i mod 6; the seed
#: draws the values and the order of the functions, not their costs.
EVALUATE_S = ("-1", "1/3", "2", "-1/2", "3/4", "7/2")


def _value_check(expected: Callable[[], mpf], digits: int, read: Callable[[object], tuple]):
    """Check that ``read(out)`` gives (value, None) close to the oracle value."""
    cache = []

    def check(out):
        value, failure = read(out)
        if failure:
            return failure
        if not cache:
            cache.append(expected())
        if not oracle.close(value, cache[0], digits):
            return Failure(f"value {nstr(mpf(value), 20)} differs from the oracle "
                           f"{nstr(cache[0], 20)} by more than 10^({5 - digits})")
        return None
    return check


def _read_eval(s: str, method: str, digits: int, digest: str):
    def read(out):
        report, failure = parse_report(out)
        if failure:
            return None, failure
        want = {"s": s, "digits": digits, "method": method, "f_digest": digest}
        got = {k: report.get(k) for k in want}
        if got != want:
            return None, Failure(f"report fields {got} != {want}")
        return report["value"], None
    return read


def _read_mpf(out):
    if not isinstance(out, mpf):
        return None, Failure(f"not a number: {out!r}")
    return out, None


def build_evaluate(seed: int, inputs: Inputs) -> list[Op]:
    rng = random.Random(seed)
    functions = list(enumerate(EVALUATE_FUNCTIONS))
    rng.shuffle(functions)
    ops = []
    for i, (q, d) in functions:
        values = even_dirichlet(q, rng)
        path = inputs.write(q, values)
        digest = hashlib.sha256(canonical_json(q, values).encode()).hexdigest()[:16]
        f = PeriodicFunction(q=q, values=values)
        deriv0 = lambda q=q, values=values, d=d: oracle.l_deriv0(q, values, d)  # noqa: E731
        label = f"q={q} d={d}"
        eval0 = Op("eval_s0", label,
                   lambda path=path, d=d: run_cli(["eval", "--fn", path, "--s", "0", "--digits", str(d)]),
                   _value_check(deriv0, d, _read_eval("0", "ClosedForm0", d, digest)),
                   [perturb_key("value", d), respace])
        ops.append(eval0)
        for s in (EVALUATE_S[2 * i % 6], EVALUATE_S[(2 * i + 1) % 6]):
            sf = Fraction(s)
            ops.append(Op(
                "eval_s", f"{label} s={s}",
                lambda path=path, s=s, d=d: run_cli(["eval", "--fn", path, f"--s={s}", "--digits", str(d)]),
                _value_check(lambda sf=sf, q=q, values=values, d=d: oracle.l_value(sf, q, values, d),
                             d, _read_eval(str(sf), "HurwitzSum", d, digest)),
                [perturb_key("value", d), respace]))
        lderiv = Op("l_deriv", label, lambda f=f, d=d: lprime.lseries.l_deriv(0, f, d),
                    _value_check(deriv0, d, _read_mpf), [perturb_key("value", d)])
        ops.append(lderiv)
        even_check = _value_check(deriv0, d, _read_mpf)

        def routes_agree(out, even_check=even_check, eval0=eval0, lderiv=lderiv, d=d):
            failure = even_check(out)
            if failure:
                return failure
            others = [json.loads(eval0.result)["value"] if isinstance(eval0.result, str) else None,
                      lderiv.result]
            if not all(v is not None and oracle.close(v, out, d) for v in others):
                return Failure("the three L'(0, f) routes disagree")
            return None
        ops.append(Op("l_deriv0_even", label, lambda f=f, d=d: lprime.lseries.l_deriv0_even(f, d),
                      routes_agree, [perturb_key("value", d)]))
    return ops


# ---------------------------------------------------------------------------
# relations

#: Squarefree composites, odd and even, half-support dimension 4..24, at the
#: settings of acceptance criterion 9.  PSLQ cost grows steeply with the
#: dimension: 69, 105, 138 and 210 (dimension 22-24, 2.1-2.6 s each) are left
#: out so that a run holds three rounds; 65 and 130 keep dimension 24.
RELATIONS_COMPOSITE = (15, 21, 33, 35, 39, 51, 55, 57, 65,
                       30, 42, 66, 70, 78, 102, 110, 114, 130)
#: Prime powers, where no relation exists, at the settings of criterion 10.
RELATIONS_PRIME_POWER = (9, 11, 13, 16, 17, 25, 27, 32)


def _relation_check(q: int, max_coeff: int, digits: int):
    composite = len(oracle.prime_factors(q)) > 1

    def check(out):
        report, failure = parse_report(out)
        if failure:
            return failure
        rel = report.get("relation")
        if not composite:
            return None if rel is None else Failure(f"prime power q = {q} returned a relation")
        if rel is None:
            return Failure(f"no relation returned for composite q = {q}")
        coeffs = {int(a): c for a, c in rel["coefficients"].items()}
        if not coeffs or any(not isinstance(c, int) or abs(c) > max_coeff for c in coeffs.values()):
            return Failure(f"coefficients {coeffs} are not non-zero integers of size <= {max_coeff}")
        if not rel["verified_at_2d"] or not mpf(rel["residual_at_2d"]) < mpf(10) ** (-2 * digits + 10):
            return Failure(f"relation not verified at {2 * digits} digits")
        residues = oracle.half_support(q)
        if set(coeffs) - set(residues):
            return Failure(f"coefficients outside the half support: {sorted(coeffs)}")
        vector = [coeffs.get(a, 0) for a in residues]
        if not oracle.in_span(vector, oracle.distribution_relations(q)):
            return Failure(f"relation {coeffs} is not in the distribution-relation span")
        return None
    return check


def _change_coefficient(out):
    def edit(report):
        coeffs = (report["relation"] or {}).get("coefficients")
        if not coeffs:
            return False
        first = next(iter(coeffs))  # shrink it, so that only the span check can catch it
        coeffs[first] += -1 if coeffs[first] > 0 else 1
        return True
    return edit_report(out, edit)


def _claim_relation(out):
    def edit(report):
        if report["relation"] is not None:
            return False
        report["relation"] = {"q": report["q"], "digits": report["digits"],
                              "coefficients": {"1": 1}, "pi": 0, "log2": 0,
                              "residual_at_d": "0.0", "residual_at_2d": "0.0",
                              "verified_at_2d": True}
        return True
    return edit_report(out, edit)


def build_relations(seed: int, inputs: Inputs) -> list[Op]:
    settings = [(q, 4, 120) for q in RELATIONS_COMPOSITE]
    settings += [(q, 1_000_000, 100) for q in RELATIONS_PRIME_POWER]
    random.Random(seed).shuffle(settings)
    return [Op("relations", f"q={q}",
               lambda q=q, c=c, d=d: run_cli(["relations", "--q", str(q), "--max-coeff", str(c),
                                              "--digits", str(d)]),
               _relation_check(q, c, d), [_change_coefficient, _claim_relation, respace])
            for q, c, d in settings]


# ---------------------------------------------------------------------------
# census

#: Every q in 3..CENSUS_LAST; the range runs past q = 693, the smallest odd
#: modulus the classifier mislabels.
CENSUS_LAST = 700
CENSUS_DIGITS = 50
WITNESS_C = ("0", "1", "-1", "1/2", "-3/2", "2")


def ramachandra_pair(q: int) -> bool:
    """Odd primes p1 = 1 (mod 4) and p2 = 1 (mod p1) both divide q."""
    primes = [p for p, _ in oracle.prime_factors(q) if p != 2]
    return any(p1 % 4 == 1 and p2 % p1 == 1 for p1 in primes for p2 in primes if p2 != p1)


def _classify_check(q: int):
    def check(out):
        report, failure = parse_report(out)
        if failure:
            return failure
        if report["q"] != q or not all(isinstance(t["check"], str) and isinstance(t["result"], bool)
                                       for t in report["trace"]):
            return Failure("malformed classification report")
        label = report["case"] + (f"({report['subcase']})" if report["subcase"] else "")
        if report["label"] != label:
            return Failure(f"label {report['label']!r} != {label!r}")
        rank = oracle.basis_relation_rank(q)
        if report["independence_25"] and rank > 0:
            return Failure(f"{label} claims independence_25 but the relation rank is {rank}", known=True)
        if report["independence_24"] and rank > 1:
            return Failure(f"{label} claims independence_24 but the relation rank is {rank}", known=True)
        return None
    return check


def _claim_independence(q: int):
    def edit(report):
        report["independence_24"] = True
        return oracle.basis_relation_rank(q) >= 2
    return lambda out: edit_report(out, edit)


def _identity_check(q: int):
    def check(out):
        report, failure = parse_report(out)
        if failure:
            return failure
        if (report["q"], report["digits"]) != (q, CENSUS_DIGITS):
            return Failure("identity report for the wrong q or digits")
        if not oracle.close(report["log_sum"], oracle.identity_value(q, CENSUS_DIGITS), CENSUS_DIGITS):
            return Failure(f"log_sum {report['log_sum'][:20]} is not 0 / log p")
        return None
    return check


def _verdict_check(q: int, values: dict[int, Fraction]):
    def check(out):
        kind = getattr(getattr(out, "kind", None), "value", None)
        rank = oracle.relation_rank(q)
        needs = {"ZeroIffZeroFunction": rank == 0,
                 "ZeroIffConstantOnUnits": rank == 1,
                 "AlwaysZero": rank == len(oracle.half_support(q))}
        if kind in needs:
            if not needs[kind]:
                return Failure(f"verdict {kind} but the relation rank is {rank}", known=True)
            return None
        if kind != "Unknown":
            return Failure(f"unexpected verdict {out!r}")
        expected = abs(oracle.l_deriv0(q, values, CENSUS_DIGITS))
        if not oracle.close(out.numeric_residual, expected, CENSUS_DIGITS):
            return Failure("Unknown verdict residual differs from |L'(0, f)|")
        return None
    return check


def _verdict_corruptions(q: int):
    def residual(out):
        if out.kind.value != "Unknown":
            return None
        return SimpleNamespace(kind=out.kind, numeric_residual=perturb(out.numeric_residual, CENSUS_DIGITS))

    def overclaim(out):
        if oracle.relation_rank(q) < 2:
            return None
        return SimpleNamespace(kind=SimpleNamespace(value="ZeroIffConstantOnUnits"), numeric_residual=None)
    return [residual, overclaim]


def _witness_check(q: int, c: Fraction):
    def check(out):
        report, failure = parse_report(out)
        if failure:
            return failure
        if report["half_sum"] != -1:
            return Failure(f"half sum {report['half_sum']} != -1")
        if not mpf(report["residual"]) < mpf(10) ** (-CENSUS_DIGITS + 10):
            return Failure(f"residual {report['residual']} not below 10^({10 - CENSUS_DIGITS})")
        f = report["f"]
        values = {int(a): Fraction(v) for a, v in f["values"].items()}
        units = [a for a in range(1, q) if gcd(a, q) == 1]
        if f["q"] != q or values.get(1, 0) != c or set(values) - set(units):
            return Failure("witness function has the wrong period, f(1) or support")
        if any(values.get(a, 0) != values.get(q - a, 0) for a in units):
            return Failure("witness function is not even")
        if len({values.get(a, 0) for a in units}) < 2:
            return Failure("witness function is constant on the units")
        if not oracle.close(oracle.l_deriv0(q, values, CENSUS_DIGITS), mpf(0), CENSUS_DIGITS):
            return Failure("L'(0, f) of the witness does not vanish")
        return None
    return check


def _change_witness_value(out):
    def edit(report):
        values = report["f"]["values"]
        q = report["f"]["q"]
        a = [int(k) for k in values][1]
        for b in (a, q - a):
            values[str(b)] = str(Fraction(values[str(b)]) + 1)
        return True
    return edit_report(out, edit)


def _rank_check(families: list[dict[int, Fraction]], q: int):
    def check(out):
        report, failure = parse_report(out)
        if failure:
            return failure
        columns = oracle.half_support(q)
        rows = [[f.get(a, Fraction(0)) for a in columns] for f in families]
        rank = oracle.sympy_rank(rows)
        if report["rank"] != rank:
            return Failure(f"rank {report['rank']} != sympy rank {rank}")
        if report["independent"] != (rank == len(families)):
            return Failure("independence flag contradicts the rank")
        cert = report["certificate"]
        if (cert is None) != report["independent"]:
            return Failure("certificate present exactly when dependent is violated")
        if cert is not None:
            if not any(cert) or any(sum(c * f.get(a, 0) for c, f in zip(cert, families))
                                    for a in range(1, q + 1)):
                return Failure(f"certificate {cert} does not give sum c_i f_i = 0")
        return None
    return check


def _change_certificate(out):
    def edit(report):
        if report["certificate"] is None:
            return False
        report["certificate"][0] += 1
        return True
    return edit_report(out, edit)


def build_census(seed: int, inputs: Inputs) -> list[Op]:
    rng = random.Random(seed)
    d = str(CENSUS_DIGITS)
    ops = []
    for q in range(3, CENSUS_LAST + 1):
        ops.append(Op("classify", f"q={q}", lambda q=q: run_cli(["classify", "--q", str(q)]),
                      _classify_check(q), [_claim_independence(q), respace]))
        ops.append(Op("identity", f"q={q}",
                      lambda q=q: run_cli(["identity", "--q", str(q), "--digits", d]),
                      _identity_check(q), [perturb_key("log_sum", CENSUS_DIGITS), respace]))
        values = even_dirichlet(q, rng)
        f = PeriodicFunction(q=q, values=values)
        ops.append(Op("verdict", f"q={q}",
                      lambda q=q, f=f: lprime.classify.vanishing_verdict(q, f, CENSUS_DIGITS),
                      _verdict_check(q, values), _verdict_corruptions(q)))
        if ramachandra_pair(q):
            c = rng.choice(WITNESS_C)
            ops.append(Op("witness", f"q={q} c={c}",
                          lambda q=q, c=c: run_cli(["witness", "--q", str(q), f"--c={c}", "--digits", d]),
                          _witness_check(q, Fraction(c)), [_change_witness_value, respace]))
        if len(oracle.prime_factors(q)) == 1:
            f1, f2 = even_dirichlet(q, rng), even_dirichlet(q, rng)
            alpha, beta = rng.choice((-2, -1, 1, 2, 3)), rng.choice((-2, -1, 1, 2, 3))
            f3 = {a: alpha * f1[a] + beta * f2[a] for a in f1}
            family = [f1, f2, f3]
            paths = [inputs.write(q, fam) for fam in family]
            ops.append(Op("rank", f"q={q}", lambda paths=paths: run_cli(["rank", "--fns", *paths]),
                          _rank_check(family, q), [_change_certificate, respace]))
    return ops


BUILDERS = {"evaluate": build_evaluate, "relations": build_relations, "census": build_census}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    return BUILDERS[workload](seed, Inputs(workdir))
