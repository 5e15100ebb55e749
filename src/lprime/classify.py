"""Decision procedures for moduli and vanishing verdicts.

``classify_modulus`` decides which multiplicative-independence regime a
modulus q falls into, recording every condition it checks in a boolean
trace.  The fixed evaluation order (documented because the underlying
case list is a plain disjunction with no precedence):

1. q is a prime power                      -> PrimePower
2. q = 6                                   -> QSix
3. q = 2m, m odd: m satisfies case III/V   -> TwoTimesPeiFeng(III|V)
                  m a prime power          -> TwoPNPower
4. the Pei-Feng ladder I..V on q itself    -> PeiFeng(case, subcase)
5. nothing matched                         -> Uncovered

Neither the flags nor the vanishing verdict read the ladder; both read
the number of coset relations of q (``arith.coset_relations``), whose
0/1 vectors span the relations among the half-support log-sines.  Two
distinct ones are independent, so their count tells rank 0, rank 1 and
rank at least 2 apart.  ``arith.relation_count`` reads that count from a
per-prime criterion, without building the relations: q has none exactly
when it is a prime power, and at most one exactly when, for every p^e
exactly dividing q with m = q/p^e > 1, p and -1 generate (Z/m)^*.
``independence_24`` (the family with a = 1 excluded is linearly
independent over the algebraic numbers) holds when there is at most one
relation, the all-ones one.  ``independence_25`` (the full family plus
pi and log 2) holds for q = 6 and for the relation-free moduli, the
prime powers, other than 2^n with n >= 3 (``arith.has_log2_relation``):
at those the half-support log-sines sum to (1/2) log 2, since the
cyclotomic polynomial takes the value 2 at 1.

The case, subcase and trace record the ladder as the paper states it, and
its own claim of independence is not exact.  Below 2000 it files 780
moduli under a label, and at 174 of them the half-support log-sines have
two or more relations (counted from characters by the benchmark's
oracle, ``relation_rank``): TwoTimesPeiFeng(III) 81 of 141 (66, 102,
...), TwoPNPower 69 of 183 (34, 62, ...), PeiFeng(IV,1) all 14 (84,
252, ...), PeiFeng(IV,2) 5 of 20 (204, ...), TwoTimesPeiFeng(V) all 3
(462, 966, 1386) and PeiFeng(V,1) 2 of 6 (693, 1449).  The other labels
hold at every modulus they file.  The ladder also misses Uncovered
q = 140, 460, 940 and 980, which have at most one relation.
``tests/test_classify.py`` pins these moduli.

At q = 2 p^n the criterion names the failing condition: there is at
most one relation exactly when 2 and -1 generate (Z/p^n)^*, that is when
2 is a primitive root mod p^n, or a semi-primitive one with p = 3 (mod 4).
That is the sub-case test of shapes I and II, which the TwoPNPower
branch does not check; the 69 moduli above are exactly those that fail
it.  At q = 34, 2 has order 8 mod 17 and -1 = 2^4, so <2, -1> has
index 2.  The same condition at the prime 2 names three more labels: at
q = 2m or 4m with m odd, the criterion asks that 2 and -1 generate
(Z/m)^*, which the TwoTimesPeiFeng branch (the ladder on m alone) and
the IV,2 sub-case (2 mod one prime power of m) do not check.  The
failures of TwoTimesPeiFeng(III), TwoTimesPeiFeng(V) and PeiFeng(IV,2)
are exactly their moduli that fail it; at q = 66, -1 = 2^5 mod 33 and
<2, -1> has index 2.  PeiFeng(IV,1) and PeiFeng(V,1) fail at different
primes from one modulus to the next.

``vanishing_verdict`` says what is provable about L'(0, f) for an even
Dirichlet-type f of period q, by the number of coset relations: none
(the prime powers), zero iff f = 0; one, zero iff f is constant on the
units; q = 6, always zero.  With two or more, vanishing depends on f
beyond that, and the verdict is Unknown with the numeric residual
|L'(0, f)| attached so callers can hunt for relations.  The residual is
``lseries.l_deriv0``, the route rule ``lprime eval --s 0`` takes too: the
log-sine sum for a dense f, and the series for a sparse f at a large q,
whose cost follows the support instead of a walk of q/2 sines.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from math import gcd

from mpmath import mpf, nstr

from .arith import RootType, factorize, has_log2_relation, mult_order, relation_count, root_type
from .errors import ValidationError, require_int
from .lseries import l_deriv0
from .numkernel import require_digits
from .periodic import PeriodicFunction, require_even_dirichlet


class Case(enum.Enum):
    PRIME_POWER = "PrimePower"
    Q_SIX = "QSix"
    PEI_FENG = "PeiFeng"
    TWO_PN_POWER = "TwoPNPower"
    TWO_TIMES_PEI_FENG = "TwoTimesPeiFeng"
    UNCOVERED = "Uncovered"


@dataclass(frozen=True)
class Classification:
    q: int
    case: Case
    subcase: str | None
    independence_24: bool
    independence_25: bool
    trace: list[tuple[str, bool]]

    def label(self) -> str:
        return f"{self.case.value}({self.subcase})" if self.subcase else self.case.value

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "case": self.case.value,
            "subcase": self.subcase,
            "label": self.label(),
            "independence_24": self.independence_24,
            "independence_25": self.independence_25,
            "trace": [{"check": c, "result": r} for c, r in self.trace],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())


def _check(trace: list[tuple[str, bool]], description: str, outcome: bool) -> bool:
    """Record one condition check in the trace and pass its outcome through."""
    trace.append((description, outcome))
    return outcome


def _primitive(g: int, m: int) -> bool:
    return root_type(g, m) is RootType.PRIMITIVE


def _semi_primitive(g: int, m: int) -> bool:
    return root_type(g, m) is RootType.SEMI_PRIMITIVE


_ONE_OF_EACH = ((RootType.PRIMITIVE, RootType.SEMI_PRIMITIVE), (RootType.SEMI_PRIMITIVE, RootType.PRIMITIVE))


def _mixed_roots(a: int, ma: int, b: int, mb: int) -> bool:
    """One of a mod ma and b mod mb is a primitive root, the other a semi-primitive one."""
    return (root_type(a, ma), root_type(b, mb)) in _ONE_OF_EACH


def _cross_primitive(trace: list[tuple[str, bool]], p1: int, m1: int, p2: int, m2: int) -> bool:
    """Check and record that p1 is a primitive root mod m2 and p2 one mod m1."""
    both = _primitive(p1, m2) and _primitive(p2, m1)
    return _check(trace, f"{p1} primitive root mod {m2} and {p2} primitive root mod {m1}", both)


def _pei_feng_sub_2(trace: list[tuple[str, bool]], p1: int, a1: int, case: str) -> str | None:
    """Shared sub-cases (X,1)/(X,2) of cases I and II: the role of 2 mod p1^a1."""
    m1 = p1 ** a1
    if _check(trace, f"2 is a primitive root mod {m1}", _primitive(2, m1)):
        return f"{case},1"
    semi = _check(trace, f"2 is a semi-primitive root mod {m1}", _semi_primitive(2, m1))
    return f"{case},2" if semi and _check(trace, f"{p1} = 3 (mod 4)", p1 % 4 == 3) else None


def _pei_feng(m: int, trace: list[tuple[str, bool]]) -> str | None:
    """The five-shape composite ladder on m; returns a subcase tag or None.

    Shapes (p odd primes, a >= 1): I: 4 p1^a1; II: 2^a0 p1^a1 with
    a0 >= 3; III: p1^a1 p2^a2; IV: 4 p1^a1 p2^a2; V: p1^a1 p2^a2 p3^a3.
    """
    fact = factorize(m)
    e0 = fact[0][1] if fact and fact[0][0] == 2 else 0
    odd = [(p, e) for p, e in fact if p != 2]

    if e0 == 2 and len(odd) == 1:
        (p1, a1), = odd
        _check(trace, f"shape I: {m} = 4 * {p1}^{a1}", True)
        return _pei_feng_sub_2(trace, p1, a1, "I")
    if e0 >= 3 and len(odd) == 1:
        (p1, a1), = odd
        m0 = 2 ** e0
        _check(trace, f"shape II: {m} = 2^{e0} * {p1}^{a1}", True)
        ord_ok = _check(trace, f"order of {p1} mod {m0} is 2^{e0 - 2}", mult_order(p1, m0) == 2 ** (e0 - 2))
        anti_ok = _check(trace, f"2^{e0 - 3} * {p1} is not -1 mod {m0}", (2 ** (e0 - 3) * p1) % m0 != m0 - 1)
        return _pei_feng_sub_2(trace, p1, a1, "II") if ord_ok and anti_ok else None
    if e0 == 0 and len(odd) == 2:
        (p1, a1), (p2, a2) = odd
        m1, m2 = p1 ** a1, p2 ** a2
        _check(trace, f"shape III: {m} = {p1}^{a1} * {p2}^{a2}", True)
        if not _check(trace, f"{p1} = {p2} = 3 (mod 4)", p1 % 4 == 3 and p2 % 4 == 3):
            return "III,2" if _cross_primitive(trace, p1, m1, p2, m2) else None
        # both-semi-primitive is impossible: order phi/2 forces a quadratic
        # residue, and reciprocity for a 3-mod-4 pair never yields two residues
        mixed = _mixed_roots(p1, m2, p2, m1)
        what = f"one of {p1},{p2} primitive mod the other's power, the other semi-primitive back"
        return "III,1" if _check(trace, what, mixed) else None
    if e0 == 2 and len(odd) == 2:
        (p1, a1), (p2, a2) = odd
        m1, m2 = p1 ** a1, p2 ** a2
        _check(trace, f"shape IV: {m} = 4 * {p1}^{a1} * {p2}^{a2}", True)
        if not _check(trace, f"gcd({p1}-1, {p2}-1) = 2", gcd(p1 - 1, p2 - 1) == 2):
            return None
        if not _check(trace, f"{p1} = {p2} = 3 (mod 4)", p1 % 4 == 3 and p2 % 4 == 3):
            # exactly one of the primes is 1 mod 4 (both 1 mod 4 fails the gcd test)
            mb = m1 if p1 % 4 == 3 else m2
            two_ok = _check(trace, f"2 is a primitive root mod {mb}", _primitive(2, mb))
            return "IV,2" if _cross_primitive(trace, p1, m1, p2, m2) and two_ok else None
        what = f"2 primitive mod one of {m1},{m2} and semi-primitive mod the other"
        two_split = _check(trace, what, _mixed_roots(2, m1, 2, m2))
        what = (f"one of {p1},{p2} primitive mod twice the other's power, "
                "the other semi-primitive mod twice the first's power")
        cross = _check(trace, what, _mixed_roots(p1, 2 * m2, p2, 2 * m1))
        return "IV,1" if two_split and cross else None
    if e0 == 0 and len(odd) == 3:
        primes = [p for p, _ in odd]
        powers = [p ** e for p, e in odd]
        _check(trace, f"shape V: {m} = {powers[0]} * {powers[1]} * {powers[2]}", True)
        if not _check(trace, "all three primes are 3 (mod 4)", all(p % 4 == 3 for p in primes)):
            return None
        halves = [(p - 1) // 2 for p in primes]
        coprime = all(gcd(halves[i], halves[j]) == 1 for i, j in ((0, 1), (0, 2), (1, 2)))
        if not _check(trace, "(p-1)/2 pairwise coprime across the three primes", coprime):
            return None
        # cyclic pattern: each prime primitive mod the next one's power,
        # which is semi-primitive back; both orientations allowed since
        # the labelling of the primes is arbitrary
        for orient, cycle in (("forward", (0, 1, 2, 0)), ("reverse", (0, 2, 1, 0))):
            ok = all(
                _primitive(primes[i], powers[j]) and _semi_primitive(primes[j], powers[i])
                for i, j in zip(cycle, cycle[1:])
            )
            if _check(trace, f"cyclic primitive/semi-primitive pattern ({orient})", ok):
                return "V,1"
        return None
    _check(trace, f"{m} matches one of the five composite shapes", False)
    return None


def classify_modulus(q: int) -> Classification:
    require_int(q, 2, "modulus must be an integer")
    trace: list[tuple[str, bool]] = []

    fact = factorize(q)
    if _check(trace, "q is a prime power", len(fact) == 1):
        return _finish(q, Case.PRIME_POWER, None, trace)
    if _check(trace, "q = 6", q == 6):
        return _finish(q, Case.Q_SIX, None, trace)

    if _check(trace, "q = 2 (mod 4)", q % 4 == 2):
        m = q // 2
        # m is odd, so only shapes III and V of the ladder can match it
        sub = _pei_feng(m, trace)
        if sub is not None:
            return _finish(q, Case.TWO_TIMES_PEI_FENG, sub.split(",")[0], trace)
        half_pp = len(factorize(m)) == 1
        if _check(trace, f"q/2 = {m} is an odd prime power", half_pp):
            return _finish(q, Case.TWO_PN_POWER, None, trace)
        return _finish(q, Case.UNCOVERED, None, trace)

    sub = _pei_feng(q, trace)
    if sub is not None:
        return _finish(q, Case.PEI_FENG, sub, trace)
    return _finish(q, Case.UNCOVERED, None, trace)


def _finish(q: int, case: Case, subcase: str | None, trace: list[tuple[str, bool]]) -> Classification:
    relations = relation_count(q)
    return Classification(
        q=q,
        case=case,
        subcase=subcase,
        independence_24=relations <= 1,
        independence_25=q == 6 or not (relations or has_log2_relation(q)),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Vanishing verdicts

class VerdictKind(enum.Enum):
    ZERO_IFF_ZERO_FUNCTION = "ZeroIffZeroFunction"
    ZERO_IFF_CONSTANT_ON_UNITS = "ZeroIffConstantOnUnits"
    ALWAYS_ZERO = "AlwaysZero"
    UNKNOWN = "Unknown"


#: Tags naming the criterion behind each non-Unknown verdict.
PRIME_POWER_CRITERION = "prime-power log-sine independence"
ONE_RELATION_CRITERION = "one log-sine relation, the all-ones one: independence for a >= 2"
Q6_DEGENERACY = "q = 6 degeneracy: the only half-support term is log 1"


@dataclass(frozen=True)
class VanishingVerdict:
    kind: VerdictKind
    applied_theorem: str | None
    numeric_residual: mpf | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "applied_theorem": self.applied_theorem,
            "numeric_residual": None
            if self.numeric_residual is None
            else nstr(self.numeric_residual, 15),
        }


def vanishing_verdict(q: int, f: PeriodicFunction, digits: int) -> VanishingVerdict:
    """What is provable about L'(0, f) for this period.

    Decided by the number of coset relations of q
    (``arith.relation_count``).  None (the prime powers): zero iff f is
    the zero function.  q = 6: always zero.  Exactly one, the
    all-ones relation: zero iff f is constant on the units.  More than
    one: Unknown, with |L'(0, f)| attached for relation hunting, from
    ``lseries.l_deriv0`` and so by the shorter of its two routes.
    """
    require_digits(digits)
    if f.q != q:
        raise ValidationError(f"function has period {f.q}, expected {q}")
    require_even_dirichlet(f)
    relations = relation_count(q)
    if not relations:
        return VanishingVerdict(VerdictKind.ZERO_IFF_ZERO_FUNCTION, PRIME_POWER_CRITERION)
    if q == 6:
        return VanishingVerdict(VerdictKind.ALWAYS_ZERO, Q6_DEGENERACY)
    if relations == 1:
        return VanishingVerdict(VerdictKind.ZERO_IFF_CONSTANT_ON_UNITS, ONE_RELATION_CRITERION)
    # the one abs at the caller's precision, not at prec_bits(d):
    # perfbench/workloads.py's _verdict_check takes its own abs at 53 bits
    # and compares the two, so this moves only with that check (ROADMAP
    # items 1-2)
    residual = abs(l_deriv0(f, digits))
    return VanishingVerdict(VerdictKind.UNKNOWN, None, numeric_residual=residual)
