"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and timings.  Criterion 9 checks the relations the finder
returns against the benchmark's exact oracle (``perfbench/oracle.py``):
for q = 155 the log-sine relation lattice has rank 6 (distribution
relations over the cosets of <5, -1> mod 31 and of <31, -1> mod 5,
provable from the factorization of 1 - z^p), and the finder returns a
12-term coset relation rather than the 30-term witness vector.  The
criterion asserts that the found relation and the witness both lie in
that exactly computed span, not that they are proportional.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
from mpmath import mp, mpf, nstr

from lprime.arith import character_half_sum, euler_phi, factorize
from lprime.classify import classify_modulus
from lprime.lseries import family_rank, l_deriv0_closed, l_deriv0_even, l_value
from lprime.numkernel import (
    hurwitz_zeta,
    hurwitz_zeta_ds,
    log_gamma_frac,
    prec_bits,
    two_sin_pi,
)
from lprime.periodic import PeriodicFunction, half_support
from lprime.relations import (
    build_witness,
    find_relation_for_modulus,
    log_sine_basis,
    pslq_relation,
    ramachandra_admissible,
    sine_identity_residual,
)
from tests.conftest import oracle, random_even_dirichlet

with mp.workprec(300):
    LOG_PHI_40 = mpf("0.4812118250596034474977589134243684231351843343856605196610181688")


def _report(n: int, label: str, started: float) -> None:
    print(f"ACCEPTANCE {n} PASS ({time.time() - started:.1f}s): {label}")


def coprime_grid(q_max):
    for q in range(1, q_max + 1):
        for a in range(1, q + 1):
            if gcd(a, q) == 1:
                yield q, a


def test_criterion_01_lerch_value_suite():
    t0 = time.time()
    bound = mpf(10) ** -45
    for q, a in coprime_grid(50):
        got = hurwitz_zeta(0, Fraction(a, q), 50)
        expected = mpf(q - 2 * a) / (2 * q)
        assert abs(got - expected) < bound, (q, a)
    _report(1, "zeta(0, a/q) = 1/2 - a/q for q <= 50 within 1e-45 at 50 digits", t0)


def test_criterion_02_lerch_derivative_cross_check():
    t0 = time.time()
    bound = mpf(10) ** -45
    half_log_2pi = mp.log(2 * mp.pi) / 2
    for q, a in coprime_grid(50):
        lhs = hurwitz_zeta_ds(0, Fraction(a, q), 50)
        rhs = log_gamma_frac(a, q, 50) - half_log_2pi
        assert abs(lhs - rhs) < bound, (q, a)
    _report(2, "zeta'(0, a/q) = log Gamma(a/q) - log(2 pi)/2, disjoint algorithms", t0)


def test_criterion_03_finite_difference_oracle():
    t0 = time.time()
    rng = random.Random(314159)
    h = Fraction(1, 10**10)
    qs = (5, 7, 9, 12)
    for i in range(20):
        q = qs[i % len(qs)]
        f = random_even_dirichlet(q, rng, allow_zero=False)
        closed = l_deriv0_closed(f, 60)
        central = (l_value(h, f, 60) - l_value(-h, f, 60)) / (2 * mpf(10) ** -10)
        assert abs(closed - central) < mpf(10) ** -15, (q, dict(f.values))
    _report(3, "closed-form L'(0,f) matches central difference at h=1e-10, d=60", t0)


def test_criterion_04_golden_ratio_value(golden_f5):
    t0 = time.time()
    value = l_deriv0_even(golden_f5, 50)
    assert abs(value - LOG_PHI_40) < mpf(10) ** -40
    _report(4, "q=5 character pattern gives L'(0,f) = log((1+sqrt 5)/2) to 40 digits", t0)


def test_criterion_05_sine_identity():
    t0 = time.time()
    bound = mpf(10) ** -45
    for q in (12, 15, 21, 45, 155):
        assert abs(sine_identity_residual(q, 50)) < bound, q
    for q in (3, 4, 9, 25, 27):
        p = factorize(q)[0][0]
        assert abs(sine_identity_residual(q, 50) - mp.log(p)) < bound, q
    _report(5, "sine product identity: 0 for composite, log p for prime powers", t0)


def test_criterion_06_q6_degeneracy():
    t0 = time.time()
    rng = random.Random(6)
    bound = mpf(10) ** -45
    for _ in range(10):
        f = random_even_dirichlet(6, rng)
        assert abs(l_deriv0_even(f, 50)) < bound
        assert abs(l_deriv0_closed(f, 50)) < bound
    _report(6, "L'(0,f) = 0 within 1e-45 for 10 random even Dirichlet f mod 6", t0)


def test_criterion_07_classifier_table():
    t0 = time.time()
    expected = {
        9: "PrimePower",
        6: "QSix",
        12: "PeiFeng(I,1)",
        45: "PeiFeng(III,2)",
        90: "TwoTimesPeiFeng(III)",
        10: "TwoPNPower",
        155: "Uncovered",
    }
    for q, label in expected.items():
        cls = classify_modulus(q)
        assert cls.label() == label, (q, cls.label())
        assert all(isinstance(c, str) and isinstance(r, bool) for c, r in cls.trace)
    # the condition behind each non-trivial verdict, from the primitives
    from lprime.arith import RootType, mult_order, root_type

    assert mult_order(2, 3) == 2 == euler_phi(3)          # 12 -> (I,1)
    assert root_type(3, 5) is RootType.PRIMITIVE          # 45 -> (III,2)
    assert root_type(5, 9) is RootType.PRIMITIVE
    assert mult_order(5, 31) == 3 != euler_phi(31)        # 155 -> Uncovered
    _report(7, "classifier matches hand-derived verdicts with reproducible traces", t0)


def test_criterion_08_witness_program():
    t0 = time.time()
    bound = mpf(10) ** -90
    for q in (55, 155):
        wit = build_witness(q, 0, 100)
        assert character_half_sum(wit.chi) == -1
        assert wit.residual < bound, (
            f"witness residual for q={q} is {nstr(wit.residual, 10)}, "
            f"NOT below 1e-90: the vanishing claim failed numerically"
        )
    _report(8, "witnesses for q=55,155: residual < 1e-90 at 100 digits, half sum -1", t0)


# Rank of the span of the distribution relations.  Counting the even characters
# whose log-sine sum vanishes gives the same ranks independently.
DISTRIBUTION_RANK = {55: 2, 155: 6}


def test_criterion_09_relation_finder_positive():
    t0 = time.time()
    for q in (55, 155):
        rel = find_relation_for_modulus(q, 4, 120)
        assert rel is not None, f"no relation found for q={q}"
        assert rel.verified_at_2d
        assert rel.residual_at_2d < mpf(10) ** -230, (
            f"q={q}: residual at 240 digits is {nstr(rel.residual_at_2d, 10)}"
        )
        wit = build_witness(q, 0, 60)
        witness_vec = [int(v) for _, v in half_support(wit.f)]
        found_vec = [rel.coefficients.get(a, 0) for a in oracle.half_support(q)]
        if q == 55:
            assert oracle.exact_rank([found_vec, witness_vec]) == 1, (
                f"q={q}: the verified relation found (support "
                f"{sorted(rel.coefficients)}) is not proportional to the witness "
                f"vector (support {sorted(a for a, v in half_support(wit.f) if v)}); "
                "the relation lattice has rank > 1 and the detector returned a "
                "shorter genuine relation"
            )

        check = log_sine_basis(q, 240)
        assert [a for a, _ in check.entries] == oracle.half_support(q)
        lattice = oracle.distribution_relations(q)
        with mp.workprec(prec_bits(240)):
            for vec in lattice:
                resid = abs(mp.fsum(c * v for c, (_, v) in zip(vec, check.entries)))
                assert resid < mpf(10) ** -230, (
                    f"q={q}: oracle relation {vec} has residual {nstr(resid, 10)} at 240 digits"
                )
        rank = oracle.exact_rank(lattice)
        assert rank == DISTRIBUTION_RANK[q], (q, rank)
        assert oracle.exact_rank(lattice + [found_vec]) == rank, (
            f"q={q}: the found relation (support {sorted(rel.coefficients)}) is "
            "not in the span of the distribution relations"
        )
        assert oracle.exact_rank(lattice + [witness_vec]) == rank, (
            f"q={q}: the witness vector is not in the span of the distribution relations"
        )
        # negative control: log(2 sin(pi/q)) alone is no relation, so the
        # membership test above can fail
        single = [int(a == 1) for a, _ in check.entries]
        assert oracle.exact_rank(lattice + [single]) == rank + 1, q
    _report(9, "finder relations for q=55,155 verified at 240 digits, in the exact "
               "distribution-relation span (rank 2, 6)", t0)


def test_criterion_10_relation_finder_negative_control():
    t0 = time.time()
    for q in (9, 11, 13, 25):
        assert find_relation_for_modulus(q, 10**6, 100) is None, q
    _report(10, "no relations for prime powers q=9,11,13,25 at maxcoeff 1e6", t0)


def test_criterion_11_rank_criterion():
    t0 = time.time()
    ind = [PeriodicFunction(q=9, values={a: 1, 9 - a: 1}) for a in (1, 2, 4)]
    res = family_rank(ind)
    assert res.rank == 3 and res.independent

    f = ind[0]
    two_f = PeriodicFunction(q=9, values={1: 2, 8: 2})
    g = ind[1]
    res2 = family_rank([f, two_f, g])
    assert res2.rank == 2 and not res2.independent
    assert res2.certificate is not None
    pairing = sum(
        c * l_deriv0_even(h, 50) for c, h in zip(res2.certificate, [f, two_f, g])
    )
    assert abs(pairing) < mpf(10) ** -45
    _report(11, "rank criterion: indicators independent, {f,2f,g} rank 2 + certificate", t0)


def test_criterion_12_pslq_sanity():
    t0 = time.time()
    with mp.workprec(prec_bits(50)):
        pair_dependent = [mp.log(2), mp.log(4)]
        pair_independent = [mp.log(2), mp.log(3)]
    assert pslq_relation(pair_dependent, 10**6, 50) == [2, -1]
    with mp.workprec(prec_bits(120)):
        resid = abs(2 * mp.log(2) - mp.log(4))
    assert resid < mpf(10) ** -110
    assert pslq_relation(pair_independent, 10**6, 50) is None
    _report(12, "(log 2, log 4) -> (2, -1); (log 2, log 3) -> none at maxcoeff 1e6", t0)

