"""L-series evaluation tests: value, derivative, closed forms, exact rank,
and the precision contract under threads and ambient precisions."""

import concurrent.futures
import json
import sys
from fractions import Fraction
from math import gcd, lcm
from time import perf_counter

import pytest
from mpmath import mp, mpf, nstr
from mpmath.ctx_mp import MPContext

from lprime import lseries, numkernel
from lprime.cli import run
from lprime.classify import vanishing_verdict
from lprime.errors import PoleError, ValidationError
from lprime.lseries import (
    family_rank,
    l_deriv,
    l_deriv0,
    l_deriv0_closed,
    l_deriv0_even,
    l_value,
    l_value2,
    l_value2_even,
)
from lprime.numkernel import (
    hurwitz_zeta,
    hurwitz_zeta_ds,
    log2_const,
    log_gamma_frac,
    log_sine_sum,
    pi_const,
    prec_bits,
    two_sin_pi,
    two_sines,
)
from lprime.periodic import PeriodicFunction, constant_on_units, half_support
from lprime.relations import (
    build_witness,
    find_integer_relation,
    find_relation_for_modulus,
    log_sine_basis,
    pslq_relation,
    sine_identity_residual,
)
from tests.conftest import oracle, random_even_dirichlet

with mp.workprec(300):
    PI2_OVER_6 = mpf("1.6449340668482264364724151666460251892189499012067984377355582294")
    LOG_PHI = mpf("0.48121182505960344749775891342436842313518433438566051966101816884")


def tol(d, slack=5):
    return mpf(10) ** (-(d - slack))


# ---------------------------------------------------------------------------
# L(s, f)

def test_l_value_basel():
    one = PeriodicFunction(q=1, values={1: 1})
    assert abs(l_value(2, one, 50) - PI2_OVER_6) < tol(50)


def test_l_value_zero_function():
    zero7 = PeriodicFunction(q=7, values={})
    assert l_value(2, zero7, 50) == 0
    assert l_value(Fraction(1, 3), PeriodicFunction(q=7, values={3: 0}), 50) == 0


def test_l_value_partial_sum_oracle():
    # direct Dirichlet-series summation at s = 3 with integral tail estimate
    f = PeriodicFunction(q=4, values={1: 1, 3: -1})
    d = 12
    with mp.workprec(200):
        partial = mp.fsum(mpf(int(f(n))) / n**3 for n in range(1, 40_001))
    assert abs(l_value(3, f, d) - partial) < mpf(10) ** -9

    g = PeriodicFunction(q=4, values={1: 1, 3: 1})
    with mp.workprec(200):
        partial_g = mp.fsum(mpf(int(g(n))) / n**3 for n in range(1, 40_001))
        tail_g = mpf(1) / (2 * 16 * 10**8)  # ~ integral of 2/(x^3 * period)
    assert abs(l_value(3, g, d) - partial_g) < 2 * tail_g + mpf(10) ** -9


def test_l_value_mpmath_oracle(rng):
    # random even Dirichlet-type f; every rational head route at 50 and 240
    # digits, on such an f, on one with support on non-units and on a = q,
    # and on a sparse one, whose head takes a root per term instead of the
    # sieve; s as a float and as an mpf, whose dyadic values take powers;
    # the periods 1 and 2; even f on one to three residue pairs of
    # q = 1000 and 10^5, and a dense f of q = 24 at 240 digits.  L'(s, f)
    # on a subset: the random, non-unit and sparse f at 50 and 240 digits,
    # and the f of q = 10^5, against q^(-s) sum f(a) (zeta'(s, a/q) -
    # log(q) zeta(s, a/q)), relative where |L'| > 1
    non_units = PeriodicFunction(q=12, values={2: 3, 3: Fraction(-1, 2), 5: 1, 6: 2, 8: -1, 12: Fraction(5, 3)})
    sparse = PeriodicFunction(q=97, values={5: 2, 97: Fraction(-1, 3)})
    cases = [(random_even_dirichlet(rng.randint(2, 20), rng), rng.choice([2, 3, Fraction(1, 2)]), 40)
             for _ in range(8)]
    derivative_cases = []
    for d in (50, 240):
        for s in (Fraction(-15, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(7, 2), Fraction(13, 3)):
            cases += [(random_even_dirichlet(rng.randint(3, 20 if d == 50 else 10), rng), s, d),
                      (non_units, s, d), (sparse, s, d)]
            if (d, s) in ((50, Fraction(-15, 2)), (50, Fraction(13, 3)), (240, Fraction(7, 2))):
                derivative_cases += cases[-3:]
    with mp.workprec(prec_bits(60)):
        third = mpf(1) / 3
    for s in (0.3, third):
        cases += [(random_even_dirichlet(rng.randint(3, 20), rng), s, 50), (non_units, s, 50), (sparse, s, 50)]
    for s in (Fraction(-1, 2), Fraction(3, 4), 2):
        cases += [(PeriodicFunction(q=1, values={1: Fraction(-7, 3)}), s, 50),
                  (PeriodicFunction(q=2, values={1: 1, 2: Fraction(-5, 2)}), s, 50)]
    for f in _sparse_even(rng):
        cases += [(f, s, 50) for s in (Fraction(-1, 2), Fraction(1, 3), 2, Fraction(7, 2))]
        if f.q == 10**5:
            derivative_cases.append((f, Fraction(1, 3), 50))
    dense = random_even_dirichlet(24, rng, allow_zero=False)
    cases += [(dense, s, 240) for s in (Fraction(-15, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(7, 2))]
    for f, s, d in cases:
        mine = l_value(s, f, d)
        with mp.workprec(prec_bits(d) + 60):
            sm = mpf(s.numerator) / s.denominator if isinstance(s, Fraction) else mpf(s)
            ref = mp.power(f.q, -sm) * mp.fsum(
                (mpf(v.numerator) / v.denominator) * mp.zeta(sm, mpf(a) / f.q)
                for a, v in f.values.items()
            )
        assert abs(mine - ref) < tol(d), (f, s, d)
    for f, s, d in derivative_cases:
        mine = l_deriv(s, f, d)
        with mp.workprec(prec_bits(d) + 60):
            sm, log_q = mpf(s.numerator) / s.denominator, mp.log(f.q)
            ref = mp.power(f.q, -sm) * mp.fsum(
                (mpf(v.numerator) / v.denominator) * (mp.zeta(sm, mpf(a) / f.q, 1) - log_q * mp.zeta(sm, mpf(a) / f.q))
                for a, v in f.values.items()
            )
        assert abs(mine - ref) < tol(d) * max(1, abs(ref)), (f, s, d)


def _sparse_even(rng):
    """Even Dirichlet-type f on one, two and three residue pairs of q = 1000 and q = 10^5."""
    out = []
    for q in (1000, 10**5):
        units = [a for a in range(1, q // 2) if gcd(a, q) == 1]
        for pairs in (1, 2, 3):
            values = {}
            for a in rng.sample(units, pairs):
                values[a] = values[q - a] = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))
            out.append(PeriodicFunction(q=q, values=values))
    return out


def test_non_finite_s_rejected(golden_f5):
    for s in (float("nan"), float("inf"), float("-inf"), mpf("nan")):
        for fn in (l_value, l_deriv):
            with pytest.raises(ValidationError):
                fn(s, golden_f5, 20)


@pytest.mark.parametrize("s", ["2", None, True, False, 2j, [2]],
                         ids=["str", "none", "true", "false", "complex", "list"])
@pytest.mark.parametrize("fn", [l_value, l_deriv])
def test_non_real_s_rejected(fn, s, golden_f5):
    # s is an int that is not a bool, a float, a Fraction or an mpf: True is not s = 1
    with pytest.raises(ValidationError, match="s must be a real number"):
        fn(s, golden_f5, 20)


def test_l_value_near_pole_against_mpmath():
    # s - 1 = 10^-60 is below the resolution of 20 digits: the exact s
    # reaches the kernel, so L keeps its mean(f)/(s - 1) size
    f = PeriodicFunction(q=5, values={1: 1, 4: 1})
    s, d = Fraction(10**60 + 1, 10**60), 20
    with mp.workdps(300):
        sm = 1 + mpf(10) ** -60
        ref = mp.power(5, -sm) * (mp.zeta(sm, mpf(1) / 5) + mp.zeta(sm, mpf(4) / 5))
    assert abs(l_value(s, f, d) / ref - 1) < tol(d)


def test_l_value_pole():
    f = constant_on_units(5, 1)
    with pytest.raises(PoleError):
        l_value(1, f, 50)
    with pytest.raises(PoleError):
        l_deriv(1, f, 50)


@pytest.mark.parametrize("k", (20, 400))
def test_large_values_keep_the_contract(k):
    # f = 10^k on the units of q = 12 has L'(0, f) = 0 exactly, since
    # 2 sin(pi/12) 2 sin(5 pi/12) = 1.  The error bounds of both series
    # routes scale with sum |f(a)|, so they work at that many more digits
    # and stay within 10^(-d+5) of 0
    f, d = constant_on_units(12, 10**k), 20
    assert abs(l_deriv(0, f, d)) < mpf(10) ** -15
    assert abs(l_deriv0_even(f, d)) < mpf(10) ** -15
    assert abs(l_deriv0_closed(f, d)) < mpf(10) ** -15


def _closed_form_reference(f, d):
    """L'(0, f) by mpmath's loggamma at d + 40 digits."""
    q, values = f.q, f.values
    first = sum(c * (Fraction(1, 2) - Fraction(a, q)) for a, c in values.items())
    total = sum(values.values())
    with mp.workdps(d + 40):
        return (mp.fsum(mpf(c.numerator) / c.denominator * mp.loggamma(mpf(a) / q) for a, c in values.items())
                - mp.log(q) * mpf(first.numerator) / first.denominator
                - mp.log(2 * mp.pi) * mpf(total.numerator) / (2 * total.denominator))


@pytest.mark.parametrize("d", (30, 120))
def test_l_deriv0_closed_working_digits_against_mpmath(d):
    # the closed form works at the _working_digits of its bound
    # 4 W (1 + log q), W = sum |f(a)|: e = 0 below 10^13, as for the small
    # W, and more digits for the dense f of values about 10^11 at q = 97
    # (4 W (1 + log q) about 10^15) and for f = 10^20 on the units of
    # q = 12, whose value 0 cancels terms of size 10^21
    functions = [
        constant_on_units(12, 10**20),
        PeriodicFunction(q=97, values={a: 10**11 * (a % 7 - 3) + a for a in range(1, 98)}),
        PeriodicFunction(q=7, values={1: 1, 2: Fraction(1, 2), 5: -1}),
    ]
    for f in functions:
        ref = _closed_form_reference(f, d)
        assert abs(l_deriv0_closed(f, d) - ref) < tol(d) * max(1, abs(ref)), (f.q, d)


class SeriesCalled(Exception):
    pass


def test_reference_routes_share_no_integer_series(monkeypatch):
    # the closed form and log Gamma run none of the Euler-Maclaurin code:
    # with its tail, tables, integer log and Bernoulli numbers broken they
    # still agree with mpmath, and the series route of l_deriv fails
    def broken(*args):
        raise SeriesCalled

    for name in ("_bernoulli_tails", "_em_table", "_fixed_log", "bernoulli"):
        monkeypatch.setattr(numkernel, name, broken)
    # odd, even, not Dirichlet type, and the periods 1 and 2
    functions = [
        PeriodicFunction(q=7, values={1: 1, 2: 3, 5: -3, 6: -1}),
        PeriodicFunction(q=5, values={1: 1, 2: -1, 3: -1, 4: 1}),
        PeriodicFunction(q=12, values={2: Fraction(1, 3), 6: -2, 7: 1, 12: 5}),
        PeriodicFunction(q=1, values={1: 2}),
        PeriodicFunction(q=2, values={1: 1, 2: Fraction(-1, 2)}),
    ]
    for d in (20, 120):
        for f in functions:
            q = f.q
            with mp.workprec(prec_bits(d) + 40):
                ref = (mp.fsum(c * mp.loggamma(mpf(a) / q) for a, c in f.values.items())
                       - mp.log(q) * sum(c * (Fraction(1, 2) - Fraction(a, q)) for a, c in f.values.items())
                       - mp.log(2 * mp.pi) / 2 * sum(f.values.values()))
            assert abs(l_deriv0_closed(f, d) - ref) < tol(d), (q, d)
            for a in f.values:
                with mp.workprec(prec_bits(d) + 40):
                    ref = mp.loggamma(mpf(a) / q)
                assert abs(log_gamma_frac(a, q, d) - ref) < tol(d), (a, q, d)
        with pytest.raises(SeriesCalled):
            l_deriv(0, functions[1], d)


# ---------------------------------------------------------------------------
# L'(0, f) routes

def test_l_deriv_zero_function():
    assert l_deriv(0, PeriodicFunction(q=5, values={}), 50) == 0


def test_l_deriv_matches_closed_form_random(rng):
    # holds for arbitrary periodic f, not only even Dirichlet-type ones
    d = 30
    for _ in range(6):
        q = rng.randint(2, 15)
        values = {a: Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for a in range(1, q + 1)}
        f = PeriodicFunction(q=q, values=values)
        assert abs(l_deriv(0, f, d) - l_deriv0_closed(f, d)) < tol(d)


def test_golden_ratio_value(golden_f5):
    for route in (l_deriv0_closed, l_deriv0_even):
        assert abs(route(golden_f5, 50) - LOG_PHI) < tol(50)
    assert abs(l_deriv(0, golden_f5, 50) - LOG_PHI) < tol(50)


def test_q6_degeneracy(rng):
    for _ in range(5):
        f = random_even_dirichlet(6, rng)
        assert abs(l_deriv0_even(f, 50)) < tol(50)
        assert abs(l_deriv0_closed(f, 50)) < tol(50)


def test_three_way_agreement(rng):
    d = 30
    for f in [random_even_dirichlet(q, rng) for q in range(3, 51)] + _sparse_even(rng):
        a = l_deriv(0, f, d)
        b = l_deriv0_closed(f, d)
        c = l_deriv0_even(f, d)
        assert abs(a - b) < tol(d)
        assert abs(b - c) < tol(d)


def test_finite_difference_oracle(rng):
    h = Fraction(1, 10**10)
    for q in (5, 9):
        f = random_even_dirichlet(q, rng, allow_zero=False)
        closed = l_deriv0_closed(f, 60)
        with mp.workprec(prec_bits(60) + 40):
            central = (l_value(h, f, 60) - l_value(-h, f, 60)) / (2 * mpf(10) ** -10)
        assert abs(closed - central) < mpf(10) ** -15


def test_first_term_cancellation_exact(rng):
    # sum f(a) (1/2 - a/q) vanishes in exact rational arithmetic
    for q in (5, 12, 45):
        f = random_even_dirichlet(q, rng)
        total = sum(v * (Fraction(1, 2) - Fraction(a, q)) for a, v in f.values.items())
        assert total == 0


def test_l_deriv0_even_is_the_negated_half_support_sum(rng):
    # one negation per distinct value leaves every bit of the log-sine sum
    for q in (3, 12, 45, 105, 256, 697):
        for d in (20, 60):
            f = random_even_dirichlet(q, rng)
            parsed = PeriodicFunction.loads(f.dumps())  # residues share one object per value string
            distinct = PeriodicFunction(q=q, values={a: Fraction(v.numerator, v.denominator)
                                                     for a, v in f.values.items()})
            expected = log_sine_sum(q, [(a, -v) for a, v in half_support(f)], d)._mpf_
            for g in (f, parsed, distinct):
                assert l_deriv0_even(g, d)._mpf_ == expected, (q, d)


def test_l_deriv0_even_requires_even_dirichlet():
    with pytest.raises(ValidationError):
        l_deriv0_even(PeriodicFunction(q=5, values={1: 1}), 50)


def test_l_deriv0_even_rejects_tiny_period():
    with pytest.raises(ValidationError):
        l_deriv0_even(PeriodicFunction(q=2, values={1: 1}), 50)


def test_tiny_period_closed_form_still_works():
    # q = 2: L'(0, f) = -(f(1)/2) log 2, where the half-support route
    # would double-count the self-paired residue
    f = PeriodicFunction(q=2, values={1: 1})
    with mp.workprec(300):
        expected = -mp.ln2 / 2
    assert abs(l_deriv0_closed(f, 50) - expected) < tol(50)
    assert abs(l_deriv(0, f, 50) - expected) < tol(50)


@pytest.fixture
def routes_taken(monkeypatch):
    """The names of the routes that ``l_deriv0`` calls, in order."""
    taken = []
    for name in ("l_deriv0_even", "l_deriv"):
        route = getattr(lseries, name)
        monkeypatch.setattr(lseries, name, lambda *args, name=name, route=route: taken.append(name) or route(*args))
    return taken


def test_eval_s0_reads_the_log_sine_sum_for_a_dense_even_f(rng, tmp_path, capsys, routes_taken):
    # the seed-1 shape of the benchmark: a dense even f at q = 41, 240 digits
    f, d = random_even_dirichlet(41, rng, allow_zero=False), 240
    path = tmp_path / "f.json"
    path.write_text(f.dumps())
    assert run(["eval", "--fn", str(path), "--s", "0", "--digits", str(d), "--output", "json"]) == 0
    assert routes_taken == ["l_deriv0_even"]
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "ClosedForm0"
    assert report["value"] == nstr(l_deriv0_even(f, d), d)


def test_l_deriv0_takes_the_series_for_a_sparse_f_at_a_large_period(routes_taken):
    # the walk would take q // 2 = 500001 steps for one residue, the
    # series' head N for each of two
    q, d = 10**6 + 3, 50
    f = PeriodicFunction(q=q, values={1: 1, q - 1: 1})
    start = perf_counter()
    value = l_deriv0(f, d)
    assert perf_counter() - start < 1
    assert routes_taken == ["l_deriv"]
    with mp.workprec(prec_bits(d) + 40):
        ref = -mp.log(2 * mp.sin(mp.pi / q))
    assert abs(value - ref) < tol(d)


@pytest.mark.parametrize("f", [
    PeriodicFunction(q=7, values={1: 1, 2: 3, 5: -3, 6: -1}),
    PeriodicFunction(q=12, values={2: 1, 10: 1, 5: 3, 7: 3}),
    PeriodicFunction(q=2, values={1: 1}),
], ids=("odd", "not-dirichlet", "q2"))
def test_l_deriv0_takes_the_series_off_the_half_support(f, routes_taken):
    value = l_deriv0(f, 50)
    assert routes_taken == ["l_deriv"]
    assert value == l_deriv(0, f, 50)


@pytest.mark.parametrize("q, route", [(3, "l_deriv0_even"), (21, "l_deriv0_even"), (23, "l_deriv")])
def test_l_deriv0_walk_against_head(q, route, routes_taken):
    # at 10 digits N = 10, so f on 1 and q - 1 has a head of 10 terms per
    # residue and one residue in its half support: q = 21 walks 10 steps
    # and q = 23 would walk 11
    d = 10
    assert numkernel._em_first_shift(d) == 10
    value = l_deriv0(PeriodicFunction(q=q, values={1: 1, q - 1: 1}), d)
    assert routes_taken == [route]
    with mp.workprec(prec_bits(d) + 40):
        ref = -mp.log(2 * mp.sin(mp.pi / q))
    assert abs(value - ref) < tol(d)


@pytest.fixture
def value_routes_taken(monkeypatch):
    """The names of the routes that ``l_value2`` calls, in order."""
    taken = []
    for name in ("l_value2_even", "l_value"):
        route = getattr(lseries, name)
        monkeypatch.setattr(lseries, name, lambda *args, name=name, route=route: taken.append(name) or route(*args))
    return taken


def test_eval_s2_reads_the_csc2_sum_for_a_dense_even_f(rng, tmp_path, capsys, value_routes_taken):
    # a dense even f at q = 41, 240 digits, and a dense even f of no
    # Dirichlet type with f(q/2) and f(q) not 0: the report keeps its label
    for f, d in [(random_even_dirichlet(41, rng, allow_zero=False), 240),
                 (PeriodicFunction(q=12, values={1: 2, 2: -1, 3: 5, 4: 1, 6: Fraction(7, 3), 8: 1, 9: 5,
                                                 10: -1, 11: 2, 12: -4}), 50)]:
        value_routes_taken.clear()
        path = tmp_path / "f.json"
        path.write_text(f.dumps())
        assert run(["eval", "--fn", str(path), "--s", "2", "--digits", str(d), "--output", "json"]) == 0
        assert value_routes_taken == ["l_value2_even"]
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "HurwitzSum"
        assert report["value"] == nstr(l_value2_even(f, d), d)
        assert abs(l_value2_even(f, d) - l_value(2, f, d)) < tol(d)


def test_l_value2_takes_the_series_for_a_sparse_f_at_a_large_period(value_routes_taken):
    q, d = 10**6 + 3, 50
    f = PeriodicFunction(q=q, values={1: 1, q - 1: 1})
    start = perf_counter()
    value = l_value2(f, d)
    assert perf_counter() - start < 1
    assert value_routes_taken == ["l_value"]
    with mp.workprec(prec_bits(d) + 40):
        ref = (mp.zeta(2, mpf(1) / q) + mp.zeta(2, mpf(q - 1) / q)) / q**2
    assert abs(value - ref) < tol(d)


@pytest.mark.parametrize("f", [
    PeriodicFunction(q=7, values={1: 1, 2: 3, 5: -3, 6: -1}),
    PeriodicFunction(q=2, values={1: 1, 2: 3}),
    PeriodicFunction(q=1, values={1: 1}),
], ids=("odd", "q2", "q1"))
def test_l_value2_takes_the_series_for_odd_f_and_periods_below_3(f, value_routes_taken):
    value = l_value2(f, 50)
    assert value_routes_taken == ["l_value"]
    assert value == l_value(2, f, 50)
    with pytest.raises(ValidationError):
        l_value2_even(f, 50)


@pytest.mark.parametrize("q, route", [(3, "l_value2_even"), (21, "l_value2_even"), (23, "l_value"),
                                      (20, "l_value2_even")])
def test_l_value2_walk_against_head(q, route, value_routes_taken):
    # the rule of l_deriv0 without its Dirichlet condition: at 10 digits
    # N = 10, and f on 1 and q - 1 (and q for q = 20) walks q // 2 steps
    d = 10
    values = {1: 1, q - 1: 1, **({q: 5} if q == 20 else {})}
    value = l_value2(PeriodicFunction(q=q, values=values), d)
    assert value_routes_taken == [route]
    with mp.workprec(prec_bits(d) + 40):
        ref = sum(c * mp.zeta(2, mpf(a) / q) for a, c in values.items()) / q**2
    assert abs(value - ref) < tol(d)


# ---------------------------------------------------------------------------
# family_rank

def _indicator(q, a):
    return PeriodicFunction(q=q, values={a: 1, q - a: 1})


def test_family_rank_indicators_independent():
    fs = [_indicator(9, a) for a in (1, 2, 4)]
    res = family_rank(fs)
    assert res.rank == 3 and res.independent and res.certificate is None


def test_family_rank_scalar_multiple():
    f = _indicator(9, 1)
    two_f = PeriodicFunction(q=9, values={1: 2, 8: 2})
    res = family_rank([f, two_f])
    assert res.rank == 1 and not res.independent
    assert res.certificate == [2, -1]


def test_family_rank_zero_function():
    res = family_rank([PeriodicFunction(q=9, values={})])
    assert res.rank == 0 and not res.independent
    assert res.certificate == [1]


def test_family_rank_certificate_numeric(rng):
    f = _indicator(9, 1)
    g = _indicator(9, 2)
    mix = PeriodicFunction(q=9, values={1: 3, 8: 3, 2: -2, 7: -2})
    res = family_rank([f, g, mix])
    assert res.rank == 2 and res.certificate is not None
    combo = sum(c * l_deriv0_even(h, 50) for c, h in zip(res.certificate, [f, g, mix]))
    assert abs(combo) < tol(50)


def _even(q, half):
    """The even function mod q with the values ``half`` on a <= q/2 and their mirrors."""
    values = {}
    for a, c in half.items():
        values[a] = values[q - a] = Fraction(c)
    return PeriodicFunction(q=q, values=values)


def test_family_rank_certificates_of_fixed_families():
    # the certificate is read from the combination part of the first row
    # whose value part vanishes, whatever dependent rows follow
    f1 = _even(13, {a: 1 for a in range(1, 7)})
    f2 = _even(13, {1: 2, 3: -1, 4: Fraction(1, 2)})
    f3 = _even(13, {1: 4, 2: 2, 3: 1, 4: Fraction(5, 2), 5: 2, 6: 2})  # 2 f1 + f2
    f4 = _even(13, {2: 5})
    g1 = _even(27, {1: Fraction(1, 3), 2: -1})
    g2 = _even(27, {4: 2, 5: Fraction(-2, 7)})
    g3 = _even(27, {1: Fraction(2, 3), 2: -2, 4: -6, 5: Fraction(6, 7)})  # 2 g1 - 3 g2
    for fs, rank, certificate in [([f1, f2, f3], 2, [2, 1, -1]), ([f1, f2, f4, f3, f1], 3, [2, 1, 0, -1, 0]),
                                  ([f2, f4, f1, f2, f3], 3, [1, 0, 0, -1, 0]), ([g1, g2, g3], 2, [2, -3, -1])]:
        res = family_rank(fs)
        assert (res.rank, res.independent, res.certificate) == (rank, False, certificate)
        assert res.to_json_dict() == {"rank": rank, "independent": False, "certificate": certificate}


def _combination(q, terms):
    return PeriodicFunction(q=q, values={a: sum(c * g(a) for c, g in terms) for a in range(1, q + 1)})


@pytest.mark.parametrize("q", [7, 9, 16, 25, 27, 49])
def test_family_rank_against_sympy(q, rng):
    f, g, h, k = (random_even_dirichlet(q, rng, allow_zero=False) for _ in range(4))
    zero = PeriodicFunction(q=q, values={})
    families = {  # name -> (family, nullity)
        "independent": ([f, g, h], 0),
        "one dependent": ([f, g, _combination(q, [(2, f), (Fraction(-1, 3), g)]), h], 1),
        "nullity 2": ([f, _combination(q, [(3, f)]), g, _combination(q, [(1, f), (-5, g)]), h], 2),
        "zero first": ([zero, f, g], 1),
        "repeated": ([f, g, f, k], 1),
    }
    columns = oracle.half_support(q)
    for name, (fs, nullity) in families.items():
        res = family_rank(fs)
        rows = [[fn(a) for a in columns] for fn in fs]
        rank = oracle.sympy_rank(rows)
        assert res.rank == rank == len(fs) - nullity, name
        assert res.independent == (rank == len(fs)), name
        assert (res.certificate is None) == res.independent, name
        if res.independent:
            continue
        cert = res.certificate
        assert all(sum(c * fn(a) for c, fn in zip(cert, fs)) == 0 for a in range(1, q + 1)), name
        assert gcd(*cert) == 1 and next(c for c in cert if c) > 0, name
        # the certificate expresses the first dependent function through the
        # independent ones before it, so it is zero after that index
        first = next(j for j in range(len(fs)) if oracle.sympy_rank(rows[:j + 1]) <= j)
        assert cert[first] != 0 and not any(cert[first + 1:]), name


#: Pairwise coprime denominators near 10^6 (the primes below it), and 1.
_LARGE_DENOMINATORS = (999983, 999979, 999961, 999959, 999953, 999931, 999917, 999907, 1)


def _large_even_dirichlet(q, rng, pool_size):
    """Even Dirichlet-type f mod q, each value one of ``pool_size`` draws k/p,
    |k| <= 10^20 and p in _LARGE_DENOMINATORS."""
    pool = [Fraction(rng.randint(-10**20, 10**20), rng.choice(_LARGE_DENOMINATORS))
            for _ in range(pool_size)]
    values = {}
    for a in oracle.half_support(q):
        values[a] = values[q - a] = rng.choice(pool)
    return PeriodicFunction(q=q, values=values)


def _primitive(vec):
    """The rational vector scaled to coprime integers, first non-zero entry positive."""
    vec = [Fraction(v) for v in vec]
    den = lcm(*(v.denominator for v in vec))
    ints = [int(v * den) for v in vec]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


@pytest.mark.parametrize("q", [49, 121, 128, 343])
def test_family_rank_large_values(q, rng):
    # sizes and magnitudes the census never reaches: up to 147 columns, values
    # k/p with |k| up to 10^20 over pairwise coprime p near 10^6
    f, g, h = (_large_even_dirichlet(q, rng, pool_size=q) for _ in range(3))
    c = (Fraction(10**20 + 39, 999983), Fraction(-7 * 10**12, 999979 * 3), Fraction(5, 11))
    mix = _combination(q, [(c[0], f), (c[1], g), (c[2], h)])
    k = Fraction(-10**19 - 3, 999961)
    scaled = _combination(q, [(k, g)])
    # few distinct value strings, so parsed residues share their Fractions
    r, s, t = (_large_even_dirichlet(q, rng, pool_size=3) for _ in range(3))
    parsed = [PeriodicFunction.loads(fn.dumps())
              for fn in (r, s, t, _combination(q, [(c[0], r), (c[1], s), (c[2], t)]))]
    families = {  # name -> (family, expected certificate)
        "independent": ([f, g, h], None),
        "combination": ([f, g, h, mix], _primitive([*c, -1])),
        "scaled early": ([f, g, scaled, h], _primitive([0, k, -1, 0])),
        "parsed": (parsed, _primitive([*c, -1])),
    }
    columns = oracle.half_support(q)
    for name, (fs, certificate) in families.items():
        res = family_rank(fs)
        rank = oracle.sympy_rank([[fn(a) for a in columns] for fn in fs])
        assert res.rank == rank == len(fs) - (certificate is not None), name
        assert res.independent == (certificate is None), name
        assert res.certificate == certificate, name


def test_family_rank_preconditions():
    with pytest.raises(ValidationError):
        family_rank([])
    with pytest.raises(ValidationError):
        family_rank([_indicator(12, 1)])  # 12 is not a prime power
    with pytest.raises(ValidationError):
        family_rank([_indicator(9, 1), _indicator(25, 1)])  # mixed periods
    with pytest.raises(ValidationError):
        family_rank([PeriodicFunction(q=9, values={1: 1})])  # not even


# ---------------------------------------------------------------------------
# Precision contract: threads and ambient precision

def test_concurrent_precisions_match_single_threaded(golden_f5):
    # calls at 12 and 300 digits interleaved on 4 threads must return the
    # bits each returns alone, and must leave the caller's precision alone
    calls = [(l_deriv0_closed, (golden_f5,)), (l_value, (Fraction(1, 3), golden_f5)),
             (two_sin_pi, (2, 7)), (l_deriv, (0, golden_f5)), (l_value, (2, golden_f5)),
             (l_deriv0_even, (golden_f5,)), (sine_identity_residual, (15,))]
    jobs = [(fn, args + (d,)) for fn, args in calls for d in (12, 300)] * 8
    expected = [fn(*args)._mpf_ for fn, args in jobs]
    prec = mp.prec
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            got = [out._mpf_ for out in pool.map(lambda job: job[0](*job[1]), jobs, timeout=300)]
    finally:
        sys.setswitchinterval(switch)
    assert mp.prec == prec
    differ = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    assert not differ, f"{len(differ)} of {len(jobs)} threaded results differ: jobs {differ}"


def _route_results(f, d):
    """Every public numeric result at d digits but ``pslq_relation``'s, as raw mantissa/exponent tuples.

    The Unknown residual of ``vanishing_verdict`` is left out: it is still
    |L'(0, f)| rounded at the caller's precision (ROADMAP open item 2).
    """
    s, x = Fraction(1, 3), Fraction(2, 7)
    values = [
        two_sin_pi(2, 7, d), *two_sines(15, [1, 2, 4, 7], d),
        log_sine_sum(15, [(1, 3), (2, Fraction(-1, 2)), (7, 3)], d),
        log_gamma_frac(3, 7, d), hurwitz_zeta(s, x, d),
        hurwitz_zeta_ds(s, x, d), pi_const(d), log2_const(d),
        l_value(s, f, d), l_deriv(s, f, d), l_deriv0_closed(f, d), l_deriv0_even(f, d),
        sine_identity_residual(15, d), build_witness(55, 0, d).residual,
    ]
    # integer s: the value is a Bernoulli polynomial (k <= 0) or the
    # one-residue L(s, f) with roots v = 1 (k = 2); the derivative takes
    # one log per residue (k = 0) or a root v = 1 and a log per term
    # (k = -1, 2), beside the value
    for k in (0, -1, 2):
        values += [hurwitz_zeta(k, x, d), hurwitz_zeta_ds(k, x, d)]
    values += [l_value(2, f, d), l_deriv(0, f, d)]
    # the one-residue L(s, f) with integer roots: v = 2 from a Fraction,
    # v = 4 from an mpf
    values += [hurwitz_zeta(Fraction(-7, 2), x, d), hurwitz_zeta(mpf("0.75"), x, d)]
    values += log_sine_basis(15, d, extended=True).all_values()
    rel = find_relation_for_modulus(21, 10, d)
    values += [rel.residual_at_d, rel.residual_at_2d]
    extended = find_integer_relation(log_sine_basis(8, d, extended=True), 10, d)
    values += [extended.residual_at_d, extended.residual_at_2d]
    assert all(type(v) is mpf for v in values)
    kinds = [vanishing_verdict(q, constant_on_units(q, 1), d).kind for q in (9, 15, 105)]
    return [v._mpf_ for v in values], rel.coefficients, extended.log2_coefficient, kinds


def _numeric_results(f):
    """``_route_results`` at 30 digits, and a PSLQ vector."""
    d = 30
    return _route_results(f, d), pslq_relation(log_sine_basis(21, d).all_values(), 10, d)


def test_results_independent_of_ambient_precision(golden_f5):
    # a value that picked up mpmath's global precision anywhere inside a
    # computation would differ between a 20-bit and a 1029-bit caller
    with mp.workprec(20):
        low = _numeric_results(golden_f5)
    with mp.workprec(1029):
        high = _numeric_results(golden_f5)
    assert low == high


def test_no_library_route_builds_an_mpmath_context(monkeypatch, golden_f5):
    # every route computes at prec_bits(d) with mpmath's libmp and rounds
    # once: with MPContext unable to be built, each public numeric route
    # returns the same bits at 20 and 60 digits under a 53-bit and a
    # 1000-bit caller.  pslq_relation, which builds its own context for
    # mpmath's pslq, is left out, and so is the Unknown residual of
    # vanishing_verdict, whose abs is taken at the caller's precision
    def no_context(*args, **kwargs):
        raise AssertionError("a library route built an mpmath context")

    monkeypatch.setattr(MPContext, "__init__", no_context)
    for d in (20, 60):
        with mp.workprec(53):
            low = _route_results(golden_f5, d)
        with mp.workprec(1000):
            high = _route_results(golden_f5, d)
        assert low == high, d
    with pytest.raises(AssertionError, match="built an mpmath context"):
        pslq_relation(log_sine_basis(21, 20).all_values(), 10, 20)
