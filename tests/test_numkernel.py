"""Numeric kernel tests: exactness, frozen oracle values, precision contract."""

import concurrent.futures
import random
import sys
from fractions import Fraction
from math import ceil, comb, factorial, gcd, isqrt, log10

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from lprime import numkernel
from lprime.cli import run
from lprime.errors import ConvergenceError, PoleError, ValidationError
from lprime.numkernel import (
    bernoulli,
    csc2_sum,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    log2_const,
    log_gamma_frac,
    log_sine_sum,
    periodic_zeta,
    periodic_zeta_ds,
    pi_const,
    prec_bits,
    two_sin_pi,
    two_sines,
)
from lprime.lseries import l_deriv, l_value
from lprime.periodic import PeriodicFunction

# Oracle-derived 65-digit reference values (parsed at full precision).
with mp.workprec(300):
    LOGGAMMA_1_4 = mpf("1.2880225246980774573706104402197172959253775651128605504999870225")
    ZETA_DS_0_1_4 = mpf("0.36908399149340471559028070381409965606398009147507713768283548205")
    NEG_HALF_LOG_2PI = mpf("-0.91893853320467274178032973640561763986139747363778341281715154048")
    NEG_HALF_LOG2 = mpf("-0.34657359027997265470861606072908828403775006718012762706034000475")
    HALF_LOG_PI = mpf("0.57236494292470008707171367567652935582364740645765578575681153574")
    PI2_OVER_6 = mpf("1.6449340668482264364724151666460251892189499012067984377355582294")
    SQRT2 = mpf("1.414213562373095048801688724209698078569671875376948073176679738")


def tol(d, slack=5):
    return mpf(10) ** (-(d - slack))


@pytest.fixture
def empty_tables():
    """Start from empty coefficient tables, whatever ran before."""
    with numkernel._bern_lock:
        numkernel._em_tables.clear()
    yield


# ---------------------------------------------------------------------------
# Bernoulli numbers

def test_bernoulli_defining_values():
    assert bernoulli(0) == Fraction(1)
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    for n in (3, 5, 7, 25, 99):
        assert bernoulli(n) == 0


def test_bernoulli_against_mpmath_oracle():
    for n in range(0, 62, 2):
        p, q = mpmath.bernfrac(n)
        assert bernoulli(n) == Fraction(int(p), int(q))


def test_bernoulli_recurrence_oracle():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1 (B_1 = -1/2 convention)
    from math import comb

    for n in range(1, 40):
        total = sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert total == (0 if n > 0 else 1)


def test_bernoulli_rejects_negative():
    with pytest.raises(ValidationError):
        bernoulli(-1)


def test_bernoulli_concurrent_fill():
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(bernoulli, [300] * 8))
    assert len(set(results)) == 1


def test_bernoulli_large_index_against_mpmath():
    for n in (100, 250, 400, 600):
        p, q = mpmath.bernfrac(n)
        assert bernoulli(n) == Fraction(int(p), int(q)), n


def _fresh_bernoulli_cache():
    """Empty the Bernoulli cache back to B_0, B_2 and the first tangent column."""
    with numkernel._bern_lock:
        del numkernel._bern_even[2:]
        numkernel._tangent_column[:] = [1]


def test_bernoulli_cache_grown_in_steps_equals_one_fill():
    # the tangent-number column carries over between fills, so a cache
    # grown a few entries at a time holds the entries of one fill to B_600
    try:
        _fresh_bernoulli_cache()
        for n in range(2, 601, 14):
            bernoulli(n)
        bernoulli(600)
        stepped = list(numkernel._bern_even)
        _fresh_bernoulli_cache()
        bernoulli(600)
        assert numkernel._bern_even == stepped
        assert len(stepped) == 301
    finally:
        bernoulli(600)


def test_bernoulli_threaded_fill_from_empty_cache():
    # 16 threads grow one shared tangent column from the start, each to
    # its own indices; a lost or doubled column step would break an entry
    expected = [bernoulli(n) for n in range(0, 401, 2)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _fresh_bernoulli_cache()
        with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(lambda i=i: [bernoulli(n) for n in range(2 * i, 401, 34)])
                       for i in range(16)]
            for fut in futures:
                fut.result(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert numkernel._bern_even[:len(expected)] == expected
    assert [bernoulli(n) for n in range(0, 401, 2)] == expected


def test_fixed_rounds_to_nearest_ties_to_even():
    # _fixed rounds with one divmod; it must equal the Fraction rounding,
    # ties to even, for negative numerators too
    rng = random.Random(24)
    fixed = numkernel._fixed
    for _ in range(2000):
        num = rng.randint(-(1 << 3000), 1 << 3000)
        den = rng.randint(1, 1 << rng.randint(1, 3000))
        point = rng.randint(0, 900)
        assert fixed(num, den, point) == round(Fraction(num << point, den)), (num, den, point)
    for _ in range(2000):
        # (num << point)/den = (2k + 1)/2 exactly, k odd or even
        odd, point = 2 * rng.randint(-(1 << 300), 1 << 300) + 1, rng.randint(0, 40)
        part = rng.randint(1, 1 << 200)
        num, den = odd * part, part << point + 1
        assert fixed(num, den, point) == round(Fraction(num << point, den)), (num, den, point)


# ---------------------------------------------------------------------------
# two_sin_pi

def test_two_sin_pi_trivial():
    assert abs(two_sin_pi(1, 6, 50) - 1) < tol(50)
    assert abs(two_sin_pi(1, 2, 50) - 2) < tol(50)


def test_two_sin_pi_sqrt2():
    assert abs(two_sin_pi(1, 4, 50) - SQRT2) < tol(50)


def test_two_sin_pi_positive_grid():
    for q in (5, 12, 31):
        for a in range(1, q):
            assert two_sin_pi(a, q, 15) > 0


def test_two_sin_pi_domain():
    for a in (0, -1, 7, 8):
        with pytest.raises(ValidationError):
            two_sin_pi(a, 7, 50)


# ---------------------------------------------------------------------------
# two_sines and log_sine_sum, against mpmath's own sin and log

SINE_MODULI = list(range(3, 201)) + [997, 1000, 4096, 10007]


def _sine_residues(q):
    """Every residue up to q/2, or for q > 1000 the 50 smallest (the smallest
    values), the 50 largest (the longest walks) and every 37th between."""
    half = q // 2
    if q <= 1000:
        return list(range(1, half + 1))
    return sorted(set(range(1, 51)) | set(range(51, half - 50, 37)) | set(range(half - 49, half + 1)))


@pytest.mark.parametrize("d", [10, 15, 50, 120, 240])
def test_two_sines_against_mpmath_sin(d):
    # within 2^-prec relative of mp.sin at d + 40 digits
    worst = mpf(0)
    for q in SINE_MODULI:
        residues = _sine_residues(q)
        values = two_sines(q, residues, d)
        assert all(type(v) is mpf for v in values)
        with mp.workdps(d + 40):
            for a, value in zip(residues, values):
                exact = 2 * mp.sin(mp.pi * a / q)
                worst = max(worst, abs(value - exact) / exact)
    assert worst <= mpf(2) ** -prec_bits(d)


def test_two_sines_precision_contract():
    for q in (7, 60, 997):
        residues = [a for a in range(1, q // 2 + 1) if gcd(a, q) == 1]
        for d in (15, 50, 120):
            for lo, hi in zip(two_sines(q, residues, d), two_sines(q, residues, 2 * d)):
                assert abs(lo - hi) < tol(d)


def test_two_sines_domain():
    assert two_sines(8, [], 50) == []
    assert two_sines(8, [4], 50) == [2]
    assert two_sines(2, [1], 50) == [2]
    for residues in ([2, 1], [1, 1], [0, 1], [-1], [4], [1, 2, 4], [1.5], [1, 2.0], [True],
                     [Fraction(3, 2)]):
        with pytest.raises(ValidationError):
            two_sines(7, residues, 50)
        with pytest.raises(ValidationError):
            log_sine_sum(7, [(a, 1) for a in residues], 50)
    for q in (1, 7.0, Fraction(7), True):
        with pytest.raises(ValidationError):
            two_sines(q, [], 50)
    with pytest.raises(ValidationError):
        log_sine_sum(7.5, [(1, 1)], 50)
    with pytest.raises(ValidationError):
        log_sine_sum(7, [(3, 1), (2, 1)], 50)
    with pytest.raises(ValidationError):
        log_sine_sum(7, [(1, 1), (4, 0)], 50)  # a zero coefficient is still checked


@pytest.mark.parametrize("d", [15, 50, 240])
def test_log_sine_sum_against_per_residue_logs(d):
    cases = [
        (7, [(1, 0), (2, 0), (3, 0)]),
        (31, [(a, -3) for a in range(1, 16)]),
        (60, [(a, 2) for a in (1, 7, 11, 13, 17, 19, 23, 29)]),
        (97, [(a, 10**6 if a == 5 else (-1) ** a) for a in range(1, 49)]),
        (155, [(a, Fraction(a % 7 - 3, 1 + a % 3)) for a in range(1, 78) if gcd(a, 155) == 1]),
        (1000, [(a, a % 5 - 2) for a in range(1, 501)]),
        (97, [(3, Fraction(10**6, 7)), (4, -1), (9, Fraction(1, 7))]),
        # exact values: -2 log 2 and -(2/3) log 2, where the product before
        # its log lies within a few units of 1/4; 2 log 2, within a few
        # units of 4; and 0, since 2 sin(pi/6) = 1
        (4, [(1, -4)]), (4, [(1, Fraction(-4, 3))]), (8, [(1, 4), (3, 4)]), (6, [(1, 5)]),
    ]
    for q, pairs in cases:
        got = log_sine_sum(q, pairs, d)
        assert type(got) is mpf
        with mp.workdps(d + 40):
            exact = mp.fsum(mpf(Fraction(c).numerator) / Fraction(c).denominator
                            * mp.log(2 * mp.sin(mp.pi * a / q)) for a, c in pairs)
        assert abs(got - exact) < tol(d) * max(1, abs(exact)), q
    assert log_sine_sum(7, [(1, 0), (2, 0), (3, 0)], d) == 0


def _even_values(q, rng, big=False):
    """An even f mod q on units and non-units, with f(q/2) and f(q) not 0."""
    values = {}
    for a in range(1, q // 2 + 1):
        if rng.random() < 0.6:
            values[a] = values[q - a] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    values[q] = Fraction(rng.choice((-5, -1, 2, 7)), rng.randint(1, 3))
    if q % 2 == 0:
        values[q // 2] = Fraction(rng.choice((-3, 1, 4)), rng.randint(1, 2))
    if big:
        # one pair (or the residue q) of size 10^400, and a large numerator
        # over a large denominator
        a = rng.choice([a for a in values if 2 * a < q] or [q])
        values[a] = values[q - a if a < q else q] = Fraction(10**400 + rng.randint(1, 99), 7)
        values[q] = Fraction(10**30 + 1, 10**29 + 3)
    return {a: c for a, c in sorted(values.items()) if c}


@pytest.mark.parametrize("q, d", [(3, 15), (4, 600), (6, 50), (10, 240), (12, 15), (30, 120),
                                  (64, 50), (97, 240), (210, 30), (331, 15)])
def test_csc2_sum_is_l_of_2_for_even_f(q, d):
    # (pi/q)^2 (sum_(a<q/2) f(a) csc^2(a pi/q) + f(q/2)/2 + f(q)/6) against
    # the series L(2, f) and mpmath's Hurwitz zeta, for even f that are not
    # of Dirichlet type, with f(q/2) and f(q) not 0, and at values to 10^400
    rng = random.Random(q * 1000 + d)
    for big in (False, True) if q <= 64 else (False,):
        values = _even_values(q, rng, big)
        got = csc2_sum(q, [(a, c) for a, c in values.items() if 2 * a <= q or a == q], d)
        with mp.workdps(d + 20 + 400 * big):
            exact = mp.fsum(c.numerator * mp.zeta(2, mpf(a) / q) / c.denominator
                            for a, c in values.items()) / q**2
        bound = tol(d) * max(1, abs(exact))
        assert abs(got - exact) < bound, (q, d, big)
        assert abs(periodic_zeta(2, q, values, d) - exact) < bound, (q, d, big)


def test_csc2_sum_exact_terms():
    # k_(q/2) = 1/2 and k_q = 1/6, at the scale of the walk's terms:
    # (pi/4)^2 / 2, (pi/q)^2 / 6 and (pi/4)^2 (2 csc^2(pi/4) + 1/2) = 9 pi^2/32
    d = 60
    pi2 = pi_const(d + 10) ** 2
    for q, pairs, exact in [(4, [(2, 1)], pi2 / 32), (7, [(7, 1)], pi2 / 294), (4, [(1, 2), (2, 1)], 9 * pi2 / 32),
                            (6, [(3, Fraction(-2, 3)), (6, Fraction(1, 5))], pi2 * (Fraction(-1, 3) + Fraction(1, 30)) / 36)]:
        assert abs(csc2_sum(q, pairs, d) - exact) < tol(d), (q, pairs)
    assert csc2_sum(5, [], d) == 0
    assert csc2_sum(5, [(1, 0), (2, 0), (5, 0)], d) == 0


def test_csc2_sum_domain():
    for q, pairs in [(7, [(2, 1), (1, 1)]), (7, [(4, 1)]), (7, [(7, 1), (1, 1)]), (8, [(4, 1), (4, 1)]),
                     (7, [(1.5, 1)]), (1, [(1, 1)]), (7.0, [(1, 1)])]:
        with pytest.raises(ValidationError):
            csc2_sum(q, pairs, 50)


# ---------------------------------------------------------------------------
# log_gamma_frac

def test_log_gamma_trivial():
    assert abs(log_gamma_frac(1, 1, 50)) < tol(50)
    assert abs(log_gamma_frac(2, 2, 50)) < tol(50)


def test_log_gamma_half():
    assert abs(log_gamma_frac(1, 2, 50) - HALF_LOG_PI) < tol(50)


def test_log_gamma_quarter_frozen():
    assert abs(log_gamma_frac(1, 4, 60) - LOGGAMMA_1_4) < tol(60)


def test_log_gamma_against_mpmath_oracle(rng):
    for _ in range(25):
        q = rng.randint(1, 60)
        a = rng.randint(1, q)
        d = rng.choice((20, 50, 80))
        mine = log_gamma_frac(a, q, d)
        with mp.workprec(prec_bits(d) + 40):
            ref = mp.loggamma(mpf(a) / q)
        assert abs(mine - ref) < tol(d)


def test_log_gamma_high_precision_long_shift(rng):
    # 120 to 300 digits, a/q near 0 and at 1, where log Gamma is largest or 0
    cases = [(q, q) for q in (1, 7, 100)] + [(1, 100), (99, 100), (1, 97)]
    for d in (120, 240, 300):
        for a, q in cases + [(rng.randint(1, q), q) for q in rng.sample(range(2, 101), 3)]:
            mine = log_gamma_frac(a, q, d)
            with mp.workprec(prec_bits(d) + 40):
                ref = mp.loggamma(mpf(a) / q)
            assert abs(mine - ref) < tol(d), (a, q, d)


def test_log_gamma_domain():
    with pytest.raises(ValidationError):
        log_gamma_frac(0, 4, 50)
    with pytest.raises(ValidationError):
        log_gamma_frac(-2, 4, 50)
    with pytest.raises(ValidationError):
        log_gamma_frac(5, 4, 50)
    for a, q in ((1.5, 3), (1, 3.0), (Fraction(1, 2), 3), (True, 3), (1, True)):
        with pytest.raises(ValidationError):
            log_gamma_frac(a, q, 50)


def test_reflection_formula(rng):
    # log Gamma(a/q) + log Gamma(1 - a/q) = log pi - log sin(a pi / q)
    d = 50
    for _ in range(20):
        q = rng.randint(3, 60)
        a = rng.randint(1, q - 1)
        lhs = log_gamma_frac(a, q, d) + log_gamma_frac(q - a, q, d)
        with mp.workprec(prec_bits(d)):
            rhs = mp.log(mp.pi) - mp.log(mp.sin(mp.pi * a / q))
        assert abs(lhs - rhs) < tol(d)


# ---------------------------------------------------------------------------
# Hurwitz zeta and its s-derivative

def test_hurwitz_lerch_value_examples():
    assert abs(hurwitz_zeta(0, Fraction(1, 4), 50) - Fraction(1, 4)) < tol(50)
    assert abs(hurwitz_zeta(0, Fraction(1, 2), 50)) < tol(50)


def test_hurwitz_basel():
    assert abs(hurwitz_zeta(2, Fraction(1), 50) - PI2_OVER_6) < tol(50)


def test_hurwitz_direct_sum_oracle():
    # brute-force partial sum with integral tail bound at s = 3
    x = Fraction(1, 3)
    d = 12
    n_terms = 20_000
    with mp.workprec(200):
        xm = mpf(1) / 3
        partial = mp.fsum(mp.power(n + xm, -3) for n in range(n_terms))
        # integral tail estimate; its own error is ~(N+x)^-3/2 ~ 6e-14
        tail = mp.power(n_terms + xm, -2) / 2
    mine = hurwitz_zeta(3, x, d)
    assert abs(mine - (partial + tail)) < mpf(10) ** -9


def test_hurwitz_against_mpmath_oracle(rng):
    for _ in range(20):
        q = rng.randint(2, 50)
        a = rng.randint(1, q)
        s = rng.choice([0, 2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(7, 5)])
        d = rng.choice((20, 50))
        mine = hurwitz_zeta(s, Fraction(a, q), d)
        mine_ds = hurwitz_zeta_ds(s, Fraction(a, q), d)
        with mp.workprec(prec_bits(d) + 40):
            sm = mpf(s.numerator) / s.denominator if isinstance(s, Fraction) else mpf(s)
            ref = mp.zeta(sm, mpf(a) / q)
            ref_ds = mp.zeta(sm, mpf(a) / q, 1)
        assert abs(mine - ref) < tol(d)
        assert abs(mine_ds - ref_ds) < tol(d)


INTEGER_S_GRID_X = (Fraction(1), Fraction(1, 2), Fraction(5, 41), Fraction(99, 100))


def _em_at_shift(s, x, d, derivative, factor):
    """The public value, or derivative, with ``factor`` times the first shift N."""
    first_shift = numkernel._em_first_shift
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numkernel, "_em_first_shift", lambda digits: factor * first_shift(digits))
        return (hurwitz_zeta_ds if derivative else hurwitz_zeta)(s, x, d)


#: Integer s whose values and heads at 240 digits are large: the bound
#: is relative to |zeta| there.
LARGE_INTEGER_S = (30, 60)


def _integer_s_roots(s, x, d, derivative, factor):
    """The v = 1 roots of ``hurwitz_zeta(_ds)`` at integer s with ``factor`` times the first shift N.

    Each Euler-Maclaurin series at s != 0 takes one root per head term and
    one for its rest, r(Nq + a).  The value at s > 0 runs at
    d + ceil(s log10 a) digits.  The derivative runs L'(s, f) and L(s, f)
    at d + ceil(max(s, 0) log10 q) + 2 digits, and L(s, f) is an exact
    Bernoulli polynomial at s <= 0.
    """
    if derivative:
        series = (s != 0) + (s > 0)
        digits = d + ceil(max(s, 0) * log10(x.denominator)) + 2
    else:
        series = int(s > 0)
        digits = d + ceil(s * log10(x.numerator))
    return series * (factor * numkernel._em_first_shift(digits) + 1)


@pytest.mark.parametrize("d", (50, 120, 240))
def test_hurwitz_integer_s_grid_against_mpmath(d, root_calls):
    # the value at s in -3..0 is the exact Bernoulli polynomial and takes
    # no root; at s > 0, 30 and 60 included, it is the one-residue
    # L(s, f), whose N head terms and rest r(Nq + a) are integer roots
    # with v = 1; the derivative at s = -1 and 2 takes such roots for
    # L'(s, f), and at 2 for L(s, f) too, and at s = 0 none (one log per
    # residue); the Euler-Maclaurin cases also at the retry shifts 2N and 4N
    cases = ([(s, False) for s in (-3, -2, -1, 0, 2, 3, 5) + LARGE_INTEGER_S]
             + [(s, True) for s in (-1, 0, 2)])
    for x in INTEGER_S_GRID_X:
        for s, derivative in cases:
            root_calls.clear()
            mine = (hurwitz_zeta_ds if derivative else hurwitz_zeta)(s, x, d)
            assert set(root_calls) == ({1} if _integer_s_roots(s, x, d, derivative, 1) else set()), (
                s, x, d, derivative)
            with mp.workprec(prec_bits(d) + 40):
                ref = mp.zeta(s, mpf(x.numerator) / x.denominator, int(derivative))
            bound = tol(d) * (max(1, abs(ref)) if s in LARGE_INTEGER_S else 1)
            assert abs(mine - ref) < bound, (s, x, d, derivative)
            if derivative or s > 0:
                for factor in (2, 4):
                    root_calls.clear()
                    assert abs(_em_at_shift(s, x, d, derivative, factor) - mine) < bound, (s, x, d, factor)
                    assert root_calls == [1] * _integer_s_roots(s, x, d, derivative, factor), (s, x, d, factor)


def _bernoulli_polynomial_value(n, q, support):
    """L(1 - n, f) = q^(n-1) sum_a f(a) (-B_n(a/q)/n), residue by residue in Fractions."""
    def zeta(x):
        return -sum(comb(n, j) * bernoulli(j) * x ** (n - j) for j in range(n + 1)) / n
    return q ** (n - 1) * sum(c * zeta(Fraction(a, q)) for a, c in support.items())


def test_power_sums_are_the_bernoulli_polynomials_bit_for_bit():
    # L(1 - n, f) from integer power sums is the same rational as the
    # per-residue Bernoulli polynomials, so the rounded values share every
    # bit; zeta(1 - n, a/q) is the one-residue case over q^(n-1)
    rng = random.Random(32)
    for q in (1, 2, 3, 12, 30, 97, 210, 512, 1000):
        for n in (1, 2, 3, 7, 16, 30):
            units = [a for a in range(1, q + 1) if gcd(a, q) == 1]
            supports = [{a: 1} for a in rng.sample(range(1, q + 1), min(q, 2))]
            supports.append({a: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
                             for a in rng.sample(range(1, q + 1), min(q, 5))})
            supports.append({a: Fraction(rng.randint(-3, 3) or 2, 1 + a % 4) for a in units[:40]})
            for support in supports:
                exact = _bernoulli_polynomial_value(n, q, support)
                numer, denom = numkernel._power_sums(n, q, support)
                assert denom > 0 and Fraction(numer, denom) == exact, (q, n, support)
                for d in (10, 60):
                    want = from_rational(exact.numerator, exact.denominator, prec_bits(d), round_nearest)
                    assert periodic_zeta(1 - n, q, support, d)._mpf_ == want, (q, n, d)
            a = rng.randint(1, q)
            exact = _bernoulli_polynomial_value(n, q, {a: 1}) / q ** (n - 1)
            want = from_rational(exact.numerator, exact.denominator, prec_bits(40), round_nearest)
            assert hurwitz_zeta(1 - n, Fraction(a, q), 40)._mpf_ == want, (q, n, a)


def test_log_head_at_64_times_the_first_shift():
    # the derivative head at s = 0 is one log of prod m at every shift:
    # here N = 64 * 194 = 12,416 terms at the 242 digits of
    # hurwitz_zeta_ds, a product of about 233k bits
    x, d = Fraction(1, 97), 240
    with mp.workprec(prec_bits(d) + 40):
        ref = mp.zeta(0, mpf(x.numerator) / x.denominator, 1)
    assert abs(_em_at_shift(0, x, d, True, 64) - ref) < tol(d)


def test_s0_head_takes_one_log_per_value(monkeypatch):
    # L'(0, f) at q = 41: one head log per distinct value of f, of the
    # product of the terms of all its residues, and one log per residue
    # for the rests, 9 + 40 logs where one per residue took 80; the value
    # agrees with mpmath's log Gamma closed form
    q, d = 41, 240
    values = {a: Fraction(a * a % 9 - 4, 1 + a * a % 2) for a in range(1, 41)}
    distinct = set(values.values()) - {0}
    support = {a: c for a, c in values.items() if c}
    logs = []
    fixed_log = numkernel._fixed_log
    monkeypatch.setattr(numkernel, "_fixed_log", lambda n, point: logs.append(n) or fixed_log(n, point))
    mine = periodic_zeta_ds(0, q, values, d)
    assert len(logs) == len(distinct) + len(support)
    with mp.workprec(prec_bits(d) + 40):
        ref = mp.fsum(c.numerator * (mp.loggamma(mpf(a) / q) - mp.log(2 * mp.pi) / 2
                                     - (mpf(1) / 2 - mpf(a) / q) * mp.log(q)) / c.denominator
                      for a, c in support.items())
    assert abs(mine - ref) < tol(d)


def _zeta_error(s, x, d, derivative):
    """|mine - mp.zeta| in units of 10^(-d+5), relative where |zeta| > 1."""
    mine = (hurwitz_zeta_ds if derivative else hurwitz_zeta)(s, x, d)
    with mp.workprec(prec_bits(d) + 80):
        ref = mp.zeta(mpf(s.numerator) / s.denominator, mpf(x.numerator) / x.denominator, int(derivative))
        return abs(mine - ref) / (tol(d) * max(1, abs(ref)))


@pytest.mark.parametrize("d, s", [(50, Fraction(-12)), (50, Fraction(-40)),
                                  (240, Fraction(-15, 2)), (240, Fraction(-12))])
def test_hurwitz_strongly_negative_s(d, s):
    # the head and the integral term cancel down to zeta, about
    # (1 - s) log10(N + 1) digits, more than the ten guard digits
    for x in (Fraction(1, 97), Fraction(1, 2), Fraction(1)):
        for derivative in (False, True):
            assert _zeta_error(s, x, d, derivative) < 1, (s, x, d, derivative)


@pytest.mark.parametrize("x", (Fraction(1, 97), Fraction(1, 2), Fraction(1)))
def test_tail_error_bound_at_600_digits(x):
    # the coefficients grow far past 2^prec here; the powers of the tail are
    # carried at the coefficients' width, which a fixed width would miss
    d = 600
    for s in (Fraction(-1, 2), Fraction(1, 3), Fraction(7, 2), Fraction(30)):
        for derivative in (False, True):
            assert _zeta_error(s, x, d, derivative) < 1, (s, x, derivative)
    mine = log_gamma_frac(x.numerator, x.denominator, d)
    with mp.workprec(prec_bits(d) + 40):
        assert abs(mine - mp.loggamma(mpf(x.numerator) / x.denominator)) < tol(d), x


def test_hurwitz_retry_doubles_the_shift(monkeypatch):
    # a first shift of 2 makes the tail grow, so the attempt returns None
    # and the shift doubles until the tail falls below the target
    monkeypatch.setattr(numkernel, "_em_first_shift", lambda digits: 2)
    d, x = 50, Fraction(1, 97)
    for s in (Fraction(1, 3), Fraction(-1, 2), Fraction(2)):
        attempt = numkernel._periodic_attempt(prec_bits(d), s, x.denominator, {x.numerator: 1}, 2, d)
        assert attempt is None, s
        for derivative in (False, True):
            assert _zeta_error(s, x, d, derivative) < 1, (s, derivative)


def test_diverging_tail_raises_convergence_error(monkeypatch, tmp_path, capsys):
    # a tail that never converges: Euler-Maclaurin doubles its shift up to
    # 64 d and then raises, and the CLI exits 1, also at s = 0
    monkeypatch.setattr(numkernel, "_bernoulli_tails", lambda *args: None)
    q, values, d = 5, {1: 1, 4: 1}, 10
    with pytest.raises(ConvergenceError, match=r"L\(s=1/2\) of period 5"):
        periodic_zeta(Fraction(1, 2), q, values, d)
    with pytest.raises(ConvergenceError, match=r"L'\(s=1/2\) of period 5"):
        periodic_zeta_ds(Fraction(1, 2), q, values, d)
    path = tmp_path / "f.json"
    # eval --s 0 takes the log-sine sum for the even f: {1: 1} is not
    # even, so it takes the series there
    for s, fn in (("1/2", values), ("0", {1: 1})):
        path.write_text(PeriodicFunction(q=q, values=fn).dumps())
        assert run(["eval", "--fn", str(path), "--s", s, "--digits", str(d)]) == 1
        assert "computation failed" in capsys.readouterr().err


#: Rational s with the head of integer roots (v = 2, 3, 4), and -5/29,
#: whose roots would cost more than the powers at every d here.
RATIONAL_S_GRID = (Fraction(-7, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(3, 4),
                   Fraction(7, 2), Fraction(13, 3))
PAST_ROOT_BOUND = Fraction(-5, 29)
#: Inputs where ``hurwitz_zeta`` meets its bound only by its extra digits:
#: large s, where zeta(s, a/q) is about (q/a)^s and L(s, f) about a^(-s),
#: and 0 < s < 1 at a large q, where q^s scales the bound of L(s, f).
EXTRA_DIGIT_CASES = ([(s, x) for s in (Fraction(61, 2), Fraction(45, 4))
                      for x in (Fraction(5, 41), Fraction(99, 100), Fraction(9999, 10000))]
                     + [(s, Fraction(3, 10007)) for s in (Fraction(1, 3), Fraction(3, 4))])


@pytest.fixture
def root_calls(monkeypatch):
    """Count the calls of the integer-root helper."""
    calls = []
    iroot = numkernel._iroot

    def counted(x, v):
        calls.append(v)
        return iroot(x, v)
    monkeypatch.setattr(numkernel, "_iroot", counted)
    return calls


@pytest.mark.parametrize("d", (50, 120, 240))
def test_hurwitz_rational_s_grid_against_mpmath(d, root_calls):
    # s = u/v takes the head of integer v-th roots, within the cost bound;
    # each value also at the retry shifts 2N and 4N
    for s in RATIONAL_S_GRID + (PAST_ROOT_BOUND,):
        root_calls.clear()
        for x in INTEGER_S_GRID_X:
            mine = hurwitz_zeta(s, x, d)
            with mp.workprec(prec_bits(d) + 40):
                ref = mp.zeta(mpf(s.numerator) / s.denominator, mpf(x.numerator) / x.denominator)
            assert abs(mine - ref) < tol(d), (s, x, d)
            for factor in (2, 4):
                assert abs(_em_at_shift(s, x, d, False, factor) - mine) < tol(d), (s, x, d, factor)
        assert bool(root_calls) == (s != PAST_ROOT_BOUND), (s, d)
        assert set(root_calls) <= {s.denominator}
    for s, x in EXTRA_DIGIT_CASES:
        for derivative in (False, True):
            assert _zeta_error(s, x, d, derivative) < 1, (s, x, d, derivative)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 4000), st.integers(min_value=2, max_value=7))
def test_iroot_is_floor_of_root(x, v):
    y = numkernel._iroot(x, v)
    assert y ** v <= x < (y + 1) ** v


def test_iroot_near_powers():
    # the floor must hold exactly at and next to a perfect power
    for v in range(2, 8):
        for y in (1, 2, 3, 10**40 + 7, (1 << 1000) - 1, 3**1500):
            for x in (y ** v - 1, y ** v, y ** v + 1):
                r = numkernel._iroot(x, v)
                assert r ** v <= x < (r + 1) ** v, (x, v)


def test_least_prime_factors_brute_force():
    # the sieving primes come from the table of isqrt(n), recursively, so
    # check every n across several levels of that recursion
    for n in (*range(12), 48, 49, 50, 1000, 10**4 + 9):
        least = [next((p for p in range(2, isqrt(m) + 1) if m % p == 0), 0) for m in range(n + 1)]
        assert list(numkernel._least_prime_factors(n)) == least, n


def test_hurwitz_same_exact_s_same_bits(root_calls):
    # Fraction(1, 2), mpf("0.5") and 0.5 are one exact value and take one
    # route; 1/3 rounded to an mpf is dyadic, past the root cost bound, so
    # it takes one power per term
    x, d = Fraction(5, 41), 60
    half = [hurwitz_zeta(s, x, d)._mpf_ for s in (Fraction(1, 2), mpf("0.5"), 0.5)]
    assert half[0] == half[1] == half[2]
    with mp.workprec(prec_bits(d) + 40):
        third = mpf(1) / 3
    root_calls.clear()
    rounded = hurwitz_zeta(third, x, d)
    assert not root_calls
    exact = hurwitz_zeta(Fraction(1, 3), x, d)
    assert root_calls
    assert abs(rounded - exact) < tol(d)


def test_l_value_roots_only_at_primes(root_calls, monkeypatch):
    # one head for all of L(s, f): r(m) = floor(2^P m^(-s)) is a root at
    # the primes and a product elsewhere.  The rest of each residue a takes
    # r(Nq + a), so the sieve runs to (N + 1)q.  At s = 1/2 (v = 2, no root
    # recurses) an even Dirichlet-type f that is non-zero on every unit
    # takes one root per prime p <= (N + 1)q not dividing q, and no other.
    # L'(s, f) of the same f takes no sieve: one root (and one log) per
    # head term of each residue, and one for its rest
    q, d, s = 36, 50, Fraction(1, 2)
    f = PeriodicFunction(q=q, values={a: 1 + min(a, q - a) % 3 for a in range(1, q) if gcd(a, q) == 1})
    n_first = numkernel._em_first_shift(d)
    top = (n_first + 1) * q
    primes = [p for p in range(2, top + 1) if q % p and all(p % k for k in range(2, isqrt(p) + 1))]
    sieves = []
    sieve_sums = numkernel._sieve_sums
    monkeypatch.setattr(numkernel, "_sieve_sums", lambda *args: sieves.append(1) or sieve_sums(*args))
    root_calls.clear()
    mine = l_value(s, f, d)
    assert root_calls == [2] * len(primes)
    assert sieves == [1]
    root_calls.clear()
    mine_ds = l_deriv(s, f, d)
    assert root_calls == [2] * (len(f.values) * (n_first + 1))
    assert sieves == [1]
    with mp.workprec(prec_bits(d) + 40):
        terms = [(v, mp.zeta(0.5, mpf(a) / q), mp.zeta(0.5, mpf(a) / q, 1)) for a, v in f.values.items()]
        ref = mp.power(q, -0.5) * mp.fsum(v * zeta for v, zeta, _ in terms)
        ref_ds = mp.power(q, -0.5) * mp.fsum(v * (zeta_ds - mp.log(q) * zeta) for v, zeta, zeta_ds in terms)
    assert abs(mine - ref) < tol(d)
    assert abs(mine_ds - ref_ds) < tol(d)


def _is_prime(n):
    return n > 1 and all(n % k for k in range(2, isqrt(n) + 1))


#: Dense f for the sieve: (q, residues of the support, the primes of q the
#: support leaves out).  At q = 45 the support holds a = 3, 42, sharing 3
#: with q, and a = q, so no prime of q is left out; at q = 30 it holds the
#: units and a = 3, 27, so 2 and 5 are left out and the least prime a
#: cofactor can have is 3; at q = 105, three primes, it is the units.
SIEVE_CASES = (
    (45, [a for a in range(1, 46) if gcd(a, 45) == 1 or a in (3, 42, 45)], ()),
    (30, [a for a in range(1, 30) if gcd(a, 30) == 1 or a in (3, 27)], (2, 5)),
    (105, [a for a in range(1, 105) if gcd(a, 105) == 1], (3, 5, 7)),
)


@pytest.mark.parametrize("d", (50, 120))
@pytest.mark.parametrize("q, residues, barred", SIEVE_CASES, ids=("q45-a=q", "q30-non-units", "q105-units"))
def test_l_value_sieve_against_mpmath(q, residues, barred, d, monkeypatch):
    # an even f, dense, so l_value takes the sieve.  Its roots are at
    # primes only, each once, and only at primes prime to the primes of q
    # that divide no residue of the support; every prime of a class of the
    # support up to (N + 1)q takes one.  The value is within the contract
    values = {a: Fraction(min(a, q - a) % 4 - 2 or 3, 1 + min(a, q - a) % 2) for a in residues}
    f = PeriodicFunction(q=q, values=values)
    seen = []
    sieve_sums = numkernel._sieve_sums
    monkeypatch.setattr(numkernel, "_sieve_sums",
                        lambda root, *args: sieve_sums(lambda m: seen.append(m) or root(m), *args))
    last = (numkernel._em_first_shift(d) + 1) * q
    classes = {a % q for a in residues}
    for s in (Fraction(1, 2), Fraction(-3, 2), Fraction(7, 3)):
        seen.clear()
        mine = l_value(s, f, d)
        assert seen, (q, s)
        assert len(set(seen)) == len(seen) and all(map(_is_prime, seen)), (q, s)
        assert max(seen) <= last and not any(m % p == 0 for m in seen for p in barred), (q, s)
        assert {p for p in range(2, last + 1) if p % q in classes and _is_prime(p)} <= set(seen), (q, s)
        if barred == tuple(p for p in range(2, q + 1) if q % p == 0 and _is_prime(p)):
            # Dirichlet type: every prime up to (N + 1)q not dividing q, and no other
            assert sorted(seen) == [p for p in range(2, last + 1) if q % p and _is_prime(p)], (q, s)
        with mp.workprec(prec_bits(d) + 40):
            sm = mpf(s.numerator) / s.denominator
            ref = mp.power(q, -sm) * mp.fsum(v * mp.zeta(sm, mpf(a) / q) for a, v in values.items())
        assert abs(mine - ref) < tol(d) * max(1, abs(ref)), (q, s, d)


def _floor_power(m: int, s: Fraction, point: int) -> int:
    """floor(2^point m^(-s)) exactly: the greatest r with r^v m^u <= 2^(v point), s = u/v."""
    u, v = s.numerator, s.denominator
    with mp.workprec(2 * point + 64):
        r = int(mp.floor(mp.ldexp(mp.power(m, -mpf(u) / v), point)))
    num, den = (1 << v * point, m ** u) if u > 0 else (m ** -u << v * point, 1)
    while r ** v * den > num:
        r -= 1
    while (r + 1) ** v * den <= num:
        r += 1
    return r


@pytest.mark.parametrize("s", (Fraction(1, 3), Fraction(3, 4), Fraction(-1, 2), Fraction(7, 2)))
def test_sieve_class_sums_are_exact_floors(s):
    # q = 30, top = 30: every unit up to top is 1 or a prime, so the sieve
    # takes each class sum from one root and no product, and each must be
    # the sum of the exact floors floor(2^P m^(-s)) over m <= top in its
    # class (the rests at top + a, composites, are products of floors)
    q, top, point = 30, 30, 120
    support = dict.fromkeys([a for a in range(1, q) if gcd(a, q) == 1], Fraction(1))
    by_class, _ = numkernel._sieve_sums(lambda m: _floor_power(m, s, point), q, support, top, point)
    for a in support:
        assert by_class[a] == sum(_floor_power(m, s, point) for m in range(a, top + 1, q)), (s, a)


def test_l_value_sparse_f_at_large_period(root_calls):
    # a sparse f takes one root per head term, so its cost follows its
    # support and not q: one residue of q = 10^7 is N roots, and one for
    # its rest, r(Nq + a), not a sieve over 1..Nq
    q, d, s = 10**7, 30, Fraction(1, 2)
    n_first = numkernel._em_first_shift(d)
    with mp.workprec(prec_bits(d) + 40):
        refs = {1: mp.zeta(0.5, mpf(1) / q), q: mp.zeta(0.5)}
        for a, ref in refs.items():
            root_calls.clear()
            mine = l_value(s, PeriodicFunction(q=q, values={a: 1}), d)
            assert root_calls == [2] * (n_first + 1), a
            assert abs(mine - mp.power(q, -0.5) * ref) < tol(d), a


def test_hurwitz_near_pole_against_mpmath():
    # s - 1 = 10^-60 is below the resolution of 20 digits; the integral
    # term takes it from the exact s, so zeta keeps its 1/(s - 1) size
    s, x, d = Fraction(10**60 + 1, 10**60), Fraction(1, 2), 20
    with mp.workdps(300):
        sm = 1 + mpf(10) ** -60
        ref = mp.zeta(sm, mpf(1) / 2)
        ref_ds = mp.zeta(sm, mpf(1) / 2, 1)
    assert abs(hurwitz_zeta(s, x, d) / ref - 1) < tol(d)
    assert abs(hurwitz_zeta_ds(s, x, d) / ref_ds - 1) < tol(d)


def test_hurwitz_rejects_non_finite_s():
    # every size comparison with a NaN or an infinity is false, so the
    # series would never stop; the arguments are refused before any sum
    for s in (float("nan"), float("inf"), float("-inf"), mpf("nan"), mpf("inf"), mpf("-inf")):
        for fn in (hurwitz_zeta, hurwitz_zeta_ds):
            with pytest.raises(ValidationError):
                fn(s, Fraction(1, 2), 20)


def test_hurwitz_tables_keyed_by_precision(empty_tables):
    # s = 3/4 is the same mpf at every precision, so a table keyed by s
    # alone would serve 50-digit coefficients to the 240-digit call
    s = Fraction(3, 4)
    for d in (50, 240, 50):
        for x in (Fraction(1, 7), Fraction(1)):
            with mp.workprec(prec_bits(d) + 40):
                ref = mp.zeta(mpf(3) / 4, mpf(x.numerator) / x.denominator)
                ref_ds = mp.zeta(mpf(3) / 4, mpf(x.numerator) / x.denominator, 1)
            assert abs(hurwitz_zeta(s, x, d) - ref) < tol(d), (d, x)
            assert abs(hurwitz_zeta_ds(s, x, d) - ref_ds) < tol(d), (d, x)


def test_hurwitz_ds_examples():
    assert abs(hurwitz_zeta_ds(0, Fraction(1), 50) - NEG_HALF_LOG_2PI) < tol(50)
    assert abs(hurwitz_zeta_ds(0, Fraction(1, 2), 50) - NEG_HALF_LOG2) < tol(50)
    assert abs(hurwitz_zeta_ds(0, Fraction(1, 4), 60) - ZETA_DS_0_1_4) < tol(60)


def test_lerch_value_identity_grid():
    # zeta(0, a/q) = 1/2 - a/q across a modest grid (acceptance runs q <= 50)
    d = 50
    for q in range(1, 13):
        for a in range(1, q + 1):
            expected = Fraction(1, 2) - Fraction(a, q)
            with mp.workprec(prec_bits(d)):
                gap = abs(hurwitz_zeta(0, Fraction(a, q), d) - (mpf(q - 2 * a) / (2 * q)))
            assert gap < tol(d)


def test_lerch_derivative_identity_grid():
    # zeta'(0, a/q) = log Gamma(a/q) - (1/2) log(2 pi): disjoint code paths
    d = 50
    with mp.workprec(prec_bits(d)):
        half_log_2pi = mp.log(2 * mp.pi) / 2
    for q in range(1, 13):
        for a in range(1, q + 1):
            lhs = hurwitz_zeta_ds(0, Fraction(a, q), d)
            rhs = log_gamma_frac(a, q, d) - half_log_2pi
            assert abs(lhs - rhs) < tol(d)


def test_hurwitz_pole_and_domain():
    with pytest.raises(PoleError):
        hurwitz_zeta(1, Fraction(1, 2), 50)
    with pytest.raises(PoleError):
        hurwitz_zeta_ds(Fraction(1), Fraction(1, 2), 50)
    with pytest.raises(ValidationError):
        hurwitz_zeta(0, Fraction(3, 2), 50)
    with pytest.raises(ValidationError):
        hurwitz_zeta(0, Fraction(0), 50)
    with pytest.raises(ValidationError):
        hurwitz_zeta(0, Fraction(1, 2), 5)


# The raw bits of L(s, f) and L'(s, f) at 50 digits, frozen from the
# series as it stood when they were taken: a change to the entry steps, the
# working digits or the rounding that moves any bit fails here, where the
# digest tests see only printed digits.
PINNED_F = {
    "dense": (12, {1: 3, 5: Fraction(-1, 2), 7: Fraction(-1, 2), 11: 3}),
    "sparse": (100003, {7: 2, 100003: Fraction(-1, 3)}),
}
PINNED_BITS = {
    ("dense", "value", "-1/2"): (1, 628511630328615723343373381630073865407396191826553496863439, -198, 199),
    ("dense", "value", "1/3"): (0, 451073393595109540371545196622047680347492545805662147481973, -199, 199),
    ("dense", "value", "3/4"): (0, 129824430824394320427121644541148252036696338132779037750465, -199, 197),
    ("dense", "value", "7/2"): (0, 301179814640236893925651914598160290927840205693665075714081, -196, 198),
    ("dense", "value", "-1"): (1, 744882739265886117308513678220643081377479512743065428863659, -197, 199),
    ("dense", "deriv", "0"): (0, 462934007212205783060224927640774544143703198192603027575299, -197, 199),
    ("dense", "deriv", "1/3"): (0, 795299462663861419601151240093122893181534989765231041125407, -199, 199),
    ("sparse", "value", "-1/2"): (1, 327376367377489606185980903463490842777392745429314223220099, -191, 198),
    ("sparse", "value", "1/3"): (0, 202988807795766550862490555619848097354778548674129799949147, -197, 198),
    ("sparse", "value", "3/4"): (0, 372581617002454676908645610192329824007974251373883998430565, -199, 198),
    ("sparse", "value", "7/2"): (0, 453310687202764615952153494585319067294574913114052530356133, -207, 199),
    ("sparse", "value", "-1"): (1, 340393153787630925370206733375119377113514107693213330226875, -184, 198),
    ("sparse", "deriv", "0"): (0, 419036814656622377888384233978649398177816937159166989602219, -196, 199),
    ("sparse", "deriv", "1/3"): (1, 343487677872521534595222286878840621884193057854270424914215, -197, 198),
}


@pytest.mark.parametrize("key", sorted(PINNED_BITS), ids=lambda k: f"{k[0]}-{k[1]}-s={k[2]}")
def test_periodic_series_keep_their_bits(key):
    name, series, s = key
    q, values = PINNED_F[name]
    fn = periodic_zeta if series == "value" else periodic_zeta_ds
    assert fn(Fraction(s), q, values, 50)._mpf_ == PINNED_BITS[key]


@pytest.mark.parametrize("fn", [periodic_zeta, periodic_zeta_ds])
def test_periodic_series_entry(fn):
    # no non-zero value gives exactly 0 at any s but the pole, which both reject
    assert fn(Fraction(1, 3), 12, {1: 0, 5: Fraction(0)}, 50) == 0
    assert fn(Fraction(1, 3), 12, {}, 50) == 0
    with pytest.raises(PoleError):
        fn(1, 12, {1: 1}, 50)


def test_derivative_finite_difference_consistency():
    # (zeta(h, x) - zeta(-h, x)) / 2h vs zeta'(0, x), h = 1e-10 at d = 60
    h = Fraction(1, 10**10)
    for x in (Fraction(1, 3), Fraction(2, 5)):
        plus = hurwitz_zeta(h, x, 60)
        minus = hurwitz_zeta(-h, x, 60)
        with mp.workprec(prec_bits(60)):
            central = (plus - minus) / (2 * mpf(10) ** -10)
        assert abs(central - hurwitz_zeta_ds(0, x, 60)) < mpf(10) ** -15


# ---------------------------------------------------------------------------
# Coefficient tables

def _exact_em_coefficients(s, n):
    """(C_k(s), D_k(s)) for k = 1..n, exactly."""
    out, rising, d_rising = [], s, Fraction(1)
    for k in range(1, n + 1):
        coeff = bernoulli(2 * k) / factorial(2 * k)
        out.append((coeff * rising, coeff * d_rising))
        f1, f2 = s + 2 * k - 1, s + 2 * k
        rising, d_rising = rising * f1 * f2, d_rising * f1 * f2 + rising * (f1 + f2)
    return out


def _tail_bound(coefficients, ms, den, weights, point):
    """The bound ``_bernoulli_tails`` states, in units of 2^-point, and the exact series.

    The series runs with the exact coefficients until its size, which the
    docstring defines, falls below 2^-40 units; the number of terms K in
    the bound is the count until that size falls below 1 unit, plus 2.
    Returns (bound, exact series, the largest of the K terms' coefficients).
    """
    r = Fraction(den, min(ms))
    total_w = Fraction(sum(map(abs, weights)), 1 << point)
    exact, k_units, k = Fraction(0), None, 0
    for k, c in enumerate(coefficients, 1):
        size = abs(c) * total_w * r ** (2 * k - 1) * (1 << point)
        if size < 1 and k_units is None:
            k_units = k
        if size < Fraction(1, 1 << 40):
            break
        for m, w in zip(ms, weights):
            exact += c * w * Fraction(den, m) ** (2 * k - 1)
    else:
        raise AssertionError("too few coefficients for the exact series")
    big_k, w_min = k_units + 2, Fraction(min(ms), den)
    bound = big_k + 1 + total_w / (2 * (w_min - 1))
    largest = max(map(abs, coefficients[:big_k]))
    return bound, exact, largest


@pytest.mark.parametrize("d", (50, 240))
def test_bernoulli_tails_batch_against_one_residue_calls(d):
    # one call over n residues agrees with its n one-residue calls, and
    # each with the exact series, within the bound the docstring states;
    # the value and derivative columns, the s = 0 derivative column
    # B_2k/(2k(2k-1)) of Stirling's series, and at s = 30 columns whose
    # coefficients grow far past 2^prec, where the width has to widen.
    # The derivative's tail is two one-column calls: the D_k with the
    # weights W_a, and the C_k with the weights floor(W_a lam_a), lam_a
    # the logs of the m_a, at s = 1/3 also with the logs of m near 10^9,
    # lam about 21, as log m_a is at a large q.
    # A cutoff of 0 sums each series until its size falls below one unit,
    # which the shift N >= 100 lets it reach at s = 30 too
    point = prec_bits(d) + numkernel.TAIL_EXTRA_BITS
    q, n_shift = 41, max(100, numkernel._em_first_shift(d))
    ms = [n_shift * q + a for a in (1, 5, 20, 40, 41)]
    # the least m has the smallest weight, so a size from one residue stops early
    weights = [(1 << point) // 1000, -(1 << point) // 7, (5 << point) // 2, -(2 << point), 3 << point]
    with mp.workprec(point + 20):
        logs = [int(mp.floor(mp.log(mpf(m) / q) * 2 ** point)) for m in ms]
        large_logs = [int(mp.floor(mp.log(10**9 + m) * 2 ** point)) for m in ms]
    stirling = [bernoulli(2 * k) / (2 * k * (2 * k - 1)) for k in range(1, 400)]
    cases = [("derivative s=0", Fraction(0), 1, stirling, weights)]
    for s in (Fraction(1, 3), Fraction(30)):
        exact = _exact_em_coefficients(s, 400)
        values, derivatives = [c for c, _ in exact], [d_k for _, d_k in exact]
        cases += [(f"value s={s}", s, 0, values, weights),
                  (f"derivative s={s}", s, 1, derivatives, weights),
                  (f"derivative s={s}, log weights", s, 0, values,
                   [w * lam >> point for w, lam in zip(weights, logs)])]
        if s < 1:
            cases.append((f"derivative s={s}, log weights near 10^9", s, 0, values,
                          [w * lam >> point for w, lam in zip(weights, large_logs)]))
    for name, s, column, coefficients, ws in cases:
        def table(n, s=s, column=column):
            return numkernel._em_table(point, s, n)[column]
        batch = numkernel._bernoulli_tails(table, ms, q, point, 0, ws)
        bound, exact, largest = _tail_bound(coefficients, ms, q, ws, point)
        assert abs(batch - exact) <= bound, (name, float(abs(batch - exact)), float(bound))
        singles, single_bounds = 0, 0
        for m, w in zip(ms, ws):
            single = numkernel._bernoulli_tails(table, [m], q, point, 0, [w])
            single_bound, single_exact, _ = _tail_bound(coefficients, [m], q, [w], point)
            assert abs(single - single_exact) <= single_bound, (name, m)
            singles += single
            single_bounds += single_bound
        assert abs(batch - singles) <= bound + single_bounds, (name, float(abs(batch - singles)))
        if "30" in name:
            assert largest > 2 ** point, name


def _table_snapshot():
    return dict(numkernel._em_tables)


def test_threaded_table_fill_matches_single_threaded(empty_tables):
    s = Fraction(3, 4)
    points = (prec_bits(12), prec_bits(300))
    sizes = [3, 40, 17, 130, 64, 1, 90, 129, 33]

    def fill(i):
        order = sizes[i % len(sizes):] + sizes[:i % len(sizes)]
        for n in order:
            for point in points[i % 2:] + points[:i % 2]:
                numkernel._em_table(point, s, n)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # the fill reads no global precision, so a low one here changes nothing
        with mp.workprec(20), concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fill, i) for i in range(16)]
            for fut in futures:
                fut.result(timeout=300)
    finally:
        sys.setswitchinterval(switch)
    threaded = _table_snapshot()

    with numkernel._bern_lock:
        numkernel._em_tables.clear()
    for point in points:
        numkernel._em_table(point, s, max(sizes))
    single = _table_snapshot()
    assert sorted(threaded) == sorted(single) == [(p, s) for p in sorted(points)]
    # a table holds "at least n" entries, so the interleaving decides where
    # the threaded fill stopped; over the common length the entries agree
    pairs = [(threaded[key][i], single[key][i]) for key in threaded for i in (0, 1)]
    for entries, reference in pairs:
        assert len(entries) >= max(sizes)
        n = min(len(entries), len(reference))
        assert entries[:n] == reference[:n]


def test_table_entries_rounded_at_their_precision(empty_tables):
    # every entry is its exact rational at the table's fixed point,
    # correctly rounded, ties to even
    point = prec_bits(50)
    stirling = numkernel._em_table(point, Fraction(0), 30)[1]
    for k in range(1, 31):
        # D_k(0) = B_2k/(2k)! (2k - 2)!, the coefficient of Stirling's series
        assert stirling[k - 1] == round(bernoulli(2 * k) / (2 * k * (2 * k - 1)) * 2 ** point)
    for s in (Fraction(3, 4), Fraction(-7, 3)):
        em_c, em_d = numkernel._em_table(point, s, 30)
        rising, d_rising = s, Fraction(1)
        for k in range(1, 31):
            b = bernoulli(2 * k)
            coeff = b / factorial(2 * k)
            assert em_c[k - 1] == round(coeff * rising * 2 ** point), (s, k)
            assert em_d[k - 1] == round(coeff * d_rising * 2 ** point), (s, k)
            f1, f2 = s + 2 * k - 1, s + 2 * k
            rising, d_rising = rising * f1 * f2, d_rising * f1 * f2 + rising * (f1 + f2)


def test_table_count_bounded(empty_tables):
    point = prec_bits(12)
    keys = [Fraction(k, 4) for k in range(numkernel.MAX_TABLES + 3)]
    for s in keys:
        numkernel._em_table(point, s, 1)
    assert len(numkernel._em_tables) == numkernel.MAX_TABLES
    assert (point, keys[0]) not in numkernel._em_tables
    assert (point, keys[-1]) in numkernel._em_tables


# ---------------------------------------------------------------------------
# Precision contract and constants

def test_precision_contract(rng):
    # |value(d) - value(2d)| < 10^(-d+5) on a randomized grid
    for _ in range(12):
        q = rng.randint(2, 40)
        a = rng.randint(1, q - 1)
        d = rng.choice((15, 30, 50))
        x = Fraction(a, q)
        s = rng.choice([0, 2, Fraction(-1, 2)])
        pairs = [
            (two_sin_pi(a, q, d), two_sin_pi(a, q, 2 * d)),
            (log_gamma_frac(a, q, d), log_gamma_frac(a, q, 2 * d)),
            (hurwitz_zeta(s, x, d), hurwitz_zeta(s, x, 2 * d)),
            (hurwitz_zeta_ds(s, x, d), hurwitz_zeta_ds(s, x, 2 * d)),
        ]
        for lo, hi in pairs:
            assert abs(lo - hi) < tol(d)


def test_constants():
    with mp.workprec(400):
        assert abs(pi_const(100) - mp.pi) < mpf(10) ** -95
        assert abs(log2_const(100) - mp.ln2) < mpf(10) ** -95


def test_digit_floor_enforced():
    with pytest.raises(ValidationError):
        two_sin_pi(1, 4, 9)
    with pytest.raises(ValidationError):
        pi_const(0)


@pytest.mark.parametrize("call, message", [
    (lambda: two_sin_pi(1, 1, 20), "q must be >= 2"),
    (lambda: log_gamma_frac(1, 0, 20), "q must be >= 1"),
    (lambda: hurwitz_zeta(2, 0.5, 20), "x must be a Fraction"),
    (lambda: hurwitz_zeta_ds(2, 1, 20), "x must be a Fraction"),
    # an integer argument is an int and not a bool, and s is a real number
    (lambda: two_sin_pi(1.5, 3, 50), "argument a must be >= 1"),
    (lambda: two_sin_pi(True, 3, 50), "argument a must be >= 1"),
    (lambda: two_sin_pi(1, 3.0, 50), "q must be >= 2"),
    (lambda: two_sin_pi(1, "3", 50), "q must be >= 2"),
    (lambda: bernoulli(True), "Bernoulli index must be >= 0"),
    (lambda: hurwitz_zeta("2", Fraction(1, 3), 50), "s must be a real number"),
    (lambda: hurwitz_zeta(True, Fraction(1, 3), 50), "s must be a real number"),
    (lambda: hurwitz_zeta_ds(None, Fraction(1, 3), 50), "s must be a real number"),
    (lambda: periodic_zeta(2j, 5, {1: Fraction(1)}, 50), "s must be a real number"),
], ids=["two_sin_pi-q", "log_gamma_frac-q", "hurwitz_zeta-x", "hurwitz_zeta_ds-x",
        "two_sin_pi-float-a", "two_sin_pi-bool-a", "two_sin_pi-float-q", "two_sin_pi-str-q",
        "bernoulli-bool", "hurwitz_zeta-str-s", "hurwitz_zeta-bool-s", "hurwitz_zeta_ds-none-s",
        "periodic_zeta-complex-s"])
def test_rejected_arguments(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
