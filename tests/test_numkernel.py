"""Numeric kernel tests: exactness, frozen oracle values, precision contract."""

import concurrent.futures
import random
import sys
from fractions import Fraction
from math import factorial, gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from lprime import numkernel
from lprime.errors import PoleError, ValidationError
from lprime.numkernel import (
    bernoulli,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    log2_const,
    log_gamma_frac,
    pi_const,
    prec_bits,
    two_sin_pi,
)

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
        numkernel._stirling_tables.clear()
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
    # shifts of about 144, 288 and 360 terms, undone by one log of their product
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
    """``_em_attempt`` at ``factor`` times the default shift, as a plain mpf."""
    ctx = numkernel.context(d)
    target = ctx.mpf(10) ** (-(d + numkernel.EXTRA_DIGITS))
    n_shift = factor * numkernel._em_first_shift(d)
    value = numkernel._em_attempt(ctx, Fraction(s), x, n_shift, target, derivative)
    assert value is not None, (s, x, d, factor)
    return numkernel.plain_mpf(value)


@pytest.mark.parametrize("d", (50, 120, 240))
def test_hurwitz_integer_s_grid_against_mpmath(d):
    # integer s takes the exact head: value at s in -3..5, derivative at
    # s = -1, 0, 2, each also at the retry shifts 2N and 4N
    cases = [(s, False) for s in (-3, -2, -1, 0, 2, 3, 5)] + [(s, True) for s in (-1, 0, 2)]
    for x in INTEGER_S_GRID_X:
        for s, derivative in cases:
            mine = (hurwitz_zeta_ds if derivative else hurwitz_zeta)(s, x, d)
            with mp.workprec(prec_bits(d) + 40):
                ref = mp.zeta(s, mpf(x.numerator) / x.denominator, int(derivative))
            assert abs(mine - ref) < tol(d), (s, x, d, derivative)
            for factor in (2, 4):
                assert abs(_em_at_shift(s, x, d, derivative, factor) - mine) < tol(d), (s, x, d, factor)


#: Rational s with the head of integer roots (v = 2, 3, 4), and -5/29,
#: whose roots would cost more than the powers at every d here.
RATIONAL_S_GRID = (Fraction(-7, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(3, 4),
                   Fraction(7, 2), Fraction(13, 3))
PAST_ROOT_BOUND = Fraction(-5, 29)


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


def test_hurwitz_same_exact_s_same_bits(root_calls):
    # Fraction(1, 2), mpf("0.5") and 0.5 are one exact value and take one
    # route; 1/3 rounded to an mpf is dyadic, so it takes the power loop
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

def _table_snapshot():
    return ({bits: [c._mpf_ for c in table] for bits, table in numkernel._stirling_tables.items()},
            {key: ([(c._mpf_, dc._mpf_) for c, dc in entries], rising._mpf_, d_rising._mpf_)
             for key, (entries, rising, d_rising) in numkernel._em_tables.items()})


def test_threaded_table_fill_matches_single_threaded(empty_tables):
    s = mpf(3) / 4
    contexts = (numkernel.context(12), numkernel.context(300))
    bits = tuple(ctx.prec for ctx in contexts)
    sizes = [3, 40, 17, 130, 64, 1, 90, 129, 33]

    def fill(i):
        order = sizes[i % len(sizes):] + sizes[:i % len(sizes)]
        for n in order:
            for ctx in contexts[i % 2:] + contexts[:i % 2]:
                numkernel._stirling_table(ctx, n)
                numkernel._em_table(ctx, s, n)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # a fill that read mpmath's global precision would round at 20 bits here
        with mp.workprec(20), concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fill, i) for i in range(16)]
            for fut in futures:
                fut.result(timeout=300)
    finally:
        sys.setswitchinterval(switch)
    threaded = _table_snapshot()

    with numkernel._bern_lock:
        numkernel._stirling_tables.clear()
        numkernel._em_tables.clear()
    for ctx in contexts:
        numkernel._stirling_table(ctx, max(sizes))
        numkernel._em_table(ctx, s, max(sizes))
    single = _table_snapshot()
    assert sorted(threaded[0]) == sorted(single[0]) == sorted(bits)
    assert sorted(threaded[1]) == sorted(single[1]) == [(b, s._mpf_) for b in sorted(bits)]
    # a table holds "at least n" entries, so the interleaving decides where
    # the threaded fill stopped; over the common length the entries agree
    pairs = [(threaded[0][b], single[0][b]) for b in bits]
    pairs += [(threaded[1][key][0], single[1][key][0]) for key in threaded[1]]
    for entries, reference in pairs:
        assert len(entries) >= max(sizes)
        n = min(len(entries), len(reference))
        assert entries[:n] == reference[:n]


def test_table_entries_rounded_at_their_precision(empty_tables):
    # against exact rationals: Stirling entries are correctly rounded, and
    # the rising-factorial entries (all factors positive at s = 3/4) carry
    # at most a few roundings per index
    bits = prec_bits(50)
    s = Fraction(3, 4)
    stirling = numkernel._stirling_table(numkernel.context(50), 30)
    em = numkernel._em_table(numkernel.context(50), mpf(3) / 4, 30)
    rising, d_rising = s, Fraction(1)
    for k in range(1, 31):
        b = bernoulli(2 * k)
        exact = b / (2 * k * (2 * k - 1))
        assert stirling[k - 1]._mpf_ == from_rational(exact.numerator, exact.denominator, bits, round_nearest)
        coeff = b / factorial(2 * k)
        with mp.workprec(bits + 100):
            for entry, value in zip(em[k - 1], (coeff * rising, coeff * d_rising)):
                value = mpf(value.numerator) / value.denominator
                assert abs(entry - value) <= abs(value) * mpf(2) ** (8 + k - bits)
        f1, f2 = s + 2 * k - 1, s + 2 * k
        rising, d_rising = rising * f1 * f2, d_rising * f1 * f2 + rising * (f1 + f2)


def test_table_count_bounded(empty_tables):
    bits = prec_bits(12)
    keys = [mpf(k) / 4 for k in range(numkernel.MAX_TABLES + 3)]
    for s in keys:
        numkernel._em_table(numkernel.context(12), s, 1)
    assert len(numkernel._em_tables) == numkernel.MAX_TABLES
    assert (bits, keys[0]._mpf_) not in numkernel._em_tables
    assert (bits, keys[-1]._mpf_) in numkernel._em_tables


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
