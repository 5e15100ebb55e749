"""Arbitrary-precision numeric kernel.

Real values are mpmath ``mpf`` floats (binary mantissa/exponent) computed
under an explicit decimal-digit working precision ``d``: every public
operation takes ``d`` and evaluates with ceil(d*log2(10)) + 32 bits, i.e.
roughly ten guard digits beyond the request.  The accuracy contract is
uniform: a value computed at ``d`` digits agrees with the same value at
``2d`` digits to within 10**(-d+5).

The four special functions every other module needs live here:

* exact Bernoulli numbers (cached),
* 2*sin(a*pi/q),
* log Gamma(a/q) by an argument-shifted Stirling series,
* the Hurwitz zeta function zeta(s, x) and its s-derivative by
  Euler-Maclaurin summation, valid for real s != 1 and 0 < x <= 1.

All functions are pure and their returned values are immutable and safe
to hand between threads.  Shared state is the Bernoulli cache (lock
guarded, idempotent fills) and mpmath's process-global precision
context, which ``working_prec`` adjusts re-entrantly: callers running
evaluations concurrently from several threads should serialize the
calls or pin a single precision per process.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from fractions import Fraction
from typing import Union

from mpmath import mp, mpf

from .errors import ConvergenceError, PoleError, ValidationError

RealLike = Union[int, float, Fraction, mpf]

MIN_DIGITS = 10
GUARD_BITS = 32

#: Truncation target is 10**(-(d + EXTRA_DIGITS)) so series error stays
#: far below the 10**(-d+5) contract.
EXTRA_DIGITS = 10


def prec_bits(digits: int) -> int:
    """Binary working precision for a decimal-digit request."""
    require_digits(digits)
    return math.ceil(digits * math.log2(10)) + GUARD_BITS


def require_digits(digits: int) -> None:
    if not isinstance(digits, int) or digits < MIN_DIGITS:
        raise ValidationError(
            f"precision must be an integer >= {MIN_DIGITS} decimal digits, got {digits!r}"
        )


@contextmanager
def working_prec(digits: int):
    """Context manager setting the uniform guarded binary precision."""
    with mp.workprec(prec_bits(digits)):
        yield


def to_mpf(value: RealLike) -> mpf:
    """Convert at the current working precision (Fractions divide once)."""
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)


def pi_const(digits: int) -> mpf:
    """pi at d digits."""
    with working_prec(digits):
        return +mp.pi


def log2_const(digits: int) -> mpf:
    """log 2 at d digits."""
    with working_prec(digits):
        return +mp.ln2


# ---------------------------------------------------------------------------
# Bernoulli numbers

_bern_lock = threading.Lock()
_bern_even: list[Fraction] = [Fraction(1)]  # _bern_even[m] == B_{2m}


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n as an exact fraction, B_1 = -1/2 convention.

    Even-index values come from the binomial recurrence
    sum_{k=0}^{m} C(m+1, k) B_k = 0 restricted to even k (the odd ones
    vanish for k >= 3); results are cached, so repeated calls are O(1).
    """
    if not isinstance(n, int) or n < 0:
        raise ValidationError(f"Bernoulli index must be a non-negative integer, got {n!r}")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    m = n // 2
    if m >= len(_bern_even):
        with _bern_lock:
            # re-check under the lock; concurrent fills are idempotent
            local = list(_bern_even)
            for j in range(len(local), m + 1):
                nn = 2 * j
                acc = Fraction(nn + 1, -2)  # the B_1 term of the recurrence
                for i in range(j):
                    acc += math.comb(nn + 1, 2 * i) * local[i]
                local.append(-acc / (nn + 1))
            _bern_even[:] = local
    return _bern_even[m]


# ---------------------------------------------------------------------------
# Elementary special values

def two_sin_pi(a: int, q: int, digits: int) -> mpf:
    """2*sin(a*pi/q) at d digits; requires 0 < a < q, so strictly positive."""
    if q < 2:
        raise ValidationError(f"denominator q must be >= 2, got {q}")
    if not 0 < a < q:
        raise ValidationError(f"argument a must satisfy 0 < a < q, got a={a}, q={q}")
    with working_prec(digits):
        return 2 * mp.sin(mp.pi * a / q)


def log_gamma_frac(a: int, q: int, digits: int) -> mpf:
    """log Gamma(a/q) at d digits by the shifted Stirling series.

    The argument x = a/q is shifted by an integer m until x + m exceeds
    1.2*d, where the asymptotic series truncates below the error target
    before its divergent turn; the shift is undone with log(x), ...,
    log(x+m-1).
    """
    if q < 1:
        raise ValidationError(f"denominator q must be >= 1, got {q}")
    if a <= 0:
        raise ValidationError(f"numerator a must be positive, got {a}")
    if a > q:
        raise ValidationError(f"argument a/q must lie in (0, 1], got {a}/{q}")
    require_digits(digits)
    threshold = 1.2 * digits
    shift = max(0, math.ceil(threshold - a / q))
    with working_prec(digits):
        x = mpf(a) / q
        w = x + shift
        lw = mp.log(w)
        value = (w - mpf(1) / 2) * lw - w + mp.log(2 * mp.pi) / 2
        target = mpf(10) ** (-(digits + EXTRA_DIGITS))
        winv2 = 1 / (w * w)
        wpow = 1 / w  # w**(-(2k-1)) at k = 1
        prev = mp.inf
        k = 1
        while True:
            b = bernoulli(2 * k)
            term = mpf(b.numerator) / (b.denominator * (2 * k) * (2 * k - 1)) * wpow
            size = abs(term)
            if size < target:
                break
            if size > prev:
                raise ConvergenceError(
                    f"Stirling series for log Gamma({a}/{q}) diverged before reaching "
                    f"10^-{digits + EXTRA_DIGITS}; shift threshold too small"
                )
            prev = size
            value += term
            wpow *= winv2
            k += 1
        for j in range(shift):
            value -= mp.log(x + j)
        return value


# ---------------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin

def _check_hurwitz_args(s: RealLike, x: Fraction, digits: int) -> None:
    require_digits(digits)
    if not isinstance(x, Fraction):
        raise ValidationError(f"x must be a Fraction, got {type(x).__name__}")
    if not 0 < x <= 1:
        raise ValidationError(f"x must lie in (0, 1], got {x}")
    if s == 1:
        raise PoleError("Hurwitz zeta has a simple pole at s = 1")


def hurwitz_zeta(s: RealLike, x: Fraction, digits: int) -> mpf:
    """zeta(s, x) = sum_{n>=0} (n+x)^(-s) at d digits, real s != 1.

    Euler-Maclaurin: partial sum to N, integral term (N+x)^(1-s)/(s-1),
    half-term, then the Bernoulli tail.  N starts at max(10, 0.8*d) and
    doubles until the first neglected tail term is below 10**(-d-10);
    past 64*d the evaluation is abandoned as non-convergent.
    """
    _check_hurwitz_args(s, x, digits)
    return _euler_maclaurin(s, x, digits, derivative=False)


def hurwitz_zeta_ds(s: RealLike, x: Fraction, digits: int) -> mpf:
    """d/ds zeta(s, x) at d digits, by term-wise differentiation.

    Every Euler-Maclaurin term picks up a -log(n+x) factor; the rising
    factorials in the Bernoulli tail differentiate by the product rule,
    so the same N / tail-length policy as ``hurwitz_zeta`` applies to
    the differentiated terms.
    """
    _check_hurwitz_args(s, x, digits)
    return _euler_maclaurin(s, x, digits, derivative=True)


def _euler_maclaurin(s: RealLike, x: Fraction, digits: int, derivative: bool) -> mpf:
    with working_prec(digits):
        sm = to_mpf(s)
        target = mpf(10) ** (-(digits + EXTRA_DIGITS))
        n_shift = max(10, math.ceil(0.8 * digits))
        n_cap = 64 * digits
        while True:
            value = _em_attempt(sm, x, n_shift, target, derivative)
            if value is not None:
                return value
            if n_shift >= n_cap:
                raise ConvergenceError(
                    f"Euler-Maclaurin tail for zeta(s={sm}, x={x}) did not fall below "
                    f"10^-{digits + EXTRA_DIGITS} with shift up to {n_cap}"
                )
            n_shift = min(2 * n_shift, n_cap)


def _em_attempt(s: mpf, x: Fraction, n_shift: int, target: mpf, derivative: bool):
    """One Euler-Maclaurin evaluation at fixed shift; None if the tail grows."""
    num, den = x.numerator, x.denominator
    head = mpf(0)
    for n in range(n_shift):
        base = mpf(n * den + num) / den
        p = mp.power(base, -s)
        head += -mp.log(base) * p if derivative else p

    w = mpf(n_shift * den + num) / den
    lw = mp.log(w)
    a_int = mp.power(w, 1 - s)
    w_neg_s = mp.power(w, -s)
    if derivative:
        integral = -a_int * (lw * (s - 1) + 1) / (s - 1) ** 2
        half = -lw * w_neg_s / 2
    else:
        integral = a_int / (s - 1)
        half = w_neg_s / 2

    # Bernoulli tail: B_{2k}/(2k)! * R_k(s) * w^(-s-2k+1) with the rising
    # factorial R_k(s) = s(s+1)...(s+2k-2) carried with its s-derivative.
    rising = s
    d_rising = mpf(1)
    wpow = w_neg_s / w
    winv2 = 1 / (w * w)
    tail = mpf(0)
    prev = mp.inf
    k = 1
    while True:
        b = bernoulli(2 * k)
        coeff = mpf(b.numerator) / (b.denominator * mpf(math.factorial(2 * k)))
        term = coeff * rising * wpow
        if derivative:
            d_term = coeff * (d_rising - rising * lw) * wpow
            size = max(abs(term), abs(d_term))
        else:
            size = abs(term)
        if size < target:
            break
        if size > prev or k > 10_000:
            return None
        prev = size
        tail += d_term if derivative else term
        f1 = s + (2 * k - 1)
        f2 = s + 2 * k
        d_rising = d_rising * f1 * f2 + rising * (f1 + f2)
        rising = rising * f1 * f2
        wpow *= winv2
        k += 1
    return head + integral + half + tail
