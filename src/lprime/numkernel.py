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
  Euler-Maclaurin summation, valid for finite real s != 1 and
  0 < x <= 1.  The head sum_{n<N} (n+x)^(-s) is exact at integer s of
  moderate size: one rational, rounded once, for zeta(s, x), and one log
  of an exact integer product for zeta'(0, x).  Other heads take a power
  (and for the derivative a log) per term.

Each working precision has its own mpmath context, ``context(d)``: an
``MPContext`` at the guarded precision for ``d``, built on first use and
never changed after that.  All arithmetic runs in the context of the
requested precision, and every public function returns a plain mpmath
``mpf`` converted from it without rounding.  mpmath's global precision
is never read or set, so the result of a call does not depend on the
caller's ambient precision, and calls at different precisions may run
concurrently from several threads.

All functions are pure and their returned values are immutable and safe
to hand between threads.  Shared state is:

* the contexts, at most ``MAX_TABLES`` of them;
* the exact Bernoulli cache;
* the series coefficient tables, filled on first use: the Stirling
  coefficients B_2k/(2k(2k-1)) per binary precision, and the
  Euler-Maclaurin coefficients C_k(s) = B_2k/(2k)! * s(s+1)...(s+2k-2)
  with their s-derivatives D_k(s) per (precision, s).  At most
  ``MAX_TABLES`` tables of each kind are kept; the oldest goes first.

The cache and the tables grow under ``_bern_lock``: a fill builds a new
list and publishes it whole, and computes every entry in the context of
its key's precision.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from typing import Union

from mpmath import mp, mpf
from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_rational, round_nearest

from .errors import ConvergenceError, PoleError, ValidationError

RealLike = Union[int, float, Fraction, mpf]

MIN_DIGITS = 10
GUARD_BITS = 32

#: Truncation target is 10**(-(d + EXTRA_DIGITS)) so series error stays
#: far below the 10**(-d+5) contract.
EXTRA_DIGITS = 10

#: Most contexts, and coefficient tables of each kind, kept at once; the
#: oldest is dropped beyond this.  A table at 240 digits holds about 110
#: entries.
MAX_TABLES = 64
#: Entries a coefficient table grows by past the index asked for, so a
#: first evaluation fills its table in a few steps rather than one per term.
TABLE_CHUNK = 16
#: Largest exact Euler-Maclaurin head at integer s, measured as
#: |s| * N * bits(m) for its largest term m.  Beyond it (|s| above about 20
#: at 240 digits, about 100 at 50 digits) the exact integers cost more than
#: a power per term, and they grow without bound in |s|.
_EXACT_HEAD_BITS = 1 << 16


def prec_bits(digits: int) -> int:
    """Binary working precision for a decimal-digit request."""
    require_digits(digits)
    return math.ceil(digits * math.log2(10)) + GUARD_BITS


def require_digits(digits: int) -> None:
    if not isinstance(digits, int) or digits < MIN_DIGITS:
        raise ValidationError(
            f"precision must be an integer >= {MIN_DIGITS} decimal digits, got {digits!r}"
        )


@functools.lru_cache(maxsize=MAX_TABLES)
def context(digits: int) -> MPContext:
    """The mpmath context at the guarded precision for ``digits``.

    Built on first use and never changed after that, so it can be shared
    between threads.
    """
    ctx = MPContext()
    ctx.prec = prec_bits(digits)
    return ctx


def to_mpf(value: RealLike, ctx: MPContext):
    """Convert into ``ctx`` at its precision (Fractions divide once)."""
    if isinstance(value, Fraction):
        return ctx.mpf(value.numerator) / value.denominator
    return ctx.mpf(value)


def plain_mpf(value) -> mpf:
    """A context value as a plain mpmath ``mpf``, bit for bit."""
    return mp.make_mpf(value._mpf_)


def pi_const(digits: int) -> mpf:
    """pi at d digits."""
    return plain_mpf(+context(digits).pi)


def log2_const(digits: int) -> mpf:
    """log 2 at d digits."""
    return plain_mpf(+context(digits).ln2)


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
# Series coefficient tables

_stirling_tables: dict[int, list[mpf]] = {}
_em_tables: dict[tuple[int, tuple], tuple[list[tuple[mpf, mpf]], mpf, mpf]] = {}


def _publish(tables: dict, key, table) -> None:
    """Store a grown table whole (caller holds ``_bern_lock``)."""
    if key not in tables and len(tables) >= MAX_TABLES:
        del tables[next(iter(tables))]
    tables[key] = table


def _stirling_table(ctx: MPContext, n: int) -> list[mpf]:
    """B_2k / (2k(2k-1)) for k = 1..n (at least), rounded in ``ctx``."""
    bits = ctx.prec
    table = _stirling_tables.get(bits)
    if table is not None and len(table) >= n:
        return table
    size = n + TABLE_CHUNK
    bernoulli(2 * size)  # fill the exact cache before taking its lock
    with _bern_lock:
        table = list(_stirling_tables.get(bits, ()))
        for k in range(len(table) + 1, size + 1):
            b = _bern_even[k]
            raw = from_rational(b.numerator, b.denominator * (2 * k) * (2 * k - 1), bits, round_nearest)
            table.append(ctx.make_mpf(raw))
        _publish(_stirling_tables, bits, table)
    return table


def _em_table(ctx: MPContext, s: mpf, n: int) -> list[tuple[mpf, mpf]]:
    """(C_k(s), D_k(s)) for k = 1..n (at least), rounded in ``ctx``.

    C_k(s) = B_2k/(2k)! * R_k(s) with the rising factorial
    R_k(s) = s(s+1)...(s+2k-2), and D_k(s) = dC_k/ds.  Each table keeps
    R and dR/ds at its next index so that it can grow.
    """
    bits = ctx.prec
    s = ctx.convert(s)
    key = (bits, s._mpf_)
    table = _em_tables.get(key)
    if table is not None and len(table[0]) >= n:
        return table[0]
    size = n + TABLE_CHUNK
    bernoulli(2 * size)  # fill the exact cache before taking its lock
    with _bern_lock:
        entries, rising, d_rising = _em_tables.get(key, ([], s, ctx.one))
        entries = list(entries)
        for k in range(len(entries) + 1, size + 1):
            b = _bern_even[k]
            coeff = ctx.make_mpf(from_rational(b.numerator, b.denominator * math.factorial(2 * k),
                                               bits, round_nearest))
            entries.append((coeff * rising, coeff * d_rising))
            f1, f2 = s + (2 * k - 1), s + 2 * k
            f12 = f1 * f2
            d_rising = d_rising * f12 + rising * (f1 + f2)
            rising = rising * f12
        _publish(_em_tables, key, (entries, rising, d_rising))
    return entries


# ---------------------------------------------------------------------------
# Elementary special values

def two_sin_pi(a: int, q: int, digits: int) -> mpf:
    """2*sin(a*pi/q) at d digits; requires 0 < a < q, so strictly positive."""
    if q < 2:
        raise ValidationError(f"denominator q must be >= 2, got {q}")
    if not 0 < a < q:
        raise ValidationError(f"argument a must satisfy 0 < a < q, got a={a}, q={q}")
    ctx = context(digits)
    return plain_mpf(2 * ctx.sin(ctx.pi * a / q))


def log_gamma_frac(a: int, q: int, digits: int) -> mpf:
    """log Gamma(a/q) at d digits by the shifted Stirling series.

    The argument x = a/q is shifted by an integer m until x + m exceeds
    1.2*d, where the asymptotic series truncates below the error target
    before its divergent turn; the shift is undone with one log of the
    exact integer product a(a+q)...(a+(m-1)q) = q^m x(x+1)...(x+m-1),
    minus m*log(q).
    """
    if q < 1:
        raise ValidationError(f"denominator q must be >= 1, got {q}")
    if a <= 0:
        raise ValidationError(f"numerator a must be positive, got {a}")
    if a > q:
        raise ValidationError(f"argument a/q must lie in (0, 1], got {a}/{q}")
    ctx = context(digits)
    threshold = 1.2 * digits
    shift = max(0, math.ceil(threshold - a / q))
    w = ctx.mpf(a + shift * q) / q
    lw = ctx.log(w)
    value = (w - ctx.mpf(1) / 2) * lw - w + ctx.log(2 * ctx.pi) / 2
    target = ctx.mpf(10) ** (-(digits + EXTRA_DIGITS))
    winv2 = 1 / (w * w)
    wpow = 1 / w  # w**(-(2k-1)) at k = 1
    coeffs = _stirling_table(ctx, 1)
    prev = ctx.inf
    k = 1
    while True:
        if k > len(coeffs):
            coeffs = _stirling_table(ctx, k)
        term = coeffs[k - 1] * wpow
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
    value -= ctx.log(math.prod(range(a, a + shift * q, q))) - shift * ctx.log(q)
    return plain_mpf(value)


# ---------------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin

def _check_hurwitz_args(s: RealLike, x: Fraction, digits: int) -> None:
    require_digits(digits)
    if not isinstance(x, Fraction):
        raise ValidationError(f"x must be a Fraction, got {type(x).__name__}")
    if not 0 < x <= 1:
        raise ValidationError(f"x must lie in (0, 1], got {x}")
    if not mp.isfinite(s):
        raise ValidationError(f"s must be finite, got {s}")
    if s == 1:
        raise PoleError("Hurwitz zeta has a simple pole at s = 1")


def hurwitz_zeta(s: RealLike, x: Fraction, digits: int) -> mpf:
    """zeta(s, x) = sum_{n>=0} (n+x)^(-s) at d digits, finite real s != 1.

    Euler-Maclaurin: partial sum to N, integral term (N+x)^(1-s)/(s-1),
    half-term, then the Bernoulli tail.  N starts at max(10, 0.8*d) and
    doubles until the first neglected tail term is below 10**(-d-10);
    past 64*d the evaluation is abandoned as non-convergent.

    At integer s = k the partial sum runs over the integers m = n*q + a
    for x = a/q: it is sum m^|k| / q^|k| for k <= 0 and q^k sum 1/m^k for
    k > 0, summed exactly and rounded once into the working precision.
    The head then carries one rounding error, half an ulp, where a
    per-term sum carries N of them, so the result stays within
    10**(-d+5).  Non-integer s, and integer s so large that the exact
    integers would cost more than the powers, sum a power per term.
    """
    _check_hurwitz_args(s, x, digits)
    return _euler_maclaurin(s, x, digits, derivative=False)


def hurwitz_zeta_ds(s: RealLike, x: Fraction, digits: int) -> mpf:
    """d/ds zeta(s, x) at d digits, by term-wise differentiation.

    Every Euler-Maclaurin term picks up a -log(n+x) factor; the rising
    factorials in the Bernoulli tail differentiate by the product rule,
    so the same N / tail-length policy as ``hurwitz_zeta`` applies to
    the differentiated terms.

    At s = 0 the partial sum -sum log(m/q), over m = n*q + a for x = a/q,
    is N log(q) - log(m_0 m_1 ... m_{N-1}): one log of an exact integer
    instead of N rounded logs.  Its absolute error is a few ulps of
    log(prod m), a number of size about N log(N q), which costs about 11
    of the 32 guard bits at 240 digits and q = 100, so the result stays
    within 10**(-d+5).  At any other s the head takes a power and a log
    per term.
    """
    _check_hurwitz_args(s, x, digits)
    return _euler_maclaurin(s, x, digits, derivative=True)


def _euler_maclaurin(s: RealLike, x: Fraction, digits: int, derivative: bool) -> mpf:
    ctx = context(digits)
    sm = to_mpf(s, ctx)
    target = ctx.mpf(10) ** (-(digits + EXTRA_DIGITS))
    n_shift = max(10, math.ceil(0.8 * digits))
    n_cap = 64 * digits
    while True:
        value = _em_attempt(ctx, sm, x, n_shift, target, derivative)
        if value is not None:
            return plain_mpf(value)
        if n_shift >= n_cap:
            raise ConvergenceError(
                f"Euler-Maclaurin tail for zeta(s={sm}, x={x}) did not fall below "
                f"10^-{digits + EXTRA_DIGITS} with shift up to {n_cap}"
            )
        n_shift = min(2 * n_shift, n_cap)


def _em_attempt(ctx: MPContext, s: mpf, x: Fraction, n_shift: int, target: mpf, derivative: bool):
    """One Euler-Maclaurin evaluation at fixed shift; None if the tail grows.

    The tail is summed first, so a shift whose tail grows costs no head.
    """
    num, den = x.numerator, x.denominator
    w = ctx.mpf(n_shift * den + num) / den
    lw = ctx.log(w)
    a_int = ctx.power(w, 1 - s)
    w_neg_s = ctx.power(w, -s)
    if derivative:
        integral = -a_int * (lw * (s - 1) + 1) / (s - 1) ** 2
        half = -lw * w_neg_s / 2
    else:
        integral = a_int / (s - 1)
        half = w_neg_s / 2

    # Bernoulli tail: C_k(s) * w^(-s-2k+1), differentiated by the product
    # rule into (D_k(s) - C_k(s) log w) * w^(-s-2k+1).
    coeffs = _em_table(ctx, s, 1)
    wpow = w_neg_s / w
    winv2 = 1 / (w * w)
    tail = ctx.mpf(0)
    prev = ctx.inf
    k = 1
    while True:
        if k > len(coeffs):
            coeffs = _em_table(ctx, s, k)
        c_k, d_k = coeffs[k - 1]
        term = c_k * wpow
        if derivative:
            d_term = (d_k - c_k * lw) * wpow
            size = max(abs(term), abs(d_term))
        else:
            size = abs(term)
        if size < target:
            break
        if size > prev or k > 10_000:
            return None
        prev = size
        tail += d_term if derivative else term
        wpow *= winv2
        k += 1
    return _em_head(ctx, s, num, den, n_shift, derivative) + integral + half + tail


def _em_head(ctx: MPContext, s: mpf, num: int, den: int, n_shift: int, derivative: bool):
    """sum_{n<N} (n+x)^(-s), or its s-derivative, for x = num/den.

    The terms run over the integers m = n*den + num, as (n+x) = m/den.
    At an integer s = k the value is one exact rational, rounded once:
    sum m^|k| / den^|k| for k <= 0, and den^k * top/bottom for k > 0,
    where top/bottom = sum 1/m^k is accumulated in integers without
    reducing.  At s = 0 the derivative is N log(den) - log(prod m).
    """
    ms = range(num, n_shift * den + num, den)
    k = int(s) if s == int(s) else None
    if k is not None and max(abs(k), 1) * n_shift * ms[-1].bit_length() <= _EXACT_HEAD_BITS:
        if not derivative:
            if k <= 0:
                top, bottom = sum(m ** -k for m in ms), den ** -k
            else:
                top, bottom = 0, 1
                for m in ms:
                    power = m ** k
                    top, bottom = top * power + bottom, bottom * power
                top *= den ** k
            return ctx.make_mpf(from_rational(top, bottom, ctx.prec, round_nearest))
        if k == 0:
            return n_shift * ctx.log(den) - ctx.log(math.prod(ms))
    head = ctx.mpf(0)
    for m in ms:
        base = ctx.mpf(m) / den
        p = ctx.power(base, -s)
        head += -ctx.log(base) * p if derivative else p
    return head
