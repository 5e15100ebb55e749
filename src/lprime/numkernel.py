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
  of an exact integer product for zeta'(0, x).  At rational s = u/v with
  a small denominator, zeta(s, x) takes one integer sum of fixed-point
  v-th roots, rounded once, times one power.  Other heads take a power
  (and for the derivative a log) per term.  The route is chosen by the
  exact value of s: an ``mpf`` or ``float`` is a dyadic rational, so
  ``mpf("0.5")``, ``0.5`` and ``Fraction(1, 2)`` give the same bits.

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
from mpmath.libmp import from_rational, round_nearest, to_rational

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
#: Largest exact head at s = u/v, v > 1, measured as v * (v*P + |u|*bits(m))
#: for its largest term m, where v*P + |u|*bits(m) is the size of that
#: term's radicand and P its fixed-point bits.  Near the bound a v-th root
#: costs about as much as a power (v about 9 at 240 digits, 11 at 120, 17
#: at 50); beyond it the powers are cheaper.
_EXACT_ROOT_BITS = 1 << 16


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

    The partial sum runs over the integers m = n*q + a for x = a/q, and
    its route is chosen by the exact value of s:

    * integer s = k: sum m^|k| / q^|k| for k <= 0 and q^k sum 1/m^k for
      k > 0, summed exactly and rounded once into the working precision.
      The head carries one rounding error, half an ulp, where a per-term
      sum carries N of them.
    * s = u/v in lowest terms, v > 1: x^(-s) * sum (a/m)^(u/v), where
      each term is floor(2^P (a/m)^(u/v)), the exact integer v-th root of
      floor(a^u 2^(vP) / m^u) (of m^|u| 2^(vP) / a^|u| for u < 0), with
      P = prec + bits(N).  Every term is at most (u > 0) or at least
      (u < 0) the first, which is 1, so the sum is at least 1 and its N
      floors lose less than N 2^-P <= 2^-prec of it.  The integer sum is
      rounded once and multiplied by one power x^(-s): the head is within
      a few ulps of itself.
    * integer or rational s whose exact integers would cost more than the
      powers (``_EXACT_HEAD_BITS``, ``_EXACT_ROOT_BITS``): a power per term.

    What is left is the cancellation at negative s between the head and
    the integral term, both of size about N^(1-s)/(1-s): it costs about
    log10 N^(1-s) of the ten guard digits.  Over 90 random (s, x, d),
    s in {-7/2, -1/2, 1/3, 3/4, 7/2, 13/3}, the worst error was 3.6e-6 of
    10**(-d+5), at s = -7/2 and 240 digits (N = 192).  Below about s = -11/2 at 240 digits the cancellation
    outgrows the guard digits, whichever head is taken (s = -15/2 misses
    the bound by a factor of about 10^4).  s - 1 in the integral term is
    taken from the exact s, so an s nearer the pole than the working
    precision resolves keeps zeta's 1/(s-1) size; there the bound holds
    relative to |zeta|.
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


def _em_first_shift(digits: int) -> int:
    """The first Euler-Maclaurin shift N at ``digits``; retries double it."""
    return max(10, math.ceil(0.8 * digits))


def _exact_real(value: RealLike) -> Fraction:
    """A finite real value as the exact Fraction it denotes.

    An ``mpf`` or a ``float`` is a dyadic rational, so nothing is rounded:
    ``mpf("0.5")``, ``0.5`` and ``Fraction(1, 2)`` give the same Fraction.
    """
    if isinstance(value, (int, float, Fraction)):
        return Fraction(value)
    return Fraction(*to_rational(value._mpf_))


def _euler_maclaurin(s: RealLike, x: Fraction, digits: int, derivative: bool) -> mpf:
    ctx = context(digits)
    s = _exact_real(s)
    target = ctx.mpf(10) ** (-(digits + EXTRA_DIGITS))
    n_shift = _em_first_shift(digits)
    n_cap = 64 * digits
    while True:
        value = _em_attempt(ctx, s, x, n_shift, target, derivative)
        if value is not None:
            return plain_mpf(value)
        if n_shift >= n_cap:
            raise ConvergenceError(
                f"Euler-Maclaurin tail for zeta(s={s}, x={x}) did not fall below "
                f"10^-{digits + EXTRA_DIGITS} with shift up to {n_cap}"
            )
        n_shift = min(2 * n_shift, n_cap)


def _em_attempt(ctx: MPContext, s: Fraction, x: Fraction, n_shift: int, target: mpf, derivative: bool):
    """One Euler-Maclaurin evaluation at fixed shift; None if the tail grows.

    ``s`` is exact.  The integral term takes s - 1 from it before rounding,
    so an ``s`` closer to the pole than the working precision resolves is
    still evaluated at itself.  The tail is summed first, so a shift whose
    tail grows costs no head.
    """
    num, den = x.numerator, x.denominator
    sm = to_mpf(s, ctx)
    s1 = to_mpf(s - 1, ctx)
    w = ctx.mpf(n_shift * den + num) / den
    lw = ctx.log(w)
    a_int = ctx.power(w, -s1)
    w_neg_s = ctx.power(w, -sm)
    if derivative:
        integral = -a_int * (lw * s1 + 1) / s1 ** 2
        half = -lw * w_neg_s / 2
    else:
        integral = a_int / s1
        half = w_neg_s / 2

    # Bernoulli tail: C_k(s) * w^(-s-2k+1), differentiated by the product
    # rule into (D_k(s) - C_k(s) log w) * w^(-s-2k+1).
    coeffs = _em_table(ctx, sm, 1)
    wpow = w_neg_s / w
    winv2 = 1 / (w * w)
    tail = ctx.mpf(0)
    prev = ctx.inf
    k = 1
    while True:
        if k > len(coeffs):
            coeffs = _em_table(ctx, sm, k)
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
    return _em_head(ctx, s, sm, num, den, n_shift, derivative) + integral + half + tail


def _em_head(ctx: MPContext, s: Fraction, sm: mpf, num: int, den: int, n_shift: int, derivative: bool):
    """sum_{n<N} (n+x)^(-s), or its s-derivative, for x = num/den.

    The terms run over the integers m = n*den + num, as (n+x) = m/den.
    At an integer s = k the value is one exact rational, rounded once:
    sum m^|k| / den^|k| for k <= 0, and den^k * top/bottom for k > 0,
    where top/bottom = sum 1/m^k is accumulated in integers without
    reducing.  At s = 0 the derivative is N log(den) - log(prod m).
    At s = u/v with v > 1 the value is x^(-s) * sum (num/m)^(u/v), and
    each term of the sum is floor(2^P (num/m)^(u/v)), the integer v-th
    root of floor(num^u 2^(vP) / m^u) (of m^|u| 2^(vP) / num^|u| for
    u < 0).  The roots are summed as one integer and rounded once.
    """
    ms = range(num, n_shift * den + num, den)
    u, v = s.numerator, s.denominator
    if v == 1 and max(abs(u), 1) * n_shift * ms[-1].bit_length() <= _EXACT_HEAD_BITS:
        if not derivative:
            if u <= 0:
                top, bottom = sum(m ** -u for m in ms), den ** -u
            else:
                top, bottom = 0, 1
                for m in ms:
                    power = m ** u
                    top, bottom = top * power + bottom, bottom * power
                top *= den ** u
            return ctx.make_mpf(from_rational(top, bottom, ctx.prec, round_nearest))
        if u == 0:
            return n_shift * ctx.log(den) - ctx.log(math.prod(ms))
    point = ctx.prec + n_shift.bit_length()
    if (v > 1 and not derivative
            and v * (v * point + abs(u) * ms[-1].bit_length()) <= _EXACT_ROOT_BITS):
        if u > 0:
            top = num ** u << (v * point)
            total = sum(_iroot(top // m ** u, v) for m in ms)
        else:
            bottom = num ** -u
            total = sum(_iroot((m ** -u << (v * point)) // bottom, v) for m in ms)
        return ctx.power(ctx.mpf(num) / den, -sm) * ctx.ldexp(total, -point)
    head = ctx.mpf(0)
    for m in ms:
        base = ctx.mpf(m) / den
        p = ctx.power(base, -sm)
        head += -ctx.log(base) * p if derivative else p
    return head


def _iroot(x: int, v: int) -> int:
    """floor(x^(1/v)) for integers x >= 0 and v >= 1.

    Even v halves through ``math.isqrt``.  Odd v > 1 takes the root of the
    top half of x's bits (recursively), which bounds the root from above to
    about half its bits, then one integer Newton step from above, which
    doubles them; Newton never steps below the floor, so a final downward
    check fixes the last unit.
    """
    while v % 2 == 0:
        x = math.isqrt(x)
        v //= 2
    if v == 1 or x < 2:
        return x
    bits = x.bit_length()
    if bits <= 40 * v:
        y = int(math.exp(math.log(x) / v)) + 2
    else:
        shift = (bits // v - 16) // 2
        y = (_iroot(x >> (v * shift), v) + 1) << shift
        y = ((v - 1) * y + x // y ** (v - 1)) // v
    while y ** v > x:
        y -= 1
    return y
