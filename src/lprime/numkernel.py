"""Arbitrary-precision numeric kernel.

Real values are mpmath ``mpf`` floats (binary mantissa/exponent) computed
under an explicit decimal-digit working precision ``d``: every public
operation takes ``d`` and evaluates with ceil(d*log2(10)) + 32 bits, i.e.
roughly ten guard digits beyond the request.  The accuracy contract is
uniform: a value computed at ``d`` digits agrees with the same value at
``2d`` digits to within 10**(-d+5), relative to the value where its size
exceeds 1 (a float at the working precision resolves no more).

The special functions every other module needs live here:

* exact Bernoulli numbers (cached), from the integer tangent-number
  recurrence of Brent and Harvey, one ``Fraction`` per entry,
* 2*sin(a*pi/q) for ascending residues a <= q/2 of one q
  (``two_sines``): one integer three-term recurrence
  sin((k+1) pi/q) = 2 cos(pi/q) sin(k pi/q) - sin((k-1) pi/q) in fixed
  point, one multiply per step, at 2 bits(q) + ``SINE_GUARD_BITS`` bits
  beyond the working precision, with each value rounded once, within
  2^-prec (1 + 2^-25) relative; and sums of their logs
  (``log_sine_sum``), one log per denominator of the coefficients, of
  the quotient of the powers of the products of the sines that share a
  coefficient, each product floored to the walk's fixed point after
  every multiply.  Every log-sine of the library comes from
  ``log_sine_sum``, or, one per residue from one walk, from ``log_sines``,
  whose logs the same code takes.  The same raw walk values give L(2, f)
  of an even f (``csc2_sum``): by Euler's
  zeta(2, x) + zeta(2, 1 - x) = pi^2 csc^2(pi x),
  one fixed-point sum of n_a floor(2^(3P)/S_a^2), one exact product with
  pi^2.  ``two_sin_pi`` is mpmath's one-value sin, kept as the
  independent oracle the recurrence is tested against,
* L(s, f) = sum f(m) m^(-s) for f of period q (``periodic_zeta``) by
  Euler-Maclaurin summation, valid for finite real s != 1, at one shift
  N for all residues a: the exact value from integer power sums
  sum_a f(a) a^i at integer s <= 0, and otherwise one head for all residues,
  sum f(m) floor(2^P m^(-s)) over m <= Nq in integers, with a fixed-point
  v-th root at s = u/v (one power past the root cost bound), and the
  rests of all residues at m_a = Nq + a in the same integers, where
  floor(2^P m_a^(-s)) stands for every power.  A sparse f, and every f
  at v = 1, takes one root per term.  A dense f (|support| ln(Nq) > q,
  as for the Dirichlet-type f of small q) takes its roots at the primes
  only, by one pass of a least-prime-factor sieve, since m^(-s) is
  completely multiplicative: r(m) is kept for every m up to (N+1)q/p_0
  that is prime to the primes of q dividing no residue of the support
  (p_0 the least other prime), one integer product at each composite,
  and past that point, where r(m) is read only by its class sum, the
  r(m/p) of one least prime p and one class are summed before their one
  product with r(p).  Each class sum then takes one exact multiply by
  its value of f.
  The route is chosen by the exact value of s: an ``mpf`` or ``float``
  is a dyadic rational, so ``mpf("0.5")``, ``0.5`` and
  ``Fraction(1, 2)`` give the same bits.
  Its s-derivative L'(s, f) = -sum f(m) log(m) m^(-s)
  (``periodic_zeta_ds``) is the term-wise derivative of that series, on
  the same integers with floor(2^P log m) beside each r(m): the head
  takes a root or power and a log per term (at s = 0 one log per
  distinct value of f, of an exact integer product) and never the
  sieve, and the rests and the tail take the logs of the m_a.  At s = 0 this series is
  Lerch's log-Gamma closed form for L'(0, f), with every log Gamma summed
  by Stirling's series at the argument N + a/q,
* the Hurwitz zeta function zeta(s, x), 0 < x = a/q <= 1, and its
  s-derivative as these series with one residue: zeta(s, a/q) is
  q^s L(s, f) for f = 1 at a (``hurwitz_zeta``), and zeta'(s, a/q) is
  q^s (L'(s, f) + log(q) L(s, f)) (``hurwitz_zeta_ds``), each taken at a
  few more digits where q^s may scale its error.  At integer s <= 0,
  zeta(s, x) is the exact -B_(1-s)(x)/(1-s), from the power sums of one
  residue, rounded once,
* log Gamma(a/q) by mpmath's ``mpf_loggamma`` (``log_gamma_frac``), kept,
  like ``two_sin_pi``, as an independent reference: no series of this
  module computes log Gamma.

Every series ends in a Bernoulli tail, sum_k c_k w^-(2k-1) at w = m/den,
an exact rational, and every sum over residues a of such tails, weighted,
is one ``_bernoulli_tails`` of one coefficient column: the coefficients,
the weights and the weighted powers w_a (den/m_a)^(2k-1) are fixed-point
integers, and each k takes one list update of the powers and one
coefficient multiply for all residues.  The tail of L'(s, f) is two such
calls.  A one-residue series (``hurwitz_zeta``, ``hurwitz_zeta_ds``) is
the call with one residue.

There is one precision mechanism.  Every route computes at
``prec_bits(d)``, or at ``prec_bits(d + e)`` where its error bound needs
e more digits, with mpmath's ``libmp`` and ``round_nearest``, and rounds
its result once into ``prec_bits(d)``.  The Euler-Maclaurin series of
``periodic_zeta(_ds)`` ends in one exact quotient of integers,
(numerator, denominator), which ``_rounded`` rounds once; the log-sines,
the csc^2 sum and the exact values at integer s <= 0 end the same way.  The
references ``two_sin_pi``, ``log_gamma_frac``, ``pi_const`` and
``log2_const`` are mpmath's own ``mpf_sin_pi``, ``mpf_loggamma``,
``mpf_pi`` and ``mpf_ln2`` at ``prec_bits(d)``, and ``hurwitz_zeta(_ds)``
take q^s and log q by ``mpf_pow`` and ``mpf_log`` at their working
precision.  A route whose error bound grows with the size of f (the
Euler-Maclaurin series, ``log_sine_sum`` and ``csc2_sum``) works at the
``_working_digits`` d + e of that bound, and e = 0 for every f whose bound
lies below 10^13 units.  No route builds an mpmath context.  Every public
function returns a plain mpmath ``mpf``.  mpmath's global precision is
never read or set, so the result of a call does not depend on the
caller's ambient precision, and calls at different precisions may run
concurrently from several threads.

All functions are pure and their returned values are immutable and safe
to hand between threads.  Shared state is:

* the exact Bernoulli cache, with the last column of its tangent-number
  triangle;
* the Euler-Maclaurin coefficient tables, filled on first use as
  fixed-point integers: C_k(s) = B_2k/(2k)! * s(s+1)...(s+2k-2) and its
  s-derivative D_k(s), per (fixed point in bits, exact s).  At most
  ``MAX_TABLES`` tables are kept; the oldest goes first.

The cache and the tables grow under ``_bern_lock``, in integers: the
Bernoulli cache appends each entry whole, and a table fill builds new
lists and publishes them whole.  A table entry is its exact rational,
correctly rounded at its key's fixed point by one ``divmod``
(``_fixed``), so no entry depends on a precision or on the order of the
fills.
"""

from __future__ import annotations

import itertools
import math
import threading
from array import array
from fractions import Fraction
from typing import Mapping, Union

from mpmath import mp, mpf
from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    fone,
    fzero,
    mpf_add,
    mpf_cos_sin,
    mpf_div,
    mpf_ln2,
    mpf_log,
    mpf_loggamma,
    mpf_mul,
    mpf_pi,
    mpf_pos,
    mpf_pow,
    mpf_pow_int,
    mpf_shift,
    mpf_sin_pi,
    round_floor,
    round_nearest,
    to_fixed,
    to_rational,
)

from .errors import ConvergenceError, PoleError, ValidationError, is_int, require_int

RealLike = Union[int, float, Fraction, mpf]

MIN_DIGITS = 10
GUARD_BITS = 32

#: Truncation target is 10**(-(d + EXTRA_DIGITS)) so series error stays
#: far below the 10**(-d+5) contract.
EXTRA_DIGITS = 10

#: Most Euler-Maclaurin coefficient tables kept at once; the oldest is
#: dropped beyond this.  A table at 240 digits holds about 110 entries.
MAX_TABLES = 64
#: Entries a coefficient table grows by past the index asked for, so a
#: first evaluation fills its table in a few steps rather than one per term.
TABLE_CHUNK = 16
#: Largest fixed-point Euler-Maclaurin head at s = u/v, measured as
#: v * (v*P + |u|*bits(m)) for its largest term m, where v*P + |u|*bits(m)
#: is the size of that term's radicand and P its fixed-point bits.  Near
#: the bound a v-th root costs about as much as a power (v about 9 at 240
#: digits, 11 at 120, 17 at 50); beyond it the powers are cheaper.
_EXACT_ROOT_BITS = 1 << 16
#: Fractional bits of a Bernoulli tail sum beyond the working precision.
#: Its truncation target 10**-(d + EXTRA_DIGITS) lies just below
#: 2**-prec, and the sum's floors have to stay below that target.
TAIL_EXTRA_BITS = 16
#: Fractional bits the powers of a Bernoulli tail carry beyond its largest
#: coefficient so far; ``_bernoulli_tails`` states the error bound they give.
TAIL_GUARD_BITS = 48
#: Most terms a Bernoulli tail sums before it counts as divergent.
MAX_TAIL_TERMS = 10_000
#: Fractional bits the sine recurrence of ``two_sines`` carries beyond the
#: working precision and 2 bits(q); its docstring states what they absorb.
SINE_GUARD_BITS = 24


def prec_bits(digits: int) -> int:
    """Binary working precision for a decimal-digit request."""
    require_digits(digits)
    return math.ceil(digits * math.log2(10)) + GUARD_BITS


def require_digits(digits: int) -> None:
    require_int(digits, MIN_DIGITS, "precision in decimal digits must be")


def pi_const(digits: int) -> mpf:
    """pi at d digits."""
    return mp.make_mpf(mpf_pi(prec_bits(digits), round_nearest))


def log2_const(digits: int) -> mpf:
    """log 2 at d digits."""
    return mp.make_mpf(mpf_ln2(prec_bits(digits), round_nearest))


# ---------------------------------------------------------------------------
# Bernoulli numbers

_bern_lock = threading.Lock()
_bern_even: list[Fraction] = [Fraction(1), Fraction(1, 6)]  # _bern_even[m] == B_{2m}
# column j = len(_bern_even) - 1 of the tangent-number triangle of ``bernoulli``
_tangent_column: list[int] = [1]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n as an exact fraction, B_1 = -1/2 convention.

    Even-index values come from the tangent numbers T_j,
    tan x = sum_j T_j x^(2j-1)/(2j-1)!, as
    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)); the odd ones vanish for
    n >= 3.  The T_j are the diagonal of an integer triangle (Brent and
    Harvey, arXiv:1108.0286): A(1, 1) = 1, A(0, j) = 0 and
    A(k, j) = (j-k) A(k, j-1) + (j-k+2) A(k-1, j) for 1 <= k <= j, with
    T_j = A(j, j).  Column j takes j products of a small integer and an
    integer of O(j log j) bits, and only the last column is kept, so the
    cache grows one column at a time, in integers, under ``_bern_lock``,
    with one ``Fraction`` per entry: a fill in small steps does the work
    of one fill at once.  Repeated calls are O(1).
    """
    require_int(n, 0, "Bernoulli index must be")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    m = n // 2
    if m >= len(_bern_even):
        with _bern_lock:
            # re-check under the lock: another thread may have filled it
            column = _tangent_column
            for j in range(len(_bern_even), m + 1):
                # column[k - 1] = A(k, j - 1) becomes A(k, j), ascending k
                column.append(0)
                below = 0  # A(k - 1, j)
                for k in range(1, j + 1):
                    below = column[k - 1] = (j - k) * column[k - 1] + (j - k + 2) * below
                four = 1 << 2 * j
                _bern_even.append(Fraction((-1) ** (j - 1) * 2 * j * below, four * (four - 1)))
    return _bern_even[m]


# ---------------------------------------------------------------------------
# Series coefficient tables and the Bernoulli tail

_em_tables: dict[tuple[int, Fraction], tuple[list[int], list[int], int, int]] = {}


def _fixed(num: int, den: int, point: int) -> int:
    """num/den at ``point`` fractional bits, den > 0, correctly rounded (ties to even).

    One ``divmod``, 0 <= rem < den, and the remainder against den/2: the
    value of ``round(Fraction(num << point, den))`` without reducing
    num and den by their gcd first.
    """
    quo, rem = divmod(num << point, den)
    rem *= 2
    return quo + (rem > den or rem == den and quo & 1)


def _em_table(point: int, s: Fraction, n: int) -> tuple[list[int], list[int]]:
    """(C_k(s)) and (D_k(s)) for k = 1..n (at least), at ``point`` fractional bits.

    C_k(s) = B_2k/(2k)! * R_k(s) with the rising factorial
    R_k(s) = s(s+1)...(s+2k-2), and D_k(s) = dC_k/ds.  For s = u/v,
    R_k = P_k / v^(2k-1) and dR_k/ds = Q_k / v^(2k-2) with integers
    P_1 = u, Q_1 = 1 and, for f1 = u + (2k-1)v, f2 = u + 2kv,
    P_(k+1) = P_k f1 f2, Q_(k+1) = Q_k f1 f2 + P_k (f1 + f2).  Every
    entry is its exact rational, correctly rounded.  Each table keeps P
    and Q at its next index so that it can grow.
    """
    key = (point, s)
    table = _em_tables.get(key)
    if table is not None and len(table[0]) >= n:
        return table[0], table[1]
    size = n + TABLE_CHUNK
    bernoulli(2 * size)  # fill the exact cache before taking its lock
    u, v = s.numerator, s.denominator
    with _bern_lock:
        cs, ds, p, q = _em_tables.get(key, ((), (), u, 1))
        cs, ds = list(cs), list(ds)
        for k in range(len(cs) + 1, size + 1):
            b = _bern_even[k]
            scale = b.denominator * math.factorial(2 * k) * v ** (2 * k - 2)
            cs.append(_fixed(b.numerator * p, scale * v, point))
            ds.append(_fixed(b.numerator * q, scale, point))
            f1, f2 = u + (2 * k - 1) * v, u + 2 * k * v
            p, q = p * f1 * f2, q * f1 * f2 + p * (f1 + f2)
        # publish the grown table whole; past MAX_TABLES the oldest goes
        if key not in _em_tables and len(_em_tables) >= MAX_TABLES:
            del _em_tables[next(iter(_em_tables))]
        _em_tables[key] = (cs, ds, p, q)
    return cs, ds


def _bernoulli_tails(table, ms: list[int], den: int, point: int, cutoff: int, weights: list[int]):
    """sum_a w_a sum_{k>=1} c_k (den/m_a)^(2k-1) over the n residues a, at ``point`` fractional bits.

    The m_a are integers, all at least 10 den, and the weights w_a are
    integers at ``point`` fractional bits.  ``table(n)`` gives at least n
    coefficients c_k of one column of an ``_em_table`` at ``point``
    fractional bits, C_k(s) or D_k(s).  One call sums the tails of every
    residue, and a one-residue tail is the call with n = 1.

    Per k, one list update z_a <- floor(z_a den^2/m_a^2) carries
    w_a (den/m_a)^(2k-1) at ``width`` fractional bits, and the term is one
    coefficient multiply, floor(c_k sum_a z_a 2^-width).  The width starts
    at ``point`` or at the first coefficient's width plus
    ``TAIL_GUARD_BITS``, whichever is larger, and widens with the
    coefficients: it is never below the largest coefficient's width plus
    ``TAIL_GUARD_BITS``.

    The size of term k is |c_k| W r^(2k-1), with W = sum |w_a| and
    r = den/m_0 for the least m_0 of the m_a.  It bounds the term of every
    residue, since den/m_a <= r, and it is taken exactly, as
    floor(|c_k| zb 2^-width) for zb = floor(W r^(2k-1) 2^width), carried
    like the z_a.  The sum stops before the first term
    whose size is at most ``cutoff`` units of 2^-point, so zero weights or
    a zero coefficient stop it at once.  It is None if a size exceeds the
    one before, or past ``MAX_TAIL_TERMS`` terms.

    Error bound, in units of 2^-point, over the K terms summed, with the
    coefficients and weights as reals.  Each term adds one floor.  The
    rounded coefficients add at most W/(2(w - 1)), w = m_0/den, since
    sum_k (den/m_a)^(2k-1) < 1/(w - 1).  The floor that made z_a at step j
    is below 2^-width(j) <= 2^-TAIL_GUARD_BITS / |c_j|, and reaches term k
    multiplied by at most |c_k| r^(2(k-j)).  The rule keeps the sizes
    non-increasing, so |c_k| r^(2(k-j)) <= |c_j| up to the rounding of the
    sizes, and these floors add less than 2 n K^2 2^-TAIL_GUARD_BITS:
    below 1/100 unit for n K^2 < 2^40.  So the sum is within
    K + 1 + W/(2(w - 1)) units of the exact series.
    """
    den2 = den * den
    m2s = [m * m for m in ms]
    m0 = min(ms)
    # z_a and the size bound zb are floor(x 2^width): x starts at the
    # weight and takes the factor den/m at the first step, den^2/m^2 after
    zs, factor, divisors = weights, den, ms
    zb, divisor0, width = sum(map(abs, weights)), m0, point
    total, prev = 0, math.inf
    cs, k = (), 0
    while True:
        k += 1
        if k > len(cs):
            cs = table(k)
        c = cs[k - 1]
        shift = max(c.bit_length() + TAIL_GUARD_BITS - width, 0)
        width += shift
        # the widening folded into the factor: one multiply per residue
        step = factor << shift
        zb = zb * step // divisor0
        size = abs(c) * zb >> width
        if size <= cutoff:
            return total
        if size > prev or k > MAX_TAIL_TERMS:
            return None
        prev = size
        zs = [z * step // m for z, m in zip(zs, divisors)]
        total += c * sum(zs) >> width
        factor, divisors, divisor0 = den2, m2s, m0 * m0


# ---------------------------------------------------------------------------
# Elementary special values

def two_sin_pi(a: int, q: int, digits: int) -> mpf:
    """2*sin(a*pi/q) at d digits; requires 0 < a < q, so strictly positive.

    One value by mpmath's own ``mpf_sin_pi`` of a/q, rounded once.  No
    library route calls it: the log-sines come from ``_sine_walk``,
    through ``log_sine_sum`` and ``log_sines``, and this is the
    independent oracle that kernel is tested against.
    """
    require_int(q, 2, "denominator q must be")
    require_int(a, 1, "argument a must be")
    if a >= q:
        raise ValidationError(f"argument a must satisfy 0 < a < q, got a={a}, q={q}")
    prec = prec_bits(digits)
    return mp.make_mpf(mpf_shift(mpf_sin_pi(from_rational(a, q, prec, round_nearest), prec, round_nearest), 1))


def two_sines(q: int, residues: list[int], digits: int) -> list[mpf]:
    """2*sin(a*pi/q) at d digits for each of the ascending integer ``residues``, 0 < a <= q/2.

    One cos/sin pair of t = pi/q, at P = prec + 2 bits(q) + ``SINE_GUARD_BITS``
    fractional bits, starts the three-term recurrence
    sin((k+1) t) = 2 cos(t) sin(k t) - sin((k-1) t) in integers: with
    T = floor(2^(P+1) cos t), S_0 = 0 and S_1 = floor(2^P sin t), each step
    sets S_(k+1) = floor(T S_k / 2^P) - S_(k-1), one multiply, so that
    S_k / 2^P is sin(k pi/q), and each wanted 2 S_a / 2^P is rounded once
    into the working precision.

    Error, in units u = 2^-P.  T u and S_1 u are within one unit of
    2 cos t and sin t (the pair is taken at P + 8 bits), and |S_k| u <= 1,
    so each step's two floors add at most 2 units.  The error e_k of S_k
    obeys the same recurrence, e_(k+1) = 2 cos(t) e_k - e_(k-1) + delta_k,
    so an error made at step j reaches step k times U_(k-1-j)(cos t), and
    |U_n| <= n + 1 gives |e_k| <= k + 2 (1 + ... + (k - 1)) = k^2 units.
    Since sin(k pi/q) >= 2k/q for k <= q/2, the relative error of S_k u is
    at most k q u / 2 <= q^2 u / 4 < 2^(-2 - prec - SINE_GUARD_BITS),
    whatever k is.  The one rounding then leaves each value within
    2^-prec (1 + 2^(-1 - SINE_GUARD_BITS)) of 2 sin(a pi/q), relative:
    correctly rounded but for near-ties.
    """
    prec = prec_bits(digits)
    point, sines = _sine_walk(q, residues, prec)
    return [mp.make_mpf(from_man_exp(s, 1 - point, prec, round_nearest)) for s in sines]


def _sine_walk(q: int, residues: list[int], prec: int) -> tuple[int, list[int]]:
    """(P, [S_a]): the recurrence of ``two_sines``, 2 S_a / 2^P ~ 2 sin(a pi/q), unrounded."""
    require_int(q, 2, "denominator q must be")
    point = prec + 2 * q.bit_length() + SINE_GUARD_BITS
    wp = point + 8
    cos, sin = mpf_cos_sin(mpf_div(mpf_pi(wp), from_int(q), wp, round_nearest), wp, round_nearest)
    twice_cos = to_fixed(cos, point + 1)
    sines = []
    last, before, big_s, k = 0, 0, to_fixed(sin, point), 1
    for a in residues:
        # an exact int passes without the call of ``is_int``
        if type(a) is not int and not is_int(a) or not last < a or 2 * a > q:
            raise ValidationError(
                f"residues must be integers ascending within 0 < a <= q/2, "
                f"got a={a!r} after {last}, q={q}")
        last = a
        while k < a:
            before, big_s = big_s, (twice_cos * big_s >> point) - before
            k += 1
        sines.append(big_s)
    return point, sines


def log_sine_sum(q: int, coefficients, digits: int) -> mpf:
    """sum c_a log(2 sin(a pi/q)) at d digits over pairs (a, c_a), ascending a <= q/2.

    The coefficients are ints or Fractions, and every residue must be one
    that ``two_sines`` takes, whatever its coefficient.  The sum takes one
    log per denominator of the coefficients: with P_c the product of the
    2 sin(a pi/q) whose coefficient is c = num/den, it is
    sum_den (1/den) log(prod_(num > 0) P_c^num / prod_(num < 0) P_c^|num|).
    The factors are the fixed-point values of the ``two_sines`` recurrence,
    before it rounds them.  Each P_c floors its product back to P bits
    after every multiply, and the powers, the products of powers and the
    quotient are taken at P bits.  The
    quotient is rounded to the working precision before its log: mpmath's
    ``mpf_log`` misreads an x within 2^-(prec + 20) above 1/4 that carries
    more bits than its precision as lying near 1.

    Error.  A factor is within 2^(-2 - prec - SINE_GUARD_BITS) relative and
    a floor to P bits within 2^(1 - P) <= 2^(-3 - prec - SINE_GUARD_BITS),
    so P_c of n_c factors is within n_c 2^(-1 - prec - SINE_GUARD_BITS),
    and the quotient of one denominator within
    sum_c |num| n_c 2^(-1 - prec - SINE_GUARD_BITS) plus a few units of
    2^-P, before its rounding (2^-prec) and its log (2^-prec relative).
    With |log P_c| <= n_c log q, the sum is within
    2^-prec sum_c |c| n_c (log q + 2^(-SINE_GUARD_BITS)) plus 2^(1 - prec)
    per log of the exact one, plus the roundings of the divisions by den
    and of the partial sums: at most sum |c_a| bits(q) + 3 units of
    2^-prec per distinct c, or bits(q) sum_c (floor(|num| n_c / den) + 3).
    So the sum runs at the ``_working_digits`` d + e of that bound, and is
    rounded once to d; e = 0 while the bound is below 10^13, as for every
    |c_a| <= 5 and q < 10^9.
    """
    require_int(q, 2, "denominator q must be")
    pairs = list(coefficients)
    # (numerator, denominator) of c -> the indices of its residues; the
    # pair hashes faster than a Fraction
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (_, c) in enumerate(pairs):
        if c:
            groups.setdefault((c.numerator, c.denominator), []).append(i)
    prec = _log_sine_prec(q, groups, digits)
    point, sines = _sine_walk(q, [a for a, _ in pairs], prec)
    return _log_of_walk(groups, sines, point, prec, digits)


def log_sines(q: int, residues: list[int], digits: int) -> list[mpf]:
    """log(2 sin(a pi/q)) at d digits for each of the ascending integer ``residues``, 0 < a <= q/2.

    Entry a is ``log_sine_sum(q, [(a, 1)], digits)`` bit for bit.  Every
    one-term sum with coefficient 1 runs at the same working precision,
    and a walk value does not depend on how far the walk goes, so one
    walk up to the last residue serves every entry, and each takes its
    log from that walk as ``log_sine_sum`` does.
    """
    require_int(q, 2, "denominator q must be")
    prec = _log_sine_prec(q, {(1, 1): [0]}, digits)
    point, sines = _sine_walk(q, residues, prec)
    return [_log_of_walk({(1, 1): [i]}, sines, point, prec, digits) for i in range(len(sines))]


def _log_sine_prec(q: int, groups: dict[tuple[int, int], list[int]], digits: int) -> int:
    """The working precision of ``log_sine_sum`` with the residue indices ``groups`` of each (num, den)."""
    # the bound of log_sine_sum, one term per value c: |c| n_c (log q + 2^-SINE_GUARD_BITS),
    # plus 3 units for its log, is below (floor(|num| n_c / den) + 3) bits(q)
    bound = q.bit_length() * sum(abs(num) * len(at) // den + 3 for (num, den), at in groups.items())
    return prec_bits(_working_digits(digits, bound))


def _log_of_walk(groups: dict[tuple[int, int], list[int]], sines: list[int], point: int, prec: int,
                 digits: int) -> mpf:
    """sum_(num, den) (num/den) log prod 2 S_i / 2^P over the walk values S_i of each group, at d digits.

    The one place where walk values become log-sines, for ``log_sine_sum``
    and ``log_sines``.
    """
    # denominator -> [numerator, denominator] of its quotient, at P bits
    quotients: dict[int, list[tuple]] = {}
    for (num, den), at in groups.items():
        power = mpf_pow_int(_walk_product([sines[i] for i in at], point), abs(num), point, round_nearest)
        quotient = quotients.setdefault(den, [fone, fone])
        quotient[num < 0] = mpf_mul(quotient[num < 0], power, point, round_nearest)
    total = fzero
    for den, (top, bottom) in quotients.items():
        log = mpf_log(mpf_div(top, bottom, prec, round_nearest), prec, round_nearest)
        total = mpf_add(total, mpf_div(log, from_int(den), prec, round_nearest), prec, round_nearest)
    return mp.make_mpf(mpf_pos(total, prec_bits(digits), round_nearest))


def csc2_sum(q: int, coefficients, digits: int) -> mpf:
    """(pi/q)^2 sum c_a k_a at d digits over pairs (a, c_a), ascending a <= q/2, then maybe a = q.

    k_a = csc^2(a pi/q) for a < q/2, k_(q/2) = 1/2 and k_q = 1/6.  For an
    even f with f(a) = c_a, this is L(2, f) = q^-2 sum_(a=1..q) f(a) zeta(2, a/q):
    by Euler's zeta(2, x) + zeta(2, 1 - x) = pi^2 csc^2(pi x), the
    residues a and q - a of a pair share pi^2 csc^2(a pi/q), a = q/2 is
    its own partner, and zeta(2, 1) = pi^2/6.  The coefficients are ints
    or Fractions, each over their common denominator den an integer n_a;
    every residue below q/2 must be one that ``two_sines`` takes, whatever
    its coefficient.  With the raw walk values S_a of ``two_sines`` at P
    fractional bits, the sum is, in sixths of 2^-P,
    6 sum_(a<q/2) n_a floor(2^(3P)/S_a^2) + 3 n_(q/2) 2^P + n_q 2^P,
    exactly; the walk runs up to the last residue at or below q/2.
    It takes one exact product with the square of pi at W = prec + 8 bits,
    prec = prec_bits(d + e) for the e below, and is rounded once to d.

    Error.  S_a is within eps = 2^(-2 - prec - SINE_GUARD_BITS) of
    2^P sin(a pi/q), relative, so a term is within 3 eps of
    2^P csc^2(a pi/q), relative, and one unit for its floor.  Since
    sin x >= 2x/pi on [0, pi/2], (pi/q)^2 csc^2(a pi/q) <= pi^2/(4 a^2),
    so the share of term a in the value is within
    |c_a| (7.5 eps + 2^-P pi^2/q^2) < |c_a| 2^-(prec + 22), and the terms
    of q/2 and q are exact.  pi at W bits is within 2^-W of itself,
    relative, so its square within pi^2 2^(1 - W); the sum before that
    product is at most sum |c_a|/4, so it adds less than
    sum |c_a| 2^-(prec + 5).  So the value is within
    sum |c_a| 2^-(prec + 4) of the exact one before its one rounding; it
    runs at the ``_working_digits`` of sum |c_a|, and e = 0 while that is
    below 10^13.
    """
    require_int(q, 2, "denominator q must be")
    pairs = list(coefficients)
    den = math.lcm(*(c.denominator for _, c in pairs))
    scaled = [(a, c.numerator * (den // c.denominator)) for a, c in pairs]
    # k_q = 1/6 is exact and its residue, last, takes no walk
    sixths = scaled.pop()[1] if scaled and is_int(scaled[-1][0]) and scaled[-1][0] == q else 0
    bound = sum(abs(c.numerator) // c.denominator + 1 for _, c in pairs)
    prec = prec_bits(_working_digits(digits, bound))
    point, sines = _sine_walk(q, [a for a, _ in scaled], prec)
    cube = 1 << 3 * point
    total = sixths << point
    for (a, n), s in zip(scaled, sines):
        # k_(q/2) = 1/2 is exact too
        total += 3 * n << point if 2 * a == q else 6 * n * (cube // (s * s))
    _, pi_man, pi_exp, _ = mpf_pi(prec + 8, round_nearest)
    return _rounded(prec_bits(digits), pi_man * pi_man * total, 6 * q * q * den << point - 2 * pi_exp)


def _walk_product(factors: list[int], point: int) -> tuple:
    """prod 2 S / 2^P over the walk values S, a raw mpf of at most P bits.

    The product is floored to P bits after every multiply.
    """
    man, exp = 1, (1 - point) * len(factors)
    for factor in factors:
        man *= factor
        extra = man.bit_length() - point
        if extra > 0:
            man >>= extra
            exp += extra
    return from_man_exp(man, exp)


def log_gamma_frac(a: int, q: int, digits: int) -> mpf:
    """log Gamma(a/q) at d digits, 0 < a/q <= 1, by mpmath's ``loggamma``.

    No series of this module computes log Gamma, so this is an independent
    reference for them: zeta'(0, a/q) = log Gamma(a/q) - (1/2) log(2 pi)
    (Lerch) checks ``hurwitz_zeta_ds``, and ``lseries.l_deriv0_closed``
    sums these values into the closed form of L'(0, f).  The argument a/q
    is rounded once to ``prec_bits(d)``; since |x psi(x)| < 1.06 on (0, 1],
    that moves the value by less than 1.06 units of 2^-prec.
    """
    require_int(q, 1, "denominator q must be")
    require_int(a, 1, "numerator a must be")
    if a > q:
        raise ValidationError(f"argument a/q must lie in (0, 1], got {a}/{q}")
    prec = prec_bits(digits)
    return mp.make_mpf(mpf_loggamma(from_rational(a, q, prec, round_nearest), prec, round_nearest))


# ---------------------------------------------------------------------------
# Hurwitz zeta and L(s, f) by Euler-Maclaurin

def _check_s(s: RealLike, series: str) -> None:
    """Reject an s that is not a finite real, and s = 1, the pole of the Euler-Maclaurin series of ``series``.

    A real is one of the ``RealLike`` types: an int that is not a bool
    (``is_int``), a float, a Fraction or an mpf.
    """
    if not (is_int(s) or isinstance(s, (float, Fraction, mpf))):
        raise ValidationError(f"s must be a real number (int, float, Fraction or mpf), got {s!r}")
    if not mp.isfinite(s):
        raise ValidationError(f"s must be finite, got {s}")
    if s == 1:
        raise PoleError(f"s = 1 is not evaluated: the Euler-Maclaurin series of {series} has a pole there")


def _check_hurwitz_args(s: RealLike, x: Fraction, digits: int) -> None:
    require_digits(digits)
    if not isinstance(x, Fraction):
        raise ValidationError(f"x must be a Fraction, got {type(x).__name__}")
    if not 0 < x <= 1:
        raise ValidationError(f"x must lie in (0, 1], got {x}")
    _check_s(s, "zeta(s, x)")


def hurwitz_zeta(s: RealLike, x: Fraction, digits: int) -> mpf:
    """zeta(s, x) = sum_{n>=0} (n+x)^(-s) at d digits, finite real s != 1.

    At integer s = -k <= 0 the value is the exact rational
    -B_(k+1)(x)/(k+1), from the integer power sums of ``_power_sums``
    with one residue, rounded once.
    Every other s takes the one-residue ``periodic_zeta``: for x = a/q in
    lowest terms, zeta(s, x) = q^s L(s, f) with f = 1 at a and 0 elsewhere.

    The bound of L(s, f) is absolute, 10**-(d + 10), and zeta's must be
    relative where |zeta| > 1, so L(s, f) is taken at d + e digits, q^s by
    mpmath's ``mpf_pow`` at the same precision, and their product is
    rounded once to d:

    * e = ceil(s log10 a) for s > 1, where L(s, f) >= a^(-s), so the
      bound is relative, and zeta >= x^(-s);
    * e = ceil(s log10 q) for 0 < s < 1, where the bound stays absolute
      and q^s scales it;
    * e = 0 for s < 0, where q^s < 1.

    Over 324 random (s, x, d), x = a/q with q up to 10007, d from 20 to
    240 and s in {-12, -21/2, -15/2, -5, -7/2, -1, -1/2, 1/3, 3/4, 7/2,
    13/3, 45/4, 61/2}, the worst error was 6.1e-15 of 10**(-d+5),
    relative where |zeta| > 1.  An s nearer the pole than the working
    precision resolves keeps zeta's 1/(s-1) size; there too the bound
    holds relative to |zeta|.
    """
    _check_hurwitz_args(s, x, digits)
    s = _exact_real(s)
    if s.denominator == 1 and s <= 0:
        # zeta(1 - n, a/q) = q^(1 - n) L(1 - n, f) for f = 1 at a
        n = 1 - s.numerator
        numer, denom = _power_sums(n, x.denominator, {x.numerator: 1})
        return _rounded(prec_bits(digits), numer, denom * x.denominator ** (n - 1))
    a, q = x.numerator, x.denominator
    extra = math.ceil(s * math.log10(a if s > 1 else q)) if s > 0 else 0
    wp = prec_bits(digits + extra)
    value = periodic_zeta(s, q, {a: 1}, digits + extra)._mpf_
    q_s = mpf_pow(from_int(q), from_rational(s.numerator, s.denominator, wp, round_nearest), wp, round_nearest)
    return mp.make_mpf(mpf_mul(q_s, value, prec_bits(digits), round_nearest))


def hurwitz_zeta_ds(s: RealLike, x: Fraction, digits: int) -> mpf:
    """d/ds zeta(s, x) at d digits, finite real s != 1.

    For x = a/q in lowest terms, zeta(s, x) = q^s L(s, f) with f = 1 at a,
    so zeta'(s, x) = q^s (L'(s, f) + log(q) L(s, f)): one
    ``periodic_zeta_ds`` and one ``periodic_zeta``, taken at d + e digits
    with log q and q^s by mpmath's ``mpf_log`` and ``mpf_pow``, and their
    sum times q^s is rounded once to d.  Both bounds are
    absolute, about 10**-(d + e + 10), and q^s (1 + log q) scales them:
    e = ceil(max(s, 0) log10 q) + 2, where the 2 digits cover the factor
    1 + log q for q < 10^43.

    Over 324 random (s, x, d), x = a/q with q up to 10007, d from 20 to
    240 and s among the thirteen values listed for ``hurwitz_zeta``, the
    worst error was 1.4e-15 of 10**(-d+5) (s = 7/2, x = 1829/10007, 120
    digits), relative where |zeta'| > 1.
    """
    _check_hurwitz_args(s, x, digits)
    s = _exact_real(s)
    a, q = x.numerator, x.denominator
    extra = math.ceil(max(s, 0) * math.log10(q)) + 2
    wp = prec_bits(digits + extra)
    value = periodic_zeta(s, q, {a: 1}, digits + extra)._mpf_
    derivative = periodic_zeta_ds(s, q, {a: 1}, digits + extra)._mpf_
    log_q = mpf_log(from_int(q), wp, round_nearest)
    total = mpf_add(derivative, mpf_mul(log_q, value, wp, round_nearest), wp, round_nearest)
    q_s = mpf_pow(from_int(q), from_rational(s.numerator, s.denominator, wp, round_nearest), wp, round_nearest)
    return mp.make_mpf(mpf_mul(q_s, total, prec_bits(digits), round_nearest))


def periodic_zeta(s: RealLike, q: int, values: Mapping[int, Fraction], digits: int) -> mpf:
    """L(s, f) = sum_{m>=1} f(m) m^(-s) at d digits, finite real s != 1.

    f has period ``q``: f(m) = values[a] for m = a mod q, with the
    residues a in 1..q (a = q for m = 0 mod q), and 0 at a residue not
    listed.  The values are ints or Fractions.  q and the residues are
    taken as given: ``PeriodicFunction`` has checked them.  L(s, f) is
    q^(-s) sum_a f(a) zeta(s, a/q), and exactly 0 when every value is 0.

    At integer s = -k <= 0 the value is the exact rational
    q^k sum_a f(a) zeta(-k, a/q), by the Bernoulli polynomials taken as
    integer power sums of f (``_power_sums``), rounded once.  Every other
    s takes Euler-Maclaurin with one shift N for all
    residues: N starts at max(10, 0.8 d) and doubles while the tail grows,
    up to 64 d, and the sum runs at the extra digits of ``_em_shifts``:
    those of a large sum |f(a)|, and at s < 0 those of the cancellation.
    Everything is summed in integers at P fractional bits, and head, rests
    and tail end in one exact quotient of integers, rounded once into
    ``prec_bits(d)``, at s < 0 too.

    The heads of all residues together are one sum over m <= Nq,
    sum f(m) r(m) with r(m) = floor(2^P m^(-s)), which takes no power of
    q or of a/q.  The rest of each residue a with f(a) != 0, at
    w_a = N + a/q, is q^(-s) w_a^(-s) = m_a^(-s), m_a = Nq + a, times
    w_a/(s - 1) + 1/2 + sum_k C_k(s) w_a^-(2k-1), so r(m_a) stands for
    every power of it: the integral and half terms are r(m_a) times exact
    rationals, and the tails of all residues are one ``_bernoulli_tails``
    with the weights f(a) r(m_a), from the coefficient tables C_k(s).
    The tail stops before the first term whose size is at most
    10**-(d + e + 10) sum |f(a)|, d + e the digits of ``_em_shifts``.

    For s = u/v in lowest terms, r(m) taken directly is the integer v-th
    root of floor(2^(vP) / m^u) (of m^|u| 2^(vP) for u < 0); where that
    root would cost more than a power (``_EXACT_ROOT_BITS``), it is one
    power m^(-s) at P + 8 bits, floored to P bits.  Either is within one
    unit of 2^-P.  The r(m) take one of two routes, so that their cost
    follows the support of f and not q alone:

    * directly: r(m) at each of the N + 1 terms m <= Nq + a of each
      residue a of the support.  At v = 1 the root is the identity,
      floor(2^P / m^u), and that quotient costs less than a product, so
      v = 1 always goes here.
    * by a sieve, where f is dense: m^(-s) is completely multiplicative,
      so r(m) is taken directly at primes only, and elsewhere from
      r(m/p) r(p), p the least prime factor of m.  Every m the sum reads,
      and every factor of one, is prime to the primes of q that divide no
      residue of the support; with p_0 the least prime not among them
      (for a Dirichlet-type f the least prime not dividing q), no
      cofactor m/p and no p exceeds (N+1)q/p_0.  One pass takes and
      keeps r(m) = (r(m/p) r(p)) >> P for every such m up to there.  Past
      it r(m) is read only once: in a class sum, where the r(m/p) of one
      least prime p are summed first and take one product with r(p) and
      one floor, and in the rest, r(Nq + a).  This takes about
      Nq / ln(Nq) roots, one per prime, against N |support| directly,
      and keeps at most (N+1)q/p_0 integers of P bits.  So it is taken
      only where |support| ln(Nq) > q, that is where the primes up to Nq
      are fewer than the terms: for the Dirichlet-type f of small q,
      where the roots at the primes are shared by many m, and never for
      a sparse f at large q.

    The class sum of each residue takes one exact multiply by its value,
    and the head is exact past the r(m).  ``periodic_zeta_ds`` is the
    term-wise derivative of this series, on the same integers.

    Error, in units u = 2^-P.  By the sieve, r(m) carries Omega(m) roots
    or powers and Omega(m) - 1 products (directly, one root or power),
    each off by less than one unit, and at s > 0 no factor exceeds 1, so
    r(m) is within 2 Omega(m) <= 2 bits((N+1)q) units of 2^P m^(-s); a
    class sum that floors one product for all the r(m/p) of one p keeps
    that bound per term.  At s < 0 every factor is at least 1, so r(m) is
    within 2 bits((N+1)q) u of itself, relative.  At s > 0 the head, N
    terms per residue, is then within 2 N bits((N+1)q) sum_a |f(a)|
    units, and the rests, which multiply each r(m_a) by at most
    (N+1)/|s - 1| + 1, within 2 bits((N+1)q) ((N+1)/|s - 1| + 1)
    sum_a |f(a)|.  With P = prec + bits(2 Nq bits(Nq)), at least
    prec + ``TAIL_EXTRA_BITS``, 2^P exceeds 2^prec 2 Nq bits(Nq), so head
    and rests together are below
    1.4 * 2^-prec sum_a |f(a)| (1 + 1/|s - 1|) / q, since N >= 10: for one
    residue about q times below 2^-prec.  At s < 0 the
    same units hold relative to sum |f(m)| m^(-s) and to the integral
    terms, where the extra digits cover their cancellation.  The tail adds
    its stated bound, a few hundred units, and the error of each weight's
    r(m_a) times the sum of its tail.
    """
    return _em_shifts(s, q, values, digits, False)


def periodic_zeta_ds(s: RealLike, q: int, values: Mapping[int, Fraction], digits: int) -> mpf:
    """L'(s, f) = -sum_{m>=1} f(m) log(m) m^(-s) at d digits, finite real s != 1, f as in ``periodic_zeta``.

    The term-wise derivative of the series of ``periodic_zeta``, on its
    integer route, also at integer s <= 0: the same shifts N, extra digits
    at s < 0, P, r(m) = floor(2^P m^(-s)), weights W_a = f(a) r(m_a) and
    cutoff, and lam(m) = floor(2^P log m) beside them.  With
    w_a = m_a/q = N + a/q, over one denominator and rounded once:

    * head: -sum f(m) r(m) lam(m) over m <= Nq, summed at 2P bits.  Each
      term takes a root or power and a log, by the direct route of
      ``periodic_zeta`` for every f: the sieve is for values only.  At
      s = 0, r(m) = 2^P, and the heads of the residues a that share a
      value of f are one log of the exact product of their
      a (a + q) ... (m_a - q): one log per distinct value.
    * rests: -lam_a r(m_a) (w_a/(s - 1) + 1/2) - r(m_a) w_a/(s - 1)^2 per
      residue, lam_a = lam(m_a).
    * tail: sum_k (D_k(s) - C_k(s) log m_a) w_a^-(2k-1) per residue, as
      two ``_bernoulli_tails``, each stopping at its own cutoff: the D_k
      with the weights W_a, minus the C_k with the weights
      floor(W_a lam_a 2^-P).  At s = 0, where C_k(0) = 0, the second stops
      at its first term, and the D_k(0) = B_2k/(2k(2k-1)) are the
      Stirling series of log Gamma(w_a).

    No power or log of q and no L(s, f) is taken.

    Error, in units of 2^-P, at s > 0, where r(m) <= 2^P: a term
    r(m) lam(m) 2^-P is within 1 + log m units, so the head is within
    sum_a |f(a)| N (1 + log(Nq)), and the rests within
    sum_a |f(a)| (1 + log m_a)(N + 1)(1 + 1/|s - 1|)^2.  Since
    2^(P - prec) > 2 Nq bits(Nq), both together are below
    2^(1 - prec) sum_a |f(a)| (1 + 1/|s - 1|)^2 / q.  Each tail adds its
    stated bound, a few hundred units, and the floors of the second
    tail's weights n sum_k |C_k(s)| r^(2k-1) more for n residues.  At
    s = 0 the head is within sum_c |c| units over the distinct values c
    of f, one floor of one log each.  At s < 0 the bounds hold relative to
    sum |f(m)| m^(-s) log m, and the extra digits cover its cancellation
    against the integral terms, as for the value.
    """
    return _em_shifts(s, q, values, digits, True)


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


def _power_sums(n: int, q: int, support: dict) -> tuple[int, int]:
    """L(1 - n, f) for n >= 1 as an exact quotient of integers (numer, denom), denom > 0.

    From zeta(1 - n, x) = -B_n(x)/n and B_n(x) = sum_j C(n, j) B_j x^(n-j),
    L(1 - n, f) = q^(n-1) sum_a f(a) zeta(1 - n, a/q) is
    -(1/(n q den)) sum_j C(n, j) B_j q^j T_(n-j), with the integer power
    sums T_i = sum_a (f(a) den) a^i, den the lcm of the denominators of
    the values, and the B_j over the lcm of their denominators: the same
    rational as the Bernoulli polynomials summed residue by residue.
    """
    den = math.lcm(*(c.denominator for c in support.values()))
    sums = [0] * (n + 1)
    for a, c in support.items():
        term = c.numerator * (den // c.denominator)
        for i in range(n + 1):
            sums[i] += term
            term *= a
    bernoullis = [bernoulli(j) for j in range(n + 1)]
    lcd = math.lcm(*(b.denominator for b in bernoullis))
    numer = sum(math.comb(n, j) * b.numerator * (lcd // b.denominator) * q ** j * sums[n - j]
                for j, b in enumerate(bernoullis) if b)
    return -numer, n * q * den * lcd


def _rounded(prec: int, numer: int, denom: int) -> mpf:
    """The exact rational numer/denom, denom != 0, rounded once to ``prec`` bits, as a plain mpf."""
    return mp.make_mpf(from_rational(numer, denom, prec, round_nearest))


def _em_shifts(s: RealLike, q: int, values: Mapping[int, Fraction], digits: int, derivative: bool) -> mpf:
    """L(s, f), or with ``derivative`` L'(s, f), as ``periodic_zeta`` and ``periodic_zeta_ds`` state them.

    s and ``digits`` are checked, f is its non-zero ``values`` (0 when
    there are none), and s becomes the exact Fraction it denotes.  The
    value at integer s <= 0 is the rational of ``_power_sums``; otherwise
    this is the first ``_periodic_attempt`` over the shifts N that is not
    None.  Either is rounded once to ``digits``.

    The attempts run at the ``_working_digits`` d + e of the bound that
    ``periodic_zeta`` and ``periodic_zeta_ds`` state, taken as
    2 W (1 + 1/|s - 1|)^k units of 2^-prec, W = sum |f(a)|, with k = 1 for
    the value and k = 2 for the derivative.  N starts at
    ``_em_first_shift`` of d + e and doubles while the attempt returns
    None, up to 64 (d + e).
    """
    _check_s(s, "L(s, f)")
    require_digits(digits)
    support = {a: c for a, c in values.items() if c}
    if not support:
        return mpf(0)
    s = _exact_real(s)
    if not derivative and s.denominator == 1 and s <= 0:
        return _rounded(prec_bits(digits), *_power_sums(1 - s.numerator, q, support))
    # W <= sum (|num_a| // den_a + 1), taken in integers: a sum of Fractions
    # costs about 4 us an entry, a share a short series would notice
    weight = sum(abs(c.numerator) // c.denominator + 1 for c in support.values())
    work = _working_digits(digits, 2 * weight * (1 + 1 / abs(s - 1)) ** (1 + derivative))
    n_shift = _em_first_shift(work)
    n_cap = 64 * work
    while True:
        # at s < 0 the head and the integral term, both of size about
        # N^(1-s)/(1-s), cancel down to zeta: work with that many more digits
        extra = math.ceil((1 - s) * math.log10(n_shift + 1)) if s < 0 else 0
        exact = _periodic_attempt(prec_bits(work + extra), s, q, support, n_shift, work, derivative)
        if exact is not None:
            return _rounded(prec_bits(digits), *exact)
        if n_shift >= n_cap:
            series = "L'" if derivative else "L"
            raise ConvergenceError(
                f"Euler-Maclaurin tail for {series}(s={s}) of period {q} did not fall below "
                f"10^-{work + EXTRA_DIGITS} with shift up to {n_cap}"
            )
        n_shift = min(2 * n_shift, n_cap)


def _working_digits(digits: int, bound) -> int:
    """d + e digits for a route within ``bound`` units of 2^-prec_bits(d + e).

    e >= 0 is the fewest digits with 10^(e + 13) > bound, so the route is
    within 10^(-d + 13) 2^-GUARD_BITS < 10^(-d + 3.4), inside the
    10^(-d+5) contract; e is 0 for every bound below 10^13.  ``digits`` is
    checked first.
    """
    require_digits(digits)
    return digits + max(0, math.ceil(math.ceil(bound).bit_length() * math.log10(2)) - 13)


def _periodic_attempt(prec: int, s: Fraction, q: int, support: dict, n_shift: int, digits: int,
                      derivative: bool = False) -> tuple[int, int] | None:
    """L(s, f), or with ``derivative`` L'(s, f), at fixed shift N as (numer, denom); None if the tail grows.

    The integer route of ``periodic_zeta`` at working precision ``prec``,
    and its term-wise derivative as ``periodic_zeta_ds`` states it: the
    value's r(m), weights and cutoff, with lam(m) = floor(2^P log m)
    beside them.  The tails' cutoff is taken at ``digits``, the d + e of
    ``_em_shifts``, without the extra digits of the cancellation at s < 0.
    """
    top = n_shift * q
    u, v = s.numerator, s.denominator
    point = prec + max(TAIL_EXTRA_BITS, (2 * top * top.bit_length()).bit_length())
    # everything is at P fractional bits, in units of 1/den
    den = math.lcm(*(c.denominator for c in support.values()))
    scaled = {a: c.numerator * (den // c.denominator) for a, c in support.items()}
    head, roots = _periodic_roots(s, q, scaled, top, point, derivative)
    ms = [top + a for a in scaled]
    weights = [n * roots[m] for n, m in zip(scaled.values(), ms)]
    # every tail stops below 10**-(d + EXTRA_DIGITS) sum |f(a)|, in units of 1/den
    cutoff = (sum(map(abs, scaled.values())) << point) // 10 ** (digits + EXTRA_DIGITS)
    tail = _bernoulli_tails(lambda n: _em_table(point, s, n)[derivative], ms, q, point, cutoff, weights)
    if derivative and tail is not None:
        # the D_k tail minus the C_k tail of the weights W_a lam_a, which
        # stops at its first term at s = 0, where C_k(0) = 0
        logs = [_fixed_log(m, point) for m in ms]
        log_tail = _bernoulli_tails(lambda n: _em_table(point, s, n)[0], ms, q, point, cutoff,
                                    [w * lam >> point for w, lam in zip(weights, logs)])
        tail = None if log_tail is None else tail - log_tail
    if tail is None:
        return None
    half = sum(weights)
    integral = sum(w * m for w, m in zip(weights, ms))
    q_s1 = q * (u - v)
    if derivative:
        # the head, and the half and integral terms of the weights
        # W_a lam_a, are at 2P bits
        log_half = sum(w * lam for w, lam in zip(weights, logs))
        log_integral = sum(w * lam * m for w, lam, m in zip(weights, logs, ms))
        # tail - (head + log_half/2 + log_integral v/(q(u - v))) 2^-P
        # - integral v^2/(q(u - v)^2), over one denominator
        numer = (((2 * ((tail << point) - head) - log_half) * q_s1 - 2 * v * log_integral) * (u - v)
                 - (2 * v * v * integral << point))
        denom = 2 * q_s1 * (u - v) * den << 2 * point
    else:
        # head + tail + half/2 + integral v/(q(u - v)), over one denominator
        numer = (2 * (head + tail) + half) * q_s1 + 2 * v * integral
        denom = 2 * q_s1 * den << point
    return numer, denom


def _fixed_log(n: int, point: int) -> int:
    """floor(2^point log n) for an integer n >= 1, within one unit (and 2^-7 of one).

    n is rounded to wp = point + 8 + bits(bits(n)) bits and its log taken
    there: |log n| < 2^bits(bits(n)), so the log is within 2^-(point + 7)
    before its floor.
    """
    wp = point + 8 + n.bit_length().bit_length()
    return to_fixed(mpf_log(from_int(n, wp, round_nearest), wp, round_nearest), point)


def _periodic_roots(s: Fraction, q: int, scaled: dict, top: int, point: int, logs: bool = False) -> tuple:
    """The integers of ``periodic_zeta`` at N = top/q, by one of its two routes.

    ``scaled`` maps each residue a of the support to its integer weight
    n_a, and r(m) = floor(2^point m^(-s)).  The result is (head, roots):
    the head sum_a n_a sum r(m) over m <= top in the class m mod q of a
    (a = q is the class 0), and {top + a: r(top + a)} for each residue a.
    With ``logs`` the class sums are of r(m) lam(m),
    lam(m) = floor(2^point log m), by the direct route; at s = 0, where
    r(m) = 2^point, the residues of one weight take one log, of the
    product of all their terms.
    """
    u, v = s.numerator, s.denominator
    last = top + q
    if logs and not u:
        products: dict[int, int] = {}
        for a, n in scaled.items():
            products[n] = products.get(n, 1) * math.prod(range(a, top + 1, q))
        return (sum(n * _fixed_log(product, point) for n, product in products.items()) << point,
                dict.fromkeys([top + a for a in scaled], 1 << point))
    if v * (v * point + abs(u) * last.bit_length()) <= _EXACT_ROOT_BITS:
        scale = 1 << (v * point)
        if u > 0:
            def root(m):
                return _iroot(scale // m ** u, v)
        else:
            def root(m):
                return _iroot(m ** -u * scale, v)
    else:
        wp = point + 8
        neg_s = from_rational(-u, v, wp, round_nearest)

        def root(m):
            return to_fixed(mpf_pow(from_int(m), neg_s, wp, round_floor), point)

    # the sieve where the primes up to Nq, about Nq / ln(Nq), are fewer
    # than the N |support| terms; at v = 1 a quotient costs less than a product
    if not logs and v > 1 and len(scaled) * math.log(top) > q:
        by_class, roots = _sieve_sums(root, q, scaled, top, point)
        return sum(n * by_class[a % q] for a, n in scaled.items()), roots
    head, roots = 0, {}
    for a, n in scaled.items():
        terms = list(map(root, range(a, last + 1, q)))
        roots[top + a] = terms.pop()
        if logs:
            terms = [r * _fixed_log(m, point) for r, m in zip(terms, range(a, top + 1, q))]
        head += n * sum(terms)
    return head, roots


def _sieve_sums(root, q: int, support: dict, top: int, point: int) -> tuple:
    """``_periodic_roots``' class sums and roots by the sieve: r(m) = root(m) at primes, else r(m/p) r(p).

    Every m the sum reads is prime to the primes of q that divide no
    residue of the support, and so is every factor of such an m; for a
    Dirichlet-type f these m are the units.  With p_0 the least prime
    that is not one of those, every composite m <= top + q read has least
    prime factor p >= p_0, so its cofactor m/p and p are at most
    (top + q)/p_0: one pass takes and keeps r(m) for every such m up to
    there, with r(1) = 2^point, and adds it to its class.  Past that
    point r(m) is read only once: by its class sum for m <= top, so the
    r(m/p) of one least prime p and one class are summed first and the
    sum takes one product with r(p), and by the rest for m = top + a.
    """
    last = top + q
    lpf = _least_prime_factors(last)
    # the primes of q that divide no residue of the support, and p_0
    barred = [p for p in range(2, q + 1) if not (lpf[p] or q % p) and all(a % p for a in support)]
    p_0 = next(p for p in itertools.count(2) if not lpf[p] and p not in barred)
    cut = last // p_0
    # r(m) for the m <= cut prime to the barred primes, 0 elsewhere
    kept = [0] * (cut + 1)
    kept[1] = 1 << point
    wanted = bytearray([1]) * (cut + 1)
    for p in barred:
        wanted[::p] = bytes(len(range(0, cut + 1, p)))
    wanted[0] = wanted[1] = 0
    by_class = [0] * q
    by_class[1 % q] = kept[1]
    for m in itertools.compress(range(cut + 1), wanted):
        p = lpf[m]
        kept[m] = r = kept[m // p] * kept[p] >> point if p else root(m)
        by_class[m % q] += r
    roots = {}
    for a in support:
        # the m of class a in (cut, top]: cofactor sums per least prime
        primes, cofactors = 0, {}
        for m in range(cut + 1 + (a - cut - 1) % q, top + 1, q):
            p = lpf[m]
            if p:
                cofactors[p] = cofactors.get(p, 0) + kept[m // p]
            else:
                primes += root(m)
        by_class[a % q] += primes + sum(t * kept[p] >> point for p, t in cofactors.items())
        m = top + a
        p = lpf[m]
        roots[m] = kept[m // p] * kept[p] >> point if p else root(m)
    return by_class, roots


def _least_prime_factors(n: int) -> array:
    """The least prime factor of each composite m in 0..n, as an array; 0 at 0, 1 and the primes."""
    table = array("I", [0]) * (n + 1)
    if n < 4:
        return table
    small = _least_prime_factors(math.isqrt(n))
    for p in reversed(range(2, len(small))):  # the least prime writes last
        if not small[p]:
            table[p * p::p] = array("I", [p]) * len(range(p * p, n + 1, p))
    return table


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
