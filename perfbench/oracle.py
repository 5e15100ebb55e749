"""Reference computations the benchmark checks lprime's outputs against.

Nothing here imports lprime, and nothing here runs inside a timed region.

* Numeric values come from mpmath built-ins (``mp.zeta``, ``mp.log``,
  ``mp.sin``) at more digits than the operation asked for.
* Relations among the half-support log-sines log(2 sin(a pi/q)) come from
  two exact sources:

  - ``relation_rank`` counts the even Dirichlet characters chi mod q whose
    sum S(chi) = sum_a chi(a) log|1 - zeta_q^a| vanishes.  By the Euler
    factor of S(chi) and L(1, chi) != 0, that is the trivial character when
    q is not a prime power, and every chi for which some prime p | q does
    not divide the conductor and the primitive chi_0 has chi_0(p) = 1.
    The count is the dimension of the rational relation space.
  - ``distribution_relations`` gives the 0/1 coset vectors of the
    distribution relations; for squarefree q they span that space.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt

from mpmath import mp, mpf


def prime_factors(n: int) -> list[tuple[int, int]]:
    """(p, e) pairs of n by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def half_support(q: int) -> list[int]:
    return [a for a in range(1, q // 2 + 1) if gcd(a, q) == 1]


# ---------------------------------------------------------------------------
# Exact relation rank from characters

def _subgroup_order(q: int, gens: list[int]) -> int:
    """Order of the subgroup of (Z/q)^* generated by ``gens``.

    Adjoining g to a subgroup H gives the union of the cosets H g^k for
    k below the least k with g^k in H.
    """
    group = {1}
    for g in gens:
        power, grown = g, set(group)
        while power not in group:
            grown |= {h * power % q for h in group}
            power = power * g % q
        group = grown
    return len(group)


@lru_cache(maxsize=None)
def relation_rank(q: int) -> int:
    """Dimension of the rational relations among log(2 sin(a pi/q)), a in the half support.

    For a prime p | q write q = p^e m.  The even characters chi with p not
    dividing the conductor and chi_0(p) = 1 are exactly those trivial on
    G_p = <-1, units = 1 mod m, p~>, where p~ = p mod m and 1 mod p^e; there
    are [(Z/q)^* : G_p] of them.  The union over p is counted by
    inclusion-exclusion (the characters trivial on several G_p are those
    trivial on the subgroup they generate).  The trivial character lies in
    every set and counts only when q is not a prime power.
    """
    if q < 3:
        raise ValueError(f"q must be >= 3, got {q}")
    units = [x for x in range(1, q) if gcd(x, q) == 1]
    phi = len(units)
    gens_by_prime = []
    for p, e in prime_factors(q):
        pe = p ** e
        m = q // pe
        gens = [x for x in units if x % m == 1 % m] if m > 1 else list(units)
        if m > 1:
            gens.append(next(x for x in units if x % m == p % m and x % pe == 1))
        gens_by_prime.append(gens)
    union = 0
    for k in range(1, len(gens_by_prime) + 1):
        for subset in combinations(gens_by_prime, k):
            gens = [q - 1] + [g for gens in subset for g in gens]
            union += (-1) ** (k + 1) * (phi // _subgroup_order(q, gens))
    prime_power = len(gens_by_prime) == 1
    return union - prime_power


def basis_relation_rank(q: int) -> int:
    """``relation_rank`` over lprime's log-sine basis.

    The basis drops the residue a with 6a = q or 4a = q (q = 6, 4), whose
    value is log 1 = 0 or (1/2) log 2.  At q = 6 that removes the one
    relation (the zero value); at q = 4 the half support has no relation.
    """
    return relation_rank(q) - (q == 6)


# ---------------------------------------------------------------------------
# Distribution relations and exact linear algebra

def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, isqrt(n) + 1))


@lru_cache(maxsize=None)
def distribution_relations(q: int) -> list[list[int]]:
    """0/1 relation vectors over ``half_support(q)``.

    For q = p m with p prime not dividing m > 1, the lifts of r mod m that
    are coprime to q multiply to (1 - zeta_m^r) / (1 - zeta_m^(r/p)), so the
    product over a coset of <p, -1> in (Z/m)^* is 1.
    """
    residues = half_support(q)
    vectors = []
    for p in range(2, q + 1):
        m = q // p
        if q % p or m % p == 0 or m == 1 or not _is_prime(p):
            continue
        seen: set[int] = set()
        for r in range(1, m):
            if gcd(r, m) != 1 or r in seen:
                continue
            coset, x = set(), r
            while x not in coset:
                coset |= {x, m - x}
                x = x * p % m
            seen |= coset
            vectors.append([int(a % m in coset) for a in residues])
    return vectors


def exact_rank(rows: list[list]) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            factor = work[i][col] / work[rank][col]
            if factor:
                work[i] = [x - factor * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def in_span(vector: list[int], span: list[list[int]]) -> bool:
    return exact_rank(span + [vector]) == exact_rank(span)


def sympy_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q computed by sympy's exact domain matrices."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in rows],
                        (len(rows), len(rows[0])), QQ).rank()


# ---------------------------------------------------------------------------
# Numeric values (mpmath built-ins, more digits than requested)

GUARD = 15


def log_sine(a: int, q: int) -> mpf:
    return mp.log(2 * mp.sin(mp.pi * a / q))


def l_deriv0(q: int, values: dict[int, Fraction], digits: int) -> mpf:
    """L'(0, f) = -sum over the half support of f(a) log(2 sin(a pi/q))."""
    with mp.workdps(digits + GUARD):
        return -mp.fsum(mpf(v.numerator) / v.denominator * log_sine(a, q)
                        for a, v in values.items() if 2 * a < q)


def l_value(s: Fraction, q: int, values: dict[int, Fraction], digits: int) -> mpf:
    """L(s, f) = q^(-s) sum_a f(a) zeta(s, a/q)."""
    with mp.workdps(digits + GUARD):
        sm = mpf(s.numerator) / s.denominator
        total = mp.fsum(mpf(v.numerator) / v.denominator * mp.zeta(sm, mpf(a) / q)
                        for a, v in values.items())
        return mp.power(q, -sm) * total


def identity_value(q: int, digits: int) -> mpf:
    """sum over coprime k of log(2 sin(k pi/q)): log p for q = p^n, else 0."""
    fact = prime_factors(q)
    with mp.workdps(digits + GUARD):
        return mp.log(fact[0][0]) if len(fact) == 1 else mpf(0)


def close(got, expected, digits: int) -> bool:
    """|got - expected| < 10^(-d+5), times |expected| when that exceeds 1.

    Reports print d significant digits, so a value of size 10^k can carry
    a rounding error of 10^(k-d); the scale keeps the tolerance relative
    for such values and absolute below 1.
    """
    with mp.workdps(digits + GUARD):
        got = mpf(got)
        size = max(mpf(1), abs(expected))
        return abs(got - expected) < mpf(10) ** (-digits + 5) * size
