"""The exact relation finder and the exact ``independence_24`` flag.

Every check compares lprime against the benchmark's oracle
(``perfbench/oracle.py``, which never imports lprime): relation ranks
counted from characters through subgroup indices, and log-sine values
from mpmath built-ins.  Blind PSLQ, which no library route calls, is the
independent cross-check on plain and extended bases.  Each coset relation
is also certified exactly, by a test-local cyclotomic oracle that imports
nothing from lprime either.
"""

import pytest
from mpmath import mp, mpf

from lprime.arith import coset_relations, factorize, relation_count
from lprime.classify import classify_modulus
from lprime.errors import PrecisionError, ValidationError
from lprime.relations import (
    find_integer_relation,
    find_relation_for_modulus,
    log_sine_basis,
    pslq_relation,
)
from tests.conftest import oracle

MODULI = range(3, 1000)


def _vectors(q):
    """The coset relations as 0/1 vectors over the oracle's half support."""
    half = oracle.half_support(q)
    return [[int(a in s) for a in half] for s in map(set, coset_relations(q))]


def test_coset_relations_span_the_relation_space():
    wrong = [q for q in MODULI if oracle.exact_rank(_vectors(q)) != oracle.relation_rank(q)]
    assert wrong == []


@pytest.mark.parametrize("q", [36, 68, 100])
def test_prime_square_relations_are_needed(q):
    # the relations of primes p with p^2 | q are what the distribution
    # relations (p exactly dividing q) miss here
    short = oracle.exact_rank(oracle.distribution_relations(q))
    assert short < oracle.relation_rank(q) == oracle.exact_rank(_vectors(q))


def test_independence_24_is_the_exact_rank():
    wrong = [q for q in MODULI
             if classify_modulus(q).independence_24 != (oracle.basis_relation_rank(q) <= 1)]
    assert wrong == []


@pytest.mark.parametrize("q", [36, 68, 100, 693])
def test_coset_relations_vanish_at_240_digits(q):
    with mp.workdps(240):
        values = {a: oracle.log_sine(a, q) for a in oracle.half_support(q)}
        for support in coset_relations(q):
            residual = abs(mp.fsum(values[a] for a in support))
            assert residual < mpf(10) ** -230, (q, support, residual)


def _mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _cyclotomic(q):
    """Phi_q = prod_{d | q} (x^d - 1)^mu(q/d), ascending integer coefficients."""
    poly = [1]
    divisors = [d for d in range(1, q + 1) if q % d == 0]
    for d in divisors:  # the factors with exponent +1
        if _mobius(q // d) == 1:
            shifted = [0] * d + poly
            poly = [a - b for a, b in zip(shifted, poly + [0] * d)]
    for d in divisors:  # then the exact divisions, poly = (x^d - 1) quotient
        if _mobius(q // d) == -1:
            quotient = [0] * (len(poly) - d)
            for i in range(len(quotient)):
                quotient[i] = (quotient[i - d] if i >= d else 0) - poly[i]
            poly = quotient
    return poly


def _product_is_one(q, phi, residues):
    """Whether prod_b (1 - x^b) over ``residues`` is 1 modulo Phi_q, over the integers.

    The product is taken modulo x^q - 1, which Phi_q divides, and the
    remainder of it minus 1 by the monic Phi_q is checked to be 0.
    """
    rest = [1] + [0] * (q - 1)
    for b in residues:
        rest = [a - c for a, c in zip(rest, rest[-b:] + rest[:-b])]
    rest[0] -= 1
    n = len(phi) - 1
    for i in range(q - 1, n - 1, -1):
        c = rest[i]
        if c:
            rest[i - n:i + 1] = [a - c * b for a, b in zip(rest[i - n:i + 1], phi)]
    return not any(rest)


def test_coset_relations_are_cyclotomic_units_equal_to_one():
    # the product of 1 - zeta_q^b over S and q - S is prod_S |1 - zeta_q^b|^2,
    # so a relation sum_S log(2 sin(b pi/q)) = 0 holds exactly when that
    # product is 1 in Z[zeta_q]
    wrong = []
    for q in range(3, 300):
        phi = _cyclotomic(q)
        wrong += [(q, s) for s in coset_relations(q)
                  if not _product_is_one(q, phi, [*s, *(q - b for b in s)])]
    assert wrong == []
    # negative control: a relation with a = 1 added fails the check
    for q in (55, 155):
        support = next(s for s in coset_relations(q) if 1 not in s) + (1,)
        assert not _product_is_one(q, _cyclotomic(q), [*support, *(q - b for b in support)]), q


@pytest.mark.parametrize("q", [55, 105])
def test_blind_pslq_relation_lies_in_the_span(q):
    basis = log_sine_basis(q, 120)
    assert [a for a, _ in basis.entries] == oracle.half_support(q)
    found = pslq_relation(basis.all_values(), 4, 120)
    assert found is not None and any(found)
    span = _vectors(q)
    assert oracle.in_span(found, span)
    # negative control: the membership test can fail
    assert not oracle.in_span([int(a == 1) for a, _ in basis.entries], span)


@pytest.mark.parametrize("q", [8, 12, 16, 30, 36, 57, 64, 66, 84])
def test_blind_pslq_on_extended_basis_agrees_with_theory(q):
    # no relation involves pi, and log 2 only at q = 2^n, n >= 3, where the
    # half support sums to (1/2) log 2; elsewhere the residue part is a
    # relation of the plain basis
    basis = log_sine_basis(q, 60, extended=True)
    assert [a for a, _ in basis.entries] == oracle.half_support(q)
    found = pslq_relation(basis.all_values(), 10, 60)
    assert found is not None
    *residues, c_pi, c_2 = found
    assert c_pi == 0
    if q in (8, 16, 64):
        assert (residues, c_2) == ([2] * len(residues), -1)
    else:
        assert c_2 == 0 and any(residues)
        assert oracle.in_span(residues, _vectors(q))


def test_prime_powers_return_none():
    for q in range(5, 201):
        if len(factorize(q)) == 1:
            assert coset_relations(q) == [], q
            assert find_relation_for_modulus(q, 10**6, 30) is None, q


def test_relation_count_is_the_capped_number_of_coset_relations():
    # the per-prime generator criterion against the supports it replaces
    for q in range(2, 3001):
        assert relation_count(q) == min(len(coset_relations(q)), 2), q


def test_at_most_one_relation_exactly_where_the_rank_is_at_most_one():
    for q in MODULI:
        assert (relation_count(q) <= 1) == (oracle.relation_rank(q) <= 1), q


def test_coset_relations_returns_a_fresh_list():
    for q in (84, 155, 210):
        first = coset_relations(q)
        expected = list(first)
        first.clear()
        first.append((1,))
        assert coset_relations(q) == expected, q
        assert coset_relations(q) is not coset_relations(q)


def test_selection_order():
    # q = 55: the two classes mod 5 are the shortest; the witness class
    # {2, 3} does not contain a = 1, so it comes first
    rel = find_relation_for_modulus(55, 4, 60)
    assert sorted(rel.coefficients) == [a for a in oracle.half_support(55) if a % 5 in (2, 3)]
    assert set(rel.coefficients.values()) == {1}
    # q = 155: a 12-term coset of <5, -1> mod 31, not the one of a = 1
    rel = find_relation_for_modulus(155, 4, 60)
    assert len(rel.coefficients) == 12 and 1 not in rel.coefficients
    assert rel.residual_at_2d < mpf(10) ** -110


def test_input_errors_unchanged():
    with pytest.raises(ValidationError):
        find_integer_relation(log_sine_basis(21, 60), 0, 60)
    for q in (2, 3, 4, 6):  # no basis below q = 3, fewer than two basis values above
        with pytest.raises(ValidationError):
            find_relation_for_modulus(q, 10, 60)
    with pytest.raises(PrecisionError):
        find_relation_for_modulus(21, 10, 14)
    with pytest.raises(PrecisionError):
        find_integer_relation(log_sine_basis(21, 50), 10, 80)
