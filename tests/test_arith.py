"""Modular arithmetic and character tests."""

import random
from math import gcd

import pytest
import sympy

from lprime.arith import (
    Character,
    RootType,
    character_half_sum,
    coset_relations,
    euler_phi,
    factorize,
    half_units,
    unit_mask,
    is_prime,
    is_prime_power,
    lift_character,
    mult_order,
    quadratic_character,
    relation_count,
    root_type,
)
from lprime.errors import ValidationError


def test_is_prime_edges():
    assert not is_prime(0) and not is_prime(1)
    assert is_prime(2) and is_prime(3) and is_prime(31)
    assert not is_prime(25) and not is_prime(91)
    assert is_prime(10**9 + 7)
    for n in range(10**4 + 1):
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(155) == [(5, 1), (31, 1)]
    assert factorize(2**5 * 31) == [(2, 5), (31, 1)]


def test_factorize_against_sympy(rng):
    # the fixed inputs have large prime factors; a prime left over once p*p
    # exceeds what remains must come last, once, with exponent 1
    fixed = [2 * 999983, 3 * (10**9 + 7), 999983**2, 2**31 - 1, 97 * 10007 * 1000003, 2**20 * 65537]
    for n in fixed + [rng.randint(1, 10**7) for _ in range(60)]:
        assert factorize(n) == sorted(sympy.factorint(n).items()), n


def test_is_prime_power():
    assert is_prime_power(9) and is_prime_power(2) and is_prime_power(27)
    assert not is_prime_power(1) and not is_prime_power(6) and not is_prime_power(155)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(9) == 6
    assert euler_phi(155) == 120


def test_euler_phi_brute_force(rng):
    for _ in range(25):
        n = rng.randint(1, 300)
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def test_mult_order_examples():
    assert mult_order(1, 7) == 1
    assert mult_order(5, 31) == 3
    assert mult_order(2, 9) == 6


def test_mult_order_brute_force(rng):
    for _ in range(40):
        m = rng.randint(2, 400)
        a = rng.randint(1, m - 1)
        if gcd(a, m) != 1:
            continue
        k, x = 1, a % m
        while x != 1:
            x = x * a % m
            k += 1
        assert mult_order(a, m) == k


def test_mult_order_divides_phi(rng):
    for _ in range(50):
        m = rng.randint(2, 1000)
        a = rng.randint(1, m - 1)
        if gcd(a, m) == 1:
            assert euler_phi(m) % mult_order(a, m) == 0


def test_mult_order_rejects_non_unit():
    with pytest.raises(ValidationError):
        mult_order(6, 9)


# Table regenerated from the mult_order oracle; all three classes appear.
@pytest.mark.parametrize(
    "g,m,expected",
    [
        (2, 9, RootType.PRIMITIVE),        # ord 6 = phi(9)
        (3, 17, RootType.PRIMITIVE),       # ord 16 = phi(17)
        (2, 7, RootType.SEMI_PRIMITIVE),   # ord 3 = phi(7)/2
        (2, 17, RootType.SEMI_PRIMITIVE),  # ord 8 = phi(17)/2
        (1, 7, RootType.NEITHER),          # ord 1
        (4, 17, RootType.NEITHER),         # ord 4
    ],
)
def test_root_type_table(g, m, expected):
    assert root_type(g, m) is expected
    # each row reproducible from the order itself
    order, phi = mult_order(g, m), euler_phi(m)
    if expected is RootType.PRIMITIVE:
        assert order == phi
    elif expected is RootType.SEMI_PRIMITIVE:
        assert order * 2 == phi
    else:
        assert order != phi and order * 2 != phi


def test_phi_taken_once_per_order(monkeypatch):
    # the order and phi(m) come from one factorization of m and one of phi(m)
    import lprime.arith as arith_mod

    calls = []
    factor = arith_mod.factorize

    def counted(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(arith_mod, "factorize", counted)
    assert root_type(3, 7) is RootType.PRIMITIVE
    assert calls == [7, 6]
    calls.clear()
    assert relation_count(12) == 1
    assert calls == [12, 3, 2, 4, 2]


def test_primitive_root_enumerates_units():
    for g, m in ((2, 9), (3, 17), (2, 11), (3, 50)):
        if root_type(g, m) is not RootType.PRIMITIVE:
            continue
        powers = set()
        x = 1
        for _ in range(euler_phi(m)):
            x = x * g % m
            powers.add(x)
        units = {a for a in range(1, m) if gcd(a, m) == 1}
        assert powers == units


# ---------------------------------------------------------------------------
# Characters

def test_quadratic_character_mod5():
    chi = quadratic_character(5)
    assert (chi(1), chi(2), chi(3), chi(4)) == (1, -1, -1, 1)
    assert chi(5) == 0
    assert chi.is_even


def test_quadratic_character_mod13_brute_force():
    chi = quadratic_character(13)
    squares = {a * a % 13 for a in range(1, 13)}
    for a in range(1, 13):
        assert chi(a) == (1 if a in squares else -1)
    assert chi(2) == -1


def test_mult_order_at_the_least_modulus():
    # m = 2 is the least modulus taken, and every unit has order 1 there
    assert mult_order(1, 2) == mult_order(3, 2) == mult_order(-1, 2) == 1


@pytest.mark.parametrize("p", [2, 15, 27])
def test_quadratic_character_names_a_conductor_that_is_no_odd_prime(p):
    # 2 and the composites are refused as conductors before p mod 4 is read
    with pytest.raises(ValidationError, match=f"conductor must be an odd prime, got {p}$"):
        quadratic_character(p)


def test_quadratic_character_rejections():
    with pytest.raises(ValidationError):
        quadratic_character(7)  # odd character, p = 3 mod 4
    with pytest.raises(ValidationError):
        quadratic_character(9)  # composite
    with pytest.raises(ValidationError):
        quadratic_character(2)


def test_character_table_validation():
    with pytest.raises(ValidationError):
        Character(conductor=5, modulus=5, values=(0, 1, 1, 1, 1))  # principal
    with pytest.raises(ValidationError):
        Character(conductor=5, modulus=5, values=(0, 1, -1, 1, 1))  # not multiplicative
    with pytest.raises(ValidationError):
        Character(conductor=5, modulus=12, values=(0, 1, -1, -1, 1))  # 5 does not divide 12


def test_lift_character_values():
    chi = lift_character(quadratic_character(5), 155)
    assert chi(31) == 0  # non-unit of 155 even though 31 = 1 mod 5
    assert chi(5) == 0
    assert chi(2) == -1
    assert chi(1) == 1
    assert chi(156) == 1  # periodic mod 155


def test_lift_character_rejects_bad_modulus():
    with pytest.raises(ValidationError):
        lift_character(quadratic_character(5), 12)


def test_lift_evenness_folding():
    for q in (55, 155, 35, 65):
        chi = lift_character(quadratic_character(5), q)
        for s in range(1, q):
            if gcd(s, q) == 1:
                assert chi(q - s) == chi(s)


def test_character_multiplicative_random(rng):
    chi = lift_character(quadratic_character(13), 13 * 7)
    q = chi.modulus
    units = [a for a in range(1, q) if gcd(a, q) == 1]
    for _ in range(10_000):
        a, b = rng.choice(units), rng.choice(units)
        assert chi(a * b % q) == chi(a) * chi(b)


def test_character_half_sum_examples():
    chi155 = lift_character(quadratic_character(5), 155)
    assert character_half_sum(chi155) == -1
    chi55 = lift_character(quadratic_character(5), 55)
    assert character_half_sum(chi55) == -1
    chi5 = quadratic_character(5)
    assert character_half_sum(chi5) == -1  # single term b = 2


def test_character_half_sum_zero_including_one():
    # for odd q the full half-range sum (b = 1 included) vanishes, so the
    # 2..q/2 sum is always -chi(1) = -1
    for q in (35, 55, 65, 85, 155, 205):
        chi = lift_character(quadratic_character(5), q)
        full = sum(chi(b) for b in range(1, q // 2 + 1))
        assert full == 0
        assert character_half_sum(chi) == -1


def test_unit_mask_matches_gcd_definition():
    for q in range(1, 200):
        for top in (0, q // 2, q, 2 * q + 1):
            assert list(unit_mask(q, top)) == [int(gcd(a, q) == 1) for a in range(top + 1)], (q, top)


def test_half_units_sieve_matches_gcd_definition():
    for q in range(2, 3001):
        assert half_units(q) == [a for a in range(1, q // 2 + 1) if gcd(a, q) == 1], q
    assert half_units(1) == half_units(0) == half_units(-7) == []


def test_character_table_negative_at_one_is_not_multiplicative():
    # chi(1) = -1 breaks chi(1 * 1) = chi(1)^2; the table takes -1, so it
    # is not called principal
    with pytest.raises(ValidationError, match="not completely multiplicative"):
        Character(conductor=5, modulus=5, values=(0, -1, 1, 1, 1))


#: The Legendre symbol mod 7, an odd character.
_ODD_7 = (0, 1, 1, -1, 1, -1, -1)


@pytest.mark.parametrize("call, message", [
    (lambda: factorize(0), "can only factor positive integers"),
    (lambda: euler_phi(0), "totient undefined"),
    (lambda: mult_order(1, 1), "modulus must be >= 2"),
    (lambda: root_type(1, 2), "needs modulus >= 3"),
    (lambda: Character(conductor=9, modulus=9, values=(0,) + (1,) * 8), "conductor must be an odd prime"),
    (lambda: Character(conductor=5, modulus=5, values=(0, 1, -1)), "one entry per residue"),
    (lambda: Character(conductor=3, modulus=3, values=(0, 1, 2)), "values must be in"),
    (lambda: character_half_sum(Character(conductor=3, modulus=3, values=(0, 1, -1))), "needs modulus >= 5"),
    (lambda: character_half_sum(Character(conductor=7, modulus=7, values=_ODD_7)), "even characters"),
    (lambda: coset_relations(1), "relations need q >= 2"),
    (lambda: relation_count(1), "relations need q >= 2"),
    # an integer argument is an int and not a bool
    (lambda: factorize(2.5), "can only factor positive integers"),
    (lambda: factorize(True), "can only factor positive integers"),
    (lambda: factorize("12"), "can only factor positive integers"),
    (lambda: euler_phi(2.5), "totient undefined"),
    (lambda: euler_phi(True), "totient undefined"),
    (lambda: mult_order(2, 9.0), "modulus must be >= 2"),
    (lambda: root_type(2, 5.0), "needs modulus >= 3"),
    (lambda: character_half_sum(Character(conductor=5, modulus=10.0, values=(0, 1, -1, -1, 1))),
     "needs modulus >= 5"),
    (lambda: coset_relations(12.0), "relations need q >= 2"),
    (lambda: relation_count(12.0), "relations need q >= 2"),
    (lambda: relation_count("12"), "relations need q >= 2"),
], ids=["factorize", "euler_phi", "mult_order", "root_type", "conductor", "table-length",
        "table-values", "half-sum-modulus", "half-sum-odd", "coset_relations", "relation_count",
        "factorize-float", "factorize-bool", "factorize-str", "euler_phi-float", "euler_phi-bool",
        "mult_order-float", "root_type-float", "half-sum-float-modulus", "coset_relations-float",
        "relation_count-float", "relation_count-str"])
def test_rejected_arguments(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
