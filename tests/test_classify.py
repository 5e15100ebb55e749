"""Classifier ladder and vanishing-verdict tests."""

import hashlib
import json
from fractions import Fraction
from math import gcd

import pytest
from mpmath import mp, mpf

from lprime.arith import RootType, factorize, mult_order, root_type
from lprime.classify import (
    Case,
    ONE_RELATION_CRITERION,
    PRIME_POWER_CRITERION,
    Q6_DEGENERACY,
    VerdictKind,
    classify_modulus,
    vanishing_verdict,
)
from lprime.errors import ValidationError
from lprime.lseries import l_deriv0_even
from lprime.periodic import PeriodicFunction, constant_on_units, from_character
from lprime.arith import coset_relations, lift_character, quadratic_character
from lprime import numkernel
from lprime.numkernel import log2_const, prec_bits
from lprime.relations import find_relation_for_modulus, log_sine_basis
from tests.conftest import oracle, random_even_dirichlet


@pytest.mark.parametrize(
    "q,label",
    [
        (9, "PrimePower"),
        (2, "PrimePower"),
        (32, "PrimePower"),
        (6, "QSix"),
        (12, "PeiFeng(I,1)"),
        (20, "PeiFeng(I,1)"),
        (28, "PeiFeng(I,2)"),
        (24, "PeiFeng(II,1)"),
        (45, "PeiFeng(III,2)"),
        (15, "PeiFeng(III,2)"),
        (21, "PeiFeng(III,1)"),
        (90, "TwoTimesPeiFeng(III)"),
        (10, "TwoPNPower"),
        (18, "TwoPNPower"),
        (155, "Uncovered"),
        (105, "Uncovered"),
        (65, "Uncovered"),
    ],
)
def test_classifier_table(q, label):
    assert classify_modulus(q).label() == label


def test_hand_derived_facts_behind_table():
    # the conditions the table rows rely on, recomputed from the primitives
    assert mult_order(2, 3) == 2  # 12 -> (I,1)
    assert root_type(2, 7) is RootType.SEMI_PRIMITIVE and 7 % 4 == 3  # 28 -> (I,2)
    assert mult_order(3, 8) == 2  # 24: order of p1 mod 2^3 is 2^(3-2)
    assert (2 ** 0 * 3) % 8 != 7
    assert root_type(3, 5) is RootType.PRIMITIVE  # 45 -> (III,2)
    assert root_type(5, 9) is RootType.PRIMITIVE
    assert root_type(3, 7) is RootType.PRIMITIVE  # 21 -> (III,1), mixed pattern
    assert root_type(7, 3) is RootType.SEMI_PRIMITIVE
    assert mult_order(5, 31) == 3  # 155: 5 is not a primitive root mod 31
    assert root_type(5, 31) is not RootType.PRIMITIVE


def test_trace_entries_match_verdicts():
    cls = classify_modulus(12)
    trace = dict(cls.trace)
    assert trace["q is a prime power"] is False
    assert trace["2 is a primitive root mod 3"] is True
    cls155 = classify_modulus(155)
    trace155 = dict(cls155.trace)
    assert trace155["5 primitive root mod 31 and 31 primitive root mod 5"] is False


def test_independence_flags():
    assert classify_modulus(9).independence_25 is True
    assert classify_modulus(6).independence_25 is True
    # powers of 2 keep the flag where the log-sine basis is undefined (q = 2) or empty (q = 4)
    assert classify_modulus(2).independence_25 is True
    assert classify_modulus(4).independence_25 is True
    assert classify_modulus(12).independence_25 is False
    assert classify_modulus(12).independence_24 is True
    assert classify_modulus(10).independence_24 is True
    assert classify_modulus(155).independence_24 is False
    assert classify_modulus(155).independence_25 is False


#: The moduli q < 2000 that the ladder files under a label of independence
#: but whose log-sine basis has two or more rational relations, by label;
#: every other label is right at every modulus it files.
LADDER_FAILURES_BELOW_2000 = {
    "TwoTimesPeiFeng(III)": (
        66, 102, 114, 126, 170, 186, 198, 238, 258, 322, 354, 370, 374, 378, 430, 434,
        494, 498, 530, 534, 558, 594, 642, 658, 678, 682, 730, 762, 774, 782, 786, 822,
        834, 850, 854, 882, 902, 938, 962, 970, 978, 1054, 1062, 1066, 1074, 1106, 1130,
        1134, 1246, 1258, 1266, 1298, 1338, 1362, 1370, 1394, 1398, 1422, 1442, 1494,
        1506, 1542, 1558, 1562, 1570, 1606, 1634, 1666, 1674, 1686, 1698, 1730, 1734,
        1742, 1782, 1826, 1850, 1930, 1970, 1978, 1986),
    "TwoPNPower": (
        34, 62, 82, 86, 146, 178, 194, 218, 226, 254, 274, 302, 314, 386, 446, 458, 466,
        482, 502, 514, 554, 562, 566, 578, 614, 626, 662, 674, 706, 794, 802, 818, 862,
        866, 878, 898, 914, 998, 1042, 1138, 1142, 1154, 1186, 1202, 1234, 1262, 1282,
        1286, 1346, 1366, 1382, 1454, 1466, 1478, 1522, 1538, 1618, 1622, 1714, 1762,
        1822, 1838, 1858, 1874, 1906, 1922, 1942, 1954, 1994),
    "PeiFeng(IV,1)": (84, 252, 276, 308, 564, 588, 756, 828, 852, 948, 1652, 1692, 1748, 1764),
    "PeiFeng(IV,2)": (204, 748, 1068, 1356, 1644),
    "TwoTimesPeiFeng(V)": (462, 966, 1386),
    "PeiFeng(V,1)": (693, 1449),
}


def test_ladder_failures_below_2000_against_exact_rank():
    # the ladder's labels stand for independence (at most one relation);
    # the oracle's rank from characters, which never imports lprime, finds
    # 174 of its 780 labelled moduli below 2000 with two or more.  The
    # exact flag independence_24 disagrees with the label at exactly those.
    labelled, failures = {}, {}
    for q in range(3, 2000):
        cls = classify_modulus(q)
        if cls.case in (Case.PEI_FENG, Case.TWO_PN_POWER, Case.TWO_TIMES_PEI_FENG):
            labelled[cls.label()] = labelled.get(cls.label(), 0) + 1
            independent = oracle.basis_relation_rank(q) < 2
            if not independent:
                failures.setdefault(cls.label(), []).append(q)
            assert cls.independence_24 is independent, q
    assert {label: tuple(qs) for label, qs in failures.items()} == LADDER_FAILURES_BELOW_2000
    assert sum(labelled.values()) == 780
    assert {label: labelled[label] for label in failures} == {
        "TwoTimesPeiFeng(III)": 141, "TwoPNPower": 183, "PeiFeng(IV,1)": 14,
        "PeiFeng(IV,2)": 20, "TwoTimesPeiFeng(V)": 3, "PeiFeng(V,1)": 6}


def test_two_pn_power_fails_exactly_where_two_fails_the_sub_case_test():
    # at q = 2 p^n the exact criterion asks that 2 and -1 generate
    # (Z/p^n)^*: 2 primitive, or semi-primitive with -1 outside <2>, which
    # is p = 3 (mod 4).  That is the I/II sub-case test, which the
    # TwoPNPower branch never checks.  At q = 34, <2, -1> = <2> has index 2.
    assert mult_order(2, 17) == 8 and pow(2, 4, 17) == 16
    def two_and_minus_one_generate(q):
        rt, p = root_type(2, q // 2), factorize(q // 2)[0][0]
        return rt is RootType.PRIMITIVE or rt is RootType.SEMI_PRIMITIVE and p % 4 == 3

    labelled = [q for q in range(3, 2000) if classify_modulus(q).case is Case.TWO_PN_POWER]
    assert len(labelled) == 183
    failing = tuple(q for q in labelled if not two_and_minus_one_generate(q))
    assert failing == LADDER_FAILURES_BELOW_2000["TwoPNPower"]


@pytest.mark.parametrize("label, count", [
    ("TwoTimesPeiFeng(III)", 141), ("TwoTimesPeiFeng(V)", 3), ("PeiFeng(IV,2)", 20)])
def test_labels_fail_exactly_where_two_and_minus_one_miss_the_odd_units(label, count):
    # at q = 2m or 4m, m odd, the exact criterion at the prime 2 asks that
    # 2 and -1 generate (Z/m)^*.  The TwoTimesPeiFeng branch runs the
    # ladder on m alone and the IV,2 sub-case checks 2 mod one prime power
    # of m, so neither checks it.  At q = 66, -1 = 2^5 mod 33.
    assert mult_order(2, 33) == 10 and pow(2, 5, 33) == 32
    def two_and_minus_one_generate(q):
        m = q // (q & -q)
        generated, x = set(), 1
        while x not in generated:
            generated |= {x, m - x}
            x = 2 * x % m
        return len(generated) == sum(gcd(a, m) == 1 for a in range(1, m))

    labelled = [q for q in range(3, 2000) if classify_modulus(q).label() == label]
    assert len(labelled) == count
    failing = tuple(q for q in labelled if not two_and_minus_one_generate(q))
    assert failing == LADDER_FAILURES_BELOW_2000[label]


@pytest.mark.parametrize("q", [8, 16, 32, 64])
def test_independence_25_refuted_at_powers_of_two(q):
    # the half-support log-sines at q = 2^n, n >= 3, sum to (1/2) log 2
    # (the cyclotomic polynomial is 2 at 1), a relation with log 2
    half_sum = sum(v for _, v in log_sine_basis(q, 50).entries)
    assert abs(half_sum - log2_const(50) / 2) < mpf(10) ** -45
    cls = classify_modulus(q)
    assert cls.independence_25 is False
    assert cls.independence_24 is True


def test_power_of_two_relation_found():
    rel = find_relation_for_modulus(8, 10, 60, extended=True)
    assert rel is not None and rel.verified_at_2d
    assert rel.coefficients == {1: 2, 3: 2}
    assert (rel.pi_coefficient, rel.log2_coefficient) == (0, -1)


def test_classify_rejects_small():
    with pytest.raises(ValidationError):
        classify_modulus(1)
    with pytest.raises(ValidationError):
        classify_modulus(0)


@pytest.mark.parametrize("q", [7.0, "7", Fraction(7), 1, 0])
def test_classify_names_a_modulus_that_is_no_integer_from_2(q):
    # a value equal to an admissible integer is refused all the same
    with pytest.raises(ValidationError, match=r"modulus must be an integer >= 2, got "):
        classify_modulus(q)


def test_shape_v_reads_all_three_pairs_and_both_orientations():
    # past the digest's 2000: at 3059 = 7 * 19 * 23 only (7-1)/2 and
    # (19-1)/2 share a factor, and 2607 = 3 * 11 * 79 is V,1 by the
    # reverse orientation of the cyclic pattern alone
    c = classify_modulus(3059)
    assert c.label() == "Uncovered"
    assert c.trace[-1] == ("(p-1)/2 pairwise coprime across the three primes", False)
    c = classify_modulus(2607)
    assert c.label() == "PeiFeng(V,1)"
    assert c.trace[-2:] == [("cyclic primitive/semi-primitive pattern (forward)", False),
                            ("cyclic primitive/semi-primitive pattern (reverse)", True)]


#: SHA-256 of the JSON list of every classification for q in 2..1999:
#: every label, flag and trace byte of the ladder, fixed before it was
#: rebuilt from shared predicates.
CLASSIFICATIONS_BELOW_2000_SHA256 = "e2da298da8f64ee396b2520297eb04660ee8a44efba8cd3c8122acf2753fc0d1"


def test_classifications_below_2000_digest():
    blob = json.dumps([classify_modulus(q).to_json_dict() for q in range(2, 2000)])
    assert hashlib.sha256(blob.encode()).hexdigest() == CLASSIFICATIONS_BELOW_2000_SHA256


def test_classification_json_stable():
    cls = classify_modulus(45)
    blob = cls.dumps()
    data = json.loads(blob)
    assert data["case"] == "PeiFeng" and data["subcase"] == "III,2"
    assert json.dumps(data) == blob  # byte-identical re-serialization
    assert all(set(e) == {"check", "result"} for e in data["trace"])


# ---------------------------------------------------------------------------
# Vanishing verdicts

def test_verdict_prime_power():
    v = vanishing_verdict(9, PeriodicFunction(q=9, values={}), 50)
    assert v.kind is VerdictKind.ZERO_IFF_ZERO_FUNCTION
    assert v.applied_theorem == PRIME_POWER_CRITERION
    assert v.numeric_residual is None


def test_verdict_covered_composite():
    v = vanishing_verdict(12, constant_on_units(12, 3), 50)
    assert v.kind is VerdictKind.ZERO_IFF_CONSTANT_ON_UNITS
    assert v.applied_theorem == ONE_RELATION_CRITERION


def test_verdict_q6():
    v = vanishing_verdict(6, constant_on_units(6, 2), 50)
    assert v.kind is VerdictKind.ALWAYS_ZERO
    assert v.applied_theorem == Q6_DEGENERACY


def test_verdict_witness_unknown():
    chi = lift_character(quadratic_character(5), 155)
    f = from_character(chi, 0)
    v = vanishing_verdict(155, f, 50)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.applied_theorem is None
    assert v.numeric_residual is not None and v.numeric_residual < mpf(10) ** -40


def test_verdict_two_pn_unknown(rng):
    f = random_even_dirichlet(34, rng)
    v = vanishing_verdict(34, f, 50)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.numeric_residual is not None


def test_verdict_json_dict(rng):
    v = vanishing_verdict(9, PeriodicFunction(q=9, values={}), 50)
    data = v.to_json_dict()
    assert data == {
        "kind": "ZeroIffZeroFunction",
        "applied_theorem": PRIME_POWER_CRITERION,
        "numeric_residual": None,
    }
    u = vanishing_verdict(34, random_even_dirichlet(34, rng), 50)
    assert isinstance(u.to_json_dict()["numeric_residual"], str)


def test_verdict_rejects_mismatch(rng):
    with pytest.raises(ValidationError):
        vanishing_verdict(10, random_even_dirichlet(9, rng), 50)
    with pytest.raises(ValidationError):
        vanishing_verdict(5, PeriodicFunction(q=5, values={1: 1}), 50)


def test_verdict_rejects_bad_digits():
    # on every path, not only where the numeric residual is computed
    with pytest.raises(ValidationError):
        vanishing_verdict(9, PeriodicFunction(q=9, values={}), 3)
    with pytest.raises(ValidationError):
        vanishing_verdict(12, constant_on_units(12, 1), -5)
    with pytest.raises(ValidationError):
        vanishing_verdict(6, constant_on_units(6, 1), "x")


def test_verdict_kind_matches_relation_rank():
    # the oracle counts the rank from characters and never imports lprime
    for q in range(3, 1000):
        kind = vanishing_verdict(q, PeriodicFunction(q=q, values={}), 10).kind
        rank = oracle.relation_rank(q)
        expected = {0: VerdictKind.ZERO_IFF_ZERO_FUNCTION,
                    1: VerdictKind.ZERO_IFF_CONSTANT_ON_UNITS}.get(rank, VerdictKind.UNKNOWN)
        if q == 6:
            expected = VerdictKind.ALWAYS_ZERO
        assert kind is expected, (q, rank, kind)


def test_nonconstant_vanishing_at_ladder_modulus():
    # q = 84 is PeiFeng(IV,1), yet a non-constant f has L'(0, f) = 0
    assert classify_modulus(84).label() == "PeiFeng(IV,1)"
    support = coset_relations(84)[0]
    assert len(support) < len(oracle.half_support(84))
    values = {b: Fraction(1) for a in support for b in (a, 84 - a)}
    assert abs(oracle.l_deriv0(84, values, 50)) < mpf(10) ** -45
    v = vanishing_verdict(84, PeriodicFunction(q=84, values=values), 50)
    assert v.kind is VerdictKind.UNKNOWN
    assert v.numeric_residual < mpf(10) ** -45


@pytest.mark.parametrize("q", [39, 84, 105, 660])
@pytest.mark.parametrize("ambient_bits", [53, prec_bits(300)])
def test_verdict_residual_of_a_dense_f_is_the_log_sine_sum(q, ambient_bits, rng):
    # a dense f takes the log-sine route, so the residual keeps its bits:
    # the abs of l_deriv0_even at the caller's precision
    f = random_even_dirichlet(q, rng, allow_zero=False)
    with mp.workprec(ambient_bits):
        v = vanishing_verdict(q, f, 50)
        expected = abs(l_deriv0_even(f, 50))
    assert v.kind is VerdictKind.UNKNOWN
    assert v.numeric_residual._mpf_ == expected._mpf_


def _no_sine_walk(*args):
    raise AssertionError("the verdict walked the sines")


@pytest.mark.parametrize("q", [100005, 1000005])
def test_verdict_residual_of_a_sparse_f_walks_no_sines(q, monkeypatch):
    # an even f on 4 residues takes the series, whose cost follows the
    # support; the oracle takes mpmath's sin and log, with no lprime code
    values = {1: Fraction(1), 2: Fraction(-3, 2), q - 2: Fraction(-3, 2), q - 1: Fraction(1)}
    monkeypatch.setattr(numkernel, "_sine_walk", _no_sine_walk)
    for d in (20, 50):
        with mp.workprec(prec_bits(d)):
            v = vanishing_verdict(q, PeriodicFunction(q=q, values=values), d)
            assert v.kind is VerdictKind.UNKNOWN
            assert abs(v.numeric_residual - abs(oracle.l_deriv0(q, values, d))) < mpf(10) ** (-d + 5)
    zero = vanishing_verdict(q, PeriodicFunction(q=q, values={}), 50)
    assert zero.kind is VerdictKind.UNKNOWN and zero.numeric_residual == 0


def test_verdict_soundness_against_numerics(rng):
    # predicted-zero cases sit far below 1e-50 at 60 digits; predicted
    # non-zero cases sit far above
    thresh = mpf(10) ** -50
    # prime powers: zero iff zero function
    for q in (9, 25, 27):
        f = random_even_dirichlet(q, rng, allow_zero=False)
        assert abs(l_deriv0_even(f, 60)) > thresh
        assert abs(l_deriv0_even(PeriodicFunction(q=q, values={}), 60)) < thresh
    # one coset relation: zero iff constant on units
    for q, c in ((12, 3), (45, 2), (15, 1), (10, 1), (140, 2)):
        assert abs(l_deriv0_even(constant_on_units(q, c), 60)) < thresh
        f = random_even_dirichlet(q, rng, allow_zero=False)
        if dict(f.values) != {a: f(1) for a in f.values}:  # non-constant draw
            assert abs(l_deriv0_even(f, 60)) > thresh
    # q = 6: always zero
    for c in (1, 7):
        assert abs(l_deriv0_even(constant_on_units(6, c), 60)) < thresh


def test_trace_order_insensitivity():
    # the verdict is a pure function of q; repeated calls agree entirely
    for q in (9, 12, 90, 155):
        a, b = classify_modulus(q), classify_modulus(q)
        assert a == b
