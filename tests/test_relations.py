"""Log-sine basis, identity, relation finder, and witness tests.

The q = 155 relation lives in the acceptance suite, and the checks of the
exact coset relations against the benchmark's oracle in
``test_coset_relations.py``; here the finder is exercised on small moduli
and q = 55.
"""

import sys
from dataclasses import fields
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from lprime.errors import (
    HalfSumMismatchError,
    NotAdmissibleError,
    PrecisionError,
    ValidationError,
)
from lprime import numkernel
from lprime.arith import coset_relations
from lprime.lseries import l_deriv0_even
from lprime.numkernel import prec_bits, two_sin_pi
from lprime.periodic import PeriodicFunction, half_support
from lprime.relations import (
    Relation,
    build_witness,
    find_integer_relation,
    find_relation_for_modulus,
    log_sine_basis,
    pslq_relation,
    ramachandra_admissible,
    sine_identity_residual,
)
from tests.conftest import oracle

with mp.workprec(300):
    LOG2 = mpf("0.69314718055994530941723212145817656807550013436025525412068000949")
    LOG3 = mpf("1.0986122886681096913952452369225257046474905578227494517346943336")


def tol(d, slack=5):
    return mpf(10) ** (-(d - slack))


# ---------------------------------------------------------------------------
# Basis construction

def test_basis_q12():
    basis = log_sine_basis(12, 50)
    assert [a for a, _ in basis.entries] == [1, 5]
    assert basis.excluded == []


def test_basis_q6_excludes_sixth():
    basis = log_sine_basis(6, 50)
    assert basis.entries == []
    assert basis.excluded == [1]


def test_basis_q4_excludes_quarter():
    # 2 sin(pi/4) = 2^(1/2) is a rational power of 2, so a = 1 is dropped
    basis = log_sine_basis(4, 50)
    assert basis.entries == []
    assert basis.excluded == [1]


def test_basis_q9():
    basis = log_sine_basis(9, 50)
    assert [a for a, _ in basis.entries] == [1, 2, 4]


def test_basis_values_match_two_sin_pi():
    basis = log_sine_basis(15, 40)
    for a, v in basis.entries:
        with mp.workprec(prec_bits(40)):
            assert abs(v - mp.log(two_sin_pi(a, 15, 40))) < tol(40)


@pytest.mark.parametrize("q", [3, 4, 6, 8, 12, 55, 105, 997])
@pytest.mark.parametrize("extended", [False, True])
def test_basis_entries_are_one_term_log_sine_sums(q, extended):
    # one walk serves every entry, and each is bit for bit the one-term sum
    for d in (20, 120):
        basis = log_sine_basis(q, d, extended)
        assert [v._mpf_ for _, v in basis.entries] == [
            numkernel.log_sine_sum(q, [(a, 1)], d)._mpf_ for a, _ in basis.entries]
        assert basis.excluded == [a for a in oracle.half_support(q) if 6 * a == q or 4 * a == q]


def test_basis_takes_one_walk(monkeypatch):
    walks = []
    walk = numkernel._sine_walk

    def counted(q, residues, prec):
        walks.append(list(residues))
        return walk(q, residues, prec)

    monkeypatch.setattr(numkernel, "_sine_walk", counted)
    basis = log_sine_basis(105, 30, extended=True)
    assert walks == [[a for a, _ in basis.entries]]


def test_basis_extended_and_errors():
    basis = log_sine_basis(9, 50, extended=True)
    assert (basis.q, basis.digits) == (9, 50)
    assert [a for a, _ in basis.entries] == [1, 2, 4]
    assert [n for n, _ in basis.extended] == ["pi", "log2"]
    with pytest.raises(ValidationError):
        log_sine_basis(2, 50)


def test_relation_json_dict():
    rel = find_relation_for_modulus(21, 10, 60)
    data = rel.to_json_dict()
    assert data["coefficients"] == {str(a): 1 for a in (1, 2, 4, 5, 8, 10)}
    assert data["verified_at_2d"] is True
    assert isinstance(data["residual_at_2d"], str)


def test_relation_constants_are_not_fields():
    # no relation involves pi, and only a 2d-verified candidate is returned
    assert {f.name for f in fields(Relation)} == {
        "q", "digits", "coefficients", "log2_coefficient", "residual_at_d", "residual_at_2d"}
    rel = find_relation_for_modulus(8, 10, 30, extended=True)
    assert (rel.pi_coefficient, rel.verified_at_2d) == (0, True)
    assert (rel.coefficients, rel.log2_coefficient) == ({1: 2, 3: 2}, -1)
    data = rel.to_json_dict()
    assert (data["pi"], data["log2"], data["verified_at_2d"]) == (0, -1, True)


# ---------------------------------------------------------------------------
# Sine product identity

def test_identity_composite_vanishes():
    for q in (12, 15, 21):
        assert abs(sine_identity_residual(q, 50)) < tol(50)


def test_identity_prime_powers():
    assert abs(sine_identity_residual(9, 50) - LOG3) < tol(50)
    assert abs(sine_identity_residual(4, 50) - LOG2) < tol(50)
    assert abs(sine_identity_residual(3, 50) - LOG3) < tol(50)


# ---------------------------------------------------------------------------
# Relation detection

def test_pslq_sanity_log2_log4():
    with mp.workprec(prec_bits(50)):
        values = [mp.log(2), mp.log(4)]
    rel = pslq_relation(values, 10**6, 50)
    assert rel == [2, -1]
    # two-precision confirmation
    with mp.workprec(prec_bits(100)):
        resid = abs(2 * mp.log(2) - mp.log(4))
        assert resid < mpf(10) ** -90


def test_pslq_sanity_log2_log3_none():
    with mp.workprec(prec_bits(50)):
        values = [mp.log(2), mp.log(3)]
    assert pslq_relation(values, 10**6, 50) is None


def test_pslq_relation_reaches_its_coefficient_bound():
    # a relation whose largest |c_i| equals max_coeff is returned, and one
    # past it is not
    with mp.workprec(prec_bits(50)):
        log2, log3, log8, log12 = mp.log(2), mp.log(3), mp.log(8), mp.log(12)
    assert pslq_relation([log2, log8], 3, 50) == [3, -1]
    assert pslq_relation([log2, log8], 2, 50) is None
    assert pslq_relation([log2, log3, log12], 2, 50) == [2, 1, -1]
    assert pslq_relation([log2, log3, log12], 1, 50) is None


def test_pslq_rejections():
    with mp.workprec(prec_bits(50)):
        values = [mp.log(2)]
    with pytest.raises(ValidationError):
        pslq_relation(values, 10**6, 50)
    with pytest.raises(ValidationError):
        pslq_relation([mpf(1), mpf(2)], 0, 50)
    with pytest.raises(PrecisionError):
        pslq_relation([mpf(1), mpf(2)], 10, 12)


def test_negative_controls_prime_powers():
    for q in (9, 11, 27):
        assert find_relation_for_modulus(q, 10**6, 100) is None


def test_sine_identity_is_found_for_composite():
    # the all-ones half-support vector is the only small relation mod 21
    rel = find_relation_for_modulus(21, 10**6, 100)
    assert rel is not None and rel.verified_at_2d
    expected = {a: 1 for a in (1, 2, 4, 5, 8, 10)}
    assert rel.coefficients == expected
    assert rel.residual_at_2d < mpf(10) ** -190


def test_finder_at_its_least_precision():
    # 15 digits is the least the detection scale 10^-(d - 10) takes
    rel = find_relation_for_modulus(15, 4, 15)
    assert rel is not None and rel.verified_at_2d
    assert rel.coefficients == {1: 1, 2: 1, 4: 1, 7: 1}
    with pytest.raises(PrecisionError):
        find_relation_for_modulus(15, 4, 14)


def test_finder_rejects_low_basis_precision():
    basis = log_sine_basis(9, 50)
    with pytest.raises(PrecisionError):
        find_integer_relation(basis, 100, 80)


def test_spurious_candidates_fail_two_precision_gate():
    # the only relation mod 57 is the sine identity, so whatever the
    # coefficient bound, anything accepted on the extended basis must be
    # the all-ones vector with no pi or log 2 term.  The rejection of a
    # wrong candidate is exercised by the test below.
    basis = log_sine_basis(57, 30, extended=True)
    rel = find_integer_relation(basis, 10**6, 30)
    if rel is not None:
        assert set(rel.coefficients.values()) == {1}
        assert (rel.pi_coefficient, rel.log2_coefficient) == (0, 0)


@pytest.mark.parametrize("extended", [False, True])
def test_two_precision_gate_rejects_a_wrong_candidate(monkeypatch, extended):
    # a non-relation handed to the finder as a coset relation must fail
    # the 2d re-verification: log(2 sin(pi/21)) alone is not 0
    import lprime.relations as rel_mod

    monkeypatch.setattr(rel_mod, "coset_relations", lambda q: [(1,)])
    assert find_relation_for_modulus(21, 10, 40, extended=extended) is None


@pytest.mark.parametrize("scale, found", [("0.5", True), ("1.5", False)])
def test_two_precision_gate_reads_the_residual_at_2d(monkeypatch, scale, found):
    # the gate takes the residual at 2d digits, and accepts it only below
    # 10^-(2d - 10): here the residual is scale * 10^-(digits - 10)
    import lprime.relations as rel_mod

    monkeypatch.setattr(rel_mod, "_relation_residual",
                        lambda q, coeffs, log2_c, digits: mpf(scale) * mpf(10) ** (10 - digits))
    assert (find_relation_for_modulus(21, 10, 40) is not None) is found


def test_log2_relation_at_the_least_coefficient_bound():
    # the relation at q = 2^n needs |c| = 2, so a bound of exactly 2 admits it
    rel = find_relation_for_modulus(16, 2, 40, extended=True)
    assert rel is not None and set(rel.coefficients.values()) == {2} and rel.log2_coefficient == -1


def test_extended_relations_come_from_theory(monkeypatch):
    # no PSLQ on any basis: the extended relation space is the coset
    # relations with c_pi = c_2 = 0, or (2, ..., 2, 0, -1) at q = 2^n, n >= 3
    import lprime.relations as rel_mod

    def no_search(*args):
        raise AssertionError("find_integer_relation must not run PSLQ")

    monkeypatch.setattr(rel_mod, "pslq_relation", no_search)
    for q in range(3, 131):
        rel = find_relation_for_modulus(q, 100, 50, extended=True)
        power_of_two = q in (8, 16, 32, 64, 128)
        assert (rel is not None) == (oracle.basis_relation_rank(q) > 0 or power_of_two), q
        if rel is None:
            continue
        assert rel.verified_at_2d and rel.pi_coefficient == 0, q
        assert rel.log2_coefficient == (-1 if power_of_two else 0), q
        vector = [rel.coefficients.get(a, 0) for a in oracle.half_support(q)]
        if power_of_two:
            assert vector == [2] * len(vector), q
        if all(e == 1 for _, e in oracle.prime_factors(q)):
            assert oracle.in_span(vector, oracle.distribution_relations(q)), q
    assert find_relation_for_modulus(8, 1, 50, extended=True) is None
    assert find_relation_for_modulus(6, 100, 50, extended=True) is None


# ---------------------------------------------------------------------------
# Witness program

def test_ramachandra_admissible():
    assert ramachandra_admissible(155) == (5, 31)
    assert ramachandra_admissible(55) == (5, 11)
    assert ramachandra_admissible(105) is None
    assert ramachandra_admissible(9) is None
    assert ramachandra_admissible(5 * 11 * 31) == (5, 11)


def test_ramachandra_admissible_least_q():
    # the least q it takes, and the first it refuses
    assert ramachandra_admissible(3) is None
    with pytest.raises(ValidationError):
        ramachandra_admissible(2)


@pytest.mark.parametrize("call, message", [
    # an integer argument is an int and not a bool
    (lambda: sine_identity_residual(7.0, 50), "identity needs q >= 3"),
    (lambda: sine_identity_residual("7", 50), "identity needs q >= 3"),
    (lambda: log_sine_basis(15.0, 50), "basis needs q >= 3"),
    (lambda: find_relation_for_modulus(15.0, 4, 50), "basis needs q >= 3"),
    (lambda: find_relation_for_modulus(15, 4.5, 50), "max_coeff must be >= 1"),
    (lambda: find_relation_for_modulus(15, True, 50), "max_coeff must be >= 1"),
    (lambda: pslq_relation([mpf(1), mpf(2)], 2.5, 50), "max_coeff must be >= 1"),
    (lambda: ramachandra_admissible(15.0), "admissibility needs q >= 3"),
], ids=["identity-float", "identity-str", "basis-float", "finder-float-q", "finder-float-max-coeff",
        "finder-bool-max-coeff", "pslq-float-max-coeff", "admissible-float"])
def test_rejected_arguments(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_build_witness_55():
    wit = build_witness(55, 0, 100)
    assert (wit.p1, wit.p2) == (5, 11)
    assert wit.residual < mpf(10) ** -90
    assert wit.f(2) == -2 and wit.f(1) == 0
    assert wit.f(11) == 0 and wit.f(5) == 0


def test_build_witness_shift_invariance():
    r0 = build_witness(55, 0, 80).residual
    r7 = build_witness(55, 7, 80).residual
    rneg = build_witness(55, Fraction(-3, 2), 80).residual
    bound = mpf(10) ** -70
    assert r0 < bound and r7 < bound and rneg < bound


def test_build_witness_not_admissible():
    with pytest.raises(NotAdmissibleError):
        build_witness(105, 0, 50)
    with pytest.raises(NotAdmissibleError):
        build_witness(9, 0, 50)


def test_build_witness_half_sum_mismatch_fails_loudly(monkeypatch):
    # the construction must abort, not proceed, if the exact character
    # half-sum ever disagrees with the value the derivation relies on
    import lprime.relations as rel_mod

    monkeypatch.setattr(rel_mod, "character_half_sum", lambda chi: 0)
    with pytest.raises(HalfSumMismatchError):
        build_witness(55, 0, 50)


def test_finder_rediscovers_witness_mod_55():
    # the relation found at maxcoeff 4 is proportional to the witness
    # coefficients chi(s) - 1 on the half support
    wit = build_witness(55, 0, 60)
    rel = find_relation_for_modulus(55, 4, 120)
    assert rel is not None and rel.verified_at_2d
    witness_vec = [int(v) for _, v in half_support(wit.f)]
    found_vec = [rel.coefficients.get(a, 0) for a in oracle.half_support(55)]
    assert oracle.exact_rank([found_vec, witness_vec]) == 1


# ---------------------------------------------------------------------------
# One route for the log-sines

def _log_sine_results():
    f = PeriodicFunction(q=21, values={1: 3, 20: 3, 2: -1, 19: -1, 8: Fraction(1, 2), 13: Fraction(1, 2)})
    rel = find_relation_for_modulus(21, 10, 40)
    rel8 = find_relation_for_modulus(8, 10, 40, extended=True)
    values = [*log_sine_basis(15, 40).all_values(), sine_identity_residual(21, 40),
              l_deriv0_even(f, 40), rel.residual_at_d, rel.residual_at_2d, rel8.residual_at_2d,
              build_witness(55, 0, 40).residual]
    return [v._mpf_ for v in values]


def _patch_bindings(monkeypatch, original, replacement) -> set[str]:
    """Replace ``original`` wherever an lprime module binds it; the names of those modules."""
    patched = set()
    for name, module in list(sys.modules.items()):
        if name == "lprime" or name.startswith("lprime."):
            for key, value in list(vars(module).items()):
                if value is original:
                    patched.add(name)
                    monkeypatch.setattr(module, key, replacement)
    return patched


def test_log_sines_come_from_one_kernel(monkeypatch):
    # the library takes every log-sine from numkernel._sine_walk, through
    # log_sine_sum and log_sines: with two_sin_pi, the oracle, raising
    # wherever lprime binds it, every route still returns the same bits
    expected = _log_sine_results()

    def oracle_only(*args):
        raise AssertionError("two_sin_pi is the oracle, not a library route")

    patched = _patch_bindings(monkeypatch, numkernel.two_sin_pi, oracle_only)
    assert {"lprime", "lprime.numkernel"} <= patched
    assert _log_sine_results() == expected


def test_finder_builds_no_numeric_basis(monkeypatch):
    # the finder takes its residues from q and both residuals from one
    # log_sine_sum each: with log_sine_basis and two_sines raising, it
    # still returns the candidate theory gives, or None where there is none
    import lprime.relations as rel_mod

    def no_basis(*args, **kwargs):
        raise AssertionError("the finder builds no numeric basis")

    monkeypatch.setattr(rel_mod, "log_sine_basis", no_basis)
    assert {"lprime", "lprime.numkernel"} <= _patch_bindings(monkeypatch, numkernel.two_sines, no_basis)
    d = 30
    for q in range(3, 131):
        residues = [a for a in oracle.half_support(q) if 6 * a != q and 4 * a != q]
        first = set(next(iter(coset_relations(q)), ()))
        for extended in (False, True):
            if len(residues) + 2 * extended < 2:
                with pytest.raises(ValidationError):
                    find_relation_for_modulus(q, 4, d, extended)
                continue
            rel = find_relation_for_modulus(q, 4, d, extended)
            power_of_two = extended and q in (8, 16, 32, 64, 128)
            if power_of_two:
                expected = {a: 2 for a in residues}, -1
            else:
                expected = {a: 1 for a in residues if a in first}, 0
            if len(oracle.prime_factors(q)) == 1 and not power_of_two or q == 6:
                assert rel is None, (q, extended)
                continue
            assert (rel.coefficients, rel.log2_coefficient) == expected, (q, extended)
            assert rel.verified_at_2d and rel.pi_coefficient == 0, q
            assert rel.residual_at_d < mpf(10) ** (-d + 10), q
            assert rel.residual_at_2d < mpf(10) ** (-2 * d + 10), q
    assert find_relation_for_modulus(8, 1, d, extended=True) is None
