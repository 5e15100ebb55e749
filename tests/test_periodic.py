"""Periodic-function data model and JSON round-trip tests."""

import contextlib
import copy
import io
import json
import pickle
import random
import tempfile
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lprime.arith import Character, euler_phi, lift_character, quadratic_character, unit_mask
from lprime.cli import run
from lprime.errors import ValidationError
from lprime.periodic import (
    PeriodicFunction,
    constant_on_units,
    from_character,
    half_support,
    parse_rational,
    validate,
)
from tests.conftest import random_even_dirichlet


def test_construction_normalizes_zeros():
    f = PeriodicFunction(q=12, values={1: 1, 5: 0, 7: Fraction(0, 3)})
    assert set(f.values) == {1}
    assert f(5) == 0 and f(7) == 0 and f(1) == 1


def test_construction_rejects_bad_residues():
    with pytest.raises(ValidationError):
        PeriodicFunction(q=5, values={0: 1})
    with pytest.raises(ValidationError):
        PeriodicFunction(q=5, values={6: 1})
    with pytest.raises(ValidationError):
        PeriodicFunction(q=0, values={})


def test_construction_takes_the_end_residues_out_of_order():
    # residues that do not arrive as ascending ints take the full check,
    # which admits 1 and q and sorts them
    class Residue(int):
        pass

    f = PeriodicFunction(q=5, values={Residue(5): 2, 4: 1, 1: 3})
    assert list(f.values.items()) == [(1, 3), (4, 1), (5, 2)]


def test_repeated_key_is_named():
    with pytest.raises(ValidationError, match="key '2' occurs twice"):
        PeriodicFunction.loads('{"q": 5, "values": {"1": "1", "2": "1", "2": "3"}}')


def test_periodicity_of_call():
    f = PeriodicFunction(q=5, values={2: Fraction(1, 3)})
    assert f(2) == f(7) == f(5002) == Fraction(1, 3)
    assert f(5) == f(10) == 0
    with pytest.raises(ValidationError):
        f(0)
    # only ints: no rounding, truncation or bool-as-int
    for n in (1.5, Fraction(3, 2), 2.0, Fraction(2), True, False, "2", None):
        with pytest.raises(ValidationError):
            f(n)


def test_validate_examples():
    zero12 = PeriodicFunction(q=12, values={})
    assert validate(zero12) == (True, True)

    chi_pattern = PeriodicFunction(q=5, values={1: 1, 2: -1, 3: -1, 4: 1})
    assert validate(chi_pattern) == (True, True)

    lopsided = PeriodicFunction(q=5, values={1: 1})
    assert validate(lopsided) == (False, True)

    off_units = PeriodicFunction(q=6, values={2: 1, 4: 1})
    assert validate(off_units) == (True, False)


def test_from_character_witness_values():
    chi = lift_character(quadratic_character(5), 155)
    f = from_character(chi, 0)
    assert f(2) == -2
    assert f(31) == 0 and f(62) == 0 and f(5) == 0
    assert f(1) == 0
    f1 = from_character(chi, 1)
    assert f1(1) == 1 and f1(2) == -1


def test_from_character_small():
    f = from_character(quadratic_character(5), 0)
    assert [f(a) for a in range(1, 6)] == [0, -2, -2, 0, 0]


def test_from_character_always_even_dirichlet():
    for p, q in ((5, 155), (5, 55), (13, 13 * 53), (5, 5)):
        f = from_character(lift_character(quadratic_character(p), q), Fraction(2, 7))
        assert validate(f) == (True, True)


def test_constant_on_units_examples():
    f = constant_on_units(12, 1)
    assert set(f.values) == {1, 5, 7, 11}
    assert all(v == 1 for v in f.values.values())
    assert constant_on_units(9, 0).is_zero()
    g = constant_on_units(9, Fraction(2, 3))
    assert len(g.values) == 6 and g(4) == Fraction(2, 3)
    assert validate(f) == (True, True) and validate(g) == (True, True)


def test_from_character_is_its_definition():
    # f(s) = chi(s) - 1 + c on the units and 0 elsewhere; at c = 2 the
    # value c - 2 is 0, so the non-residues drop out of the support
    for p, q in ((5, 5), (5, 60), (13, 52)):
        chi = lift_character(quadratic_character(p), q)
        for c in (0, 2, Fraction(-3, 2)):
            f = from_character(chi, c)
            assert [f(s) for s in range(1, q + 1)] == [
                chi(s) - 1 + c if gcd(s, q) == 1 else 0 for s in range(1, q + 1)], (q, c)


def test_constant_on_units_least_period():
    assert constant_on_units(2, 3).values == {1: 3}
    with pytest.raises(ValidationError):
        constant_on_units(1, 3)


def test_half_support_examples():
    assert half_support(constant_on_units(12, 1)) == [(1, 1), (5, 1)]
    assert half_support(PeriodicFunction(q=9, values={})) == [(1, 0), (2, 0), (4, 0)]
    chi = lift_character(quadratic_character(5), 155)
    pairs = half_support(from_character(chi, 0))
    assert len(pairs) == 60
    assert pairs[0] == (1, 0) and pairs[1] == (2, -2)


def test_half_support_length_is_half_phi():
    for q in range(3, 61):
        pairs = half_support(constant_on_units(q, 1))
        assert len(pairs) == euler_phi(q) // 2


def test_half_support_rejects_invalid():
    with pytest.raises(ValidationError):
        half_support(PeriodicFunction(q=5, values={1: 1}))  # not even
    with pytest.raises(ValidationError):
        half_support(PeriodicFunction(q=6, values={2: 1, 4: 1}))  # not Dirichlet type


# ---------------------------------------------------------------------------
# JSON round-trip

def test_json_canonical_round_trip():
    f = PeriodicFunction(q=9, values={1: Fraction(2, 3), 8: Fraction(2, 3), 4: -1, 5: -1})
    text = f.dumps()
    assert text == '{"q": 9, "values": {"1": "2/3", "4": "-1", "5": "-1", "8": "2/3"}}'
    again = PeriodicFunction.loads(text)
    assert again == f
    assert again.dumps() == text  # byte-exact


def test_json_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        PeriodicFunction.loads('{"q": 5, "values": {}, "extra": 1}')


def test_json_rejects_malformed():
    with pytest.raises(ValidationError):
        PeriodicFunction.loads("not json")
    with pytest.raises(ValidationError):
        PeriodicFunction.loads('{"values": {}}')  # missing q
    with pytest.raises(ValidationError):
        PeriodicFunction.loads('{"q": "five", "values": {}}')
    with pytest.raises(ValidationError):
        PeriodicFunction.loads('{"q": 5, "values": {"x": "1"}}')
    with pytest.raises(ValidationError):
        PeriodicFunction.loads('{"q": 5, "values": {"1": "1/0"}}')
    with pytest.raises(ValidationError):
        PeriodicFunction.loads('{"q": 5, "values": {"1": 1}}')  # number, not string


def test_digest_stability():
    f = PeriodicFunction(q=5, values={1: 1, 4: 1})
    g = PeriodicFunction(q=5, values={4: 1, 1: 1})
    assert f.digest() == g.digest()
    assert f.digest() != PeriodicFunction(q=5, values={1: 1}).digest()


@settings(max_examples=60, deadline=None)
@given(q=st.integers(min_value=2, max_value=80), seed=st.integers(0, 2**32 - 1))
def test_random_even_dirichlet_round_trip(q, seed):
    f = random_even_dirichlet(q, random.Random(seed))
    assert validate(f) == (True, True)
    assert PeriodicFunction.loads(f.dumps()) == f


# ---------------------------------------------------------------------------
# validate against the definitions

def _validate_reference(f):
    """The definitions, checked over every residue: O(q) per call."""
    even = all(f(a) == f(f.q - a) for a in range(1, f.q))
    dirichlet = all(gcd(a, f.q) == 1 for a in range(1, f.q + 1) if f(a) != 0)
    return even, dirichlet


_small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _any_function(draw):
    """Functions mod q in 1..80, with draws that make them even, of Dirichlet
    type, both or neither, so that every outcome of validate is exercised."""
    q = draw(st.integers(min_value=1, max_value=80))
    values = draw(st.dictionaries(st.integers(1, q), _small_fractions, max_size=12))
    if draw(st.booleans()):
        values.update({q - a: v for a, v in list(values.items()) if a < q})
    if draw(st.booleans()):
        values = {a: v for a, v in values.items() if gcd(a, q) == 1}
    if values and draw(st.booleans()):  # perturb one value, which usually breaks evenness
        a = draw(st.sampled_from(sorted(values)))
        values[a] += 1
    return PeriodicFunction(q=q, values=values)


@settings(max_examples=300, deadline=None)
@given(f=_any_function())
def test_validate_matches_definitions(f):
    assert validate(f) == _validate_reference(f)
    parsed = PeriodicFunction.loads(f.dumps())  # residues share their parsed values
    assert validate(parsed) == _validate_reference(parsed) == _validate_reference(f)


@pytest.mark.parametrize("q, values", [
    (7, {7: 1}),                                # stored at a = q, which pairs with itself
    (7, {7: 1, 2: 3, 5: 3}),
    (8, {4: 3}),                                # a = q/2 for even q
    (8, {4: 3, 1: 1}),
    (8, {8: 2, 4: 3, 3: 1, 5: 1}),
    (9, {2: 1}),                                # one side of a pair only
    (9, {2: 1, 7: 1, 4: Fraction(1, 2)}),
    (9, {2: Fraction(1, 3), 7: Fraction(2, 6)}),  # equal values, distinct objects
    (9, {2: Fraction(1, 3), 7: Fraction(1, 3) + 1}),
])
def test_validate_edge_residues(q, values):
    f = PeriodicFunction(q=q, values=values)
    assert validate(f) == _validate_reference(f)
    assert validate(PeriodicFunction.loads(f.dumps())) == _validate_reference(f)


def test_evenness_of_distinct_strings_for_one_value():
    g = PeriodicFunction.loads('{"q": 9, "values": {"2": "1/3", "7": "2/6"}}')
    assert g.values[2] is not g.values[7] and validate(g) == (True, True)


def _definitions(q, values):
    """Both definitions, read where f(a) or f(q - a) is non-zero: O(|support|) at any q."""
    f = {a: v for a, v in values.items() if v}
    even = all(f.get(q - a, 0) == v for a, v in f.items() if a < q)
    return even, all(gcd(a, q) == 1 for a in f)


class _Residue(int):
    """A residue of an int subclass, as a caller may pass one."""


@st.composite
def _drawn_function(draw):
    """(q, values as given): dense or sparse, at small q or near 10^9, with
    a = q and a = q/2 drawn in, mirrored or not, the mirror's values equal
    but distinct objects, residues shuffled or of an int subclass."""
    q = draw(st.one_of(st.integers(1, 80), st.integers(10**9 - 50, 10**9 + 50)))
    residues = draw(st.lists(st.integers(1, q), max_size=48))
    if draw(st.booleans()):
        residues.append(q)
    if q % 2 == 0 and draw(st.booleans()):
        residues.append(q // 2)
    values = {a: draw(_small_fractions) for a in residues}
    if draw(st.booleans()):
        values.update({q - a: Fraction(v.numerator, v.denominator) for a, v in list(values.items()) if a < q})
    if draw(st.booleans()):
        values = {a: v for a, v in values.items() if gcd(a, q) == 1}
    if values and draw(st.booleans()):
        a = draw(st.sampled_from(sorted(values)))
        values[a] += 1
    items = list(values.items())
    if draw(st.booleans()):
        items = draw(st.permutations(items))
    if draw(st.booleans()):
        items = [(_Residue(a), v) for a, v in items]
    return q, dict(items)


@settings(max_examples=400, deadline=None)
@given(drawn=_drawn_function())
def test_checks_match_definitions_at_any_q(drawn):
    q, values = drawn
    f = PeriodicFunction(q=q, values=values)
    assert (f.even, f.dirichlet) == _definitions(q, values)
    if q <= 80:
        assert validate(f) == _validate_reference(f)


def test_dirichlet_reads_a_unit_mask_only_against_a_dense_support(monkeypatch):
    import lprime.periodic as periodic_mod

    masks = []

    def counted(q, top):
        masks.append((q, top))
        return unit_mask(q, top)

    monkeypatch.setattr(periodic_mod, "unit_mask", counted)
    dense = constant_on_units(697, 1)  # 640 values
    assert dense.dirichlet
    assert not PeriodicFunction(q=697, values={**dense.values, 697: 1}).dirichlet
    assert not PeriodicFunction(q=697, values={**dense.values, 41: 1}).dirichlet
    assert masks == [(697, 697)] * 3
    # a sparse f at q near 10^9 takes one gcd per residue
    assert PeriodicFunction(q=10**9 + 7, values={1: 1, 10**9 + 6: 1}).dirichlet
    assert not PeriodicFunction(q=10**9, values={2: 1, 10**9 - 2: 1}).dirichlet
    assert not PeriodicFunction(q=10**9, values={10**9: 1}).dirichlet
    assert PeriodicFunction(q=1, values={1: 1}).dirichlet
    assert len(masks) == 3


def test_construction_computes_neither_check():
    for f in (constant_on_units(697, 1), PeriodicFunction.loads(constant_on_units(12, 2).dumps())):
        assert "even" not in f.__dict__ and "dirichlet" not in f.__dict__
        assert validate(f) == (True, True)
        assert f.__dict__["even"] is True and f.__dict__["dirichlet"] is True


@settings(max_examples=100, deadline=None)
@given(f=_any_function())
def test_pickle_and_deepcopy_round_trip(f):
    for clone in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert clone == f
        assert validate(clone) == validate(f)
        with pytest.raises(TypeError):  # still read-only
            clone.values[1] = Fraction(1)


# ---------------------------------------------------------------------------
# JSON input: only the canonical form is accepted

def _canonical_text(q, values):
    """Canonical JSON written without PeriodicFunction, residues ascending."""
    return json.dumps({"q": q, "values": {str(a): str(v) for a, v in sorted(values.items())}})


@st.composite
def _canonical_input(draw):
    q = draw(st.integers(min_value=1, max_value=80))
    values = draw(st.dictionaries(st.integers(1, q), _small_fractions, min_size=1, max_size=12))
    values = {a: v for a, v in values.items() if v} or {q: Fraction(1)}
    return q, values


#: Non-canonical spellings of a residue key that int() still parses.
_ALIASES = {
    "zero": lambda k: "0" + k,
    "space": lambda k: " " + k,
    "trailing": lambda k: k + " ",
    "plus": lambda k: "+" + k,
    "underscore": lambda k: k[0] + "_" + k[1:] if len(k) > 1 else "0_" + k,
}
_MALFORMED = sorted(_ALIASES) + ["repeat", "bool"]


def _malformed_texts(q, values, how, key_index):
    """One canonical input made malformed: an aliased or repeated key, or a bool "q"."""
    if how == "bool":
        return [json.dumps({"q": b, "values": {str(a): str(v) for a, v in sorted(values.items())}})
                for b in (True, False)]
    keys = [str(a) for a in sorted(values)]
    target = keys[key_index % len(keys)]
    if how == "repeat":
        return [f'{{"q": {q}, "values": {{"{target}": "1", "{target}": "2"}}}}',
                f'{{"q": {q}, "q": {q}, "values": {{}}}}']
    alias = _ALIASES[how](target)
    return [json.dumps({"q": q, "values": {(alias if k == target else k): str(values[int(k)])
                                           for k in keys}}),
            # next to its canonical key, one of the two values would be dropped
            json.dumps({"q": q, "values": {target: "1", alias: "2"}})]


@settings(max_examples=150, deadline=None)
@given(data=_canonical_input())
def test_canonical_json_round_trips_byte_for_byte(data):
    text = _canonical_text(*data)
    f = PeriodicFunction.loads(text)
    assert f.dumps() == text
    assert f == PeriodicFunction(q=data[0], values=data[1])


@settings(max_examples=150, deadline=None)
@given(data=_canonical_input(), how=st.sampled_from(_MALFORMED),
       key_index=st.integers(0, 11))
def test_non_canonical_json_rejected(data, how, key_index):
    for text in _malformed_texts(*data, how, key_index):
        with pytest.raises(ValidationError):
            PeriodicFunction.loads(text)


@settings(max_examples=30, deadline=None)
@given(data=_canonical_input(), how=st.sampled_from(_MALFORMED),
       key_index=st.integers(0, 11))
def test_cli_eval_rejects_malformed_input(data, how, key_index):
    with tempfile.TemporaryDirectory() as tmp:
        for i, text in enumerate(_malformed_texts(*data, how, key_index)):
            path = Path(tmp) / f"f{i}.json"
            path.write_text(text)
            with contextlib.redirect_stderr(io.StringIO()):
                assert run(["eval", "--fn", str(path), "--s", "0"]) == 2


def test_bool_period_and_residue_rejected():
    for q in (True, False):
        with pytest.raises(ValidationError):
            PeriodicFunction(q=q, values={})
    with pytest.raises(ValidationError):  # would serialize as the key "True"
        PeriodicFunction(q=5, values={True: 1, 4: 1})


def test_bad_values_rejected():
    # every value Fraction cannot read, or reads as something else (a
    # bool as 1), is a ValidationError, not the error Fraction raises
    for v in (float("inf"), float("-inf"), float("nan"), "abc", "1/0", None, 1j, True, False):
        with pytest.raises(ValidationError):
            PeriodicFunction(q=5, values={1: v, 4: 1})


def test_constructor_value_strings_keep_the_parse_bound():
    # a string value is read as parse_rational reads it in a function file:
    # 1e2000 would otherwise be accepted as a 6,644-bit numerator
    for text in ("1e2000", "1" * 1001):
        with pytest.raises(ValidationError):
            parse_rational(text)
        with pytest.raises(ValidationError):
            PeriodicFunction(q=5, values={1: text, 4: text})
    assert PeriodicFunction(q=5, values={1: "1e3", 4: "2/4"}).values == {1: 1000, 4: Fraction(1, 2)}


def test_value_bounds_are_inclusive():
    # MAX_VALUE_DIGITS digits, and an exponent of that magnitude, are read
    assert parse_rational("1" * 1000) == int("1" * 1000)
    assert parse_rational("1e1000") == 10 ** 1000
    assert parse_rational("1e-1000") == Fraction(1, 10 ** 1000)
    for text in ("1" * 1001, "1e1001", "1e-1001"):
        with pytest.raises(ValidationError):
            parse_rational(text)


# ---------------------------------------------------------------------------
# Value strings: the grammar of Fraction(str), one parse per distinct string

def _reference_loads(q, strings):
    """The function read value by value with ``Fraction(str)``, or None where that rejects."""
    try:
        return PeriodicFunction(q=q, values={a: Fraction(s) for a, s in strings.items()})
    except (ValueError, ZeroDivisionError):
        return None


def _assert_parses_as_fraction_str(q, strings):
    text = json.dumps({"q": q, "values": {str(a): s for a, s in sorted(strings.items())}})
    expected = _reference_loads(q, strings)
    if expected is None:
        with pytest.raises(ValidationError):
            PeriodicFunction.loads(text)
        return
    f = PeriodicFunction.loads(text)
    assert f == expected
    assert f.dumps() == expected.dumps()
    # residues written with one string share one Fraction
    stored = {s: f.values[a] for a, s in strings.items() if a in f.values}
    assert all(f.values[a] is stored[s] for a, s in strings.items() if a in f.values)


_VALUE_STRINGS = [" 1/2 ", "+3", "0.5", "1e3", "1_0", "-0", "0/7", "2/4", "-6/4", "3/0",
                  "1/-2", "/2", "1/", "", "-", "1//2", "1/2\n", "١/٢",
                  "٣", "7٠", "１/２", "00012/0004", "-00/5"]


@pytest.mark.parametrize("s", _VALUE_STRINGS)
def test_value_strings_parse_as_fraction_str(s):
    _assert_parses_as_fraction_str(7, {1: s, 6: s})
    _assert_parses_as_fraction_str(7, {1: s, 2: "1/3", 5: "1/3", 6: s})


_plain_rational_string = st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True)


@settings(max_examples=200, deadline=None)
@given(q=st.integers(min_value=1, max_value=40),
       pool=st.lists(_plain_rational_string, min_size=1, max_size=4),
       data=st.data())
def test_plain_value_strings_parse_as_fraction_str(q, pool, data):
    residues = data.draw(st.lists(st.integers(1, q), min_size=1, max_size=12, unique=True))
    strings = {a: data.draw(st.sampled_from(pool)) for a in residues}  # repeats share a string
    _assert_parses_as_fraction_str(q, strings)


@pytest.mark.parametrize("call, message", [
    (lambda: PeriodicFunction.from_json_dict([5]), "must be an object"),
    (lambda: PeriodicFunction.loads('{"q": 5, "values": ["1"]}'), '"values" must be an object'),
    # the Legendre symbol mod 7 is odd
    (lambda: from_character(Character(conductor=7, modulus=7, values=(0, 1, 1, -1, 1, -1, -1)), 0),
     "character is odd"),
    (lambda: constant_on_units(1, 1), "period must be >= 2"),
    # an integer argument is an int and not a bool
    (lambda: constant_on_units(5.0, 1), "period must be >= 2"),
    (lambda: constant_on_units("5", 1), "period must be >= 2"),
], ids=["not-an-object", "values-not-an-object", "odd-character", "constant-period",
        "constant-period-float", "constant-period-str"])
def test_rejected_arguments(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
