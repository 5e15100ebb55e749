"""Rational-valued periodic arithmetic functions mod q.

A function is a period q plus a sparse map residue -> Fraction on 1..q;
residues without an entry take the value 0, and zero values are never
stored.  The two structural predicates that drive every later formula:

* even: f(a) = f(q - a) for all a,
* Dirichlet type: f(a) = 0 whenever gcd(a, q) > 1.

Each is computed at most once per function, on first use (attributes
``even`` and ``dirichlet``, outside equality and ``repr``); construction
computes neither.  Both are passes at C level over the stored values,
which ascend by residue.  ``even`` compares the first half of the
residues below q with q - a of the mirrored half, and their values with
the mirrored values, in one list comparison each; a mirrored pair that
shares one value object, as parsed files and the constructors here give,
compares by identity.  ``dirichlet`` reads a
unit mask of q (``arith.unit_mask``: O(q) bytes and the trial division
of q) through one ``itemgetter`` where q is at most 16 times the size of
the support, and takes one ``gcd`` per residue otherwise, so a sparse f
at q = 10^9 costs O(|support|).  At q = 697 with 640 values the first
call of both takes about 50 us, against about 140 us for the dict
comparison and the Python-level gcd loop they replace.

The JSON form is ``{"q": <int>, "values": {"<residue>": "<num>/<den>"}}``
with the denominator omitted when it is 1.  Serialization is canonical
(residues ascending), so parse -> serialize round-trips byte-exactly.
Parsing rejects a bool ``q``, a repeated key, a residue key that is not
``str(a)`` ("04", "+4", "4_0"), so no residue is named twice, JSON
nested past the parser's recursion limit, and a JSON integer past
Python's int-string digit limit.  A value string is read with
the grammar of ``Fraction(str)``, within ``MAX_VALUE_DIGITS`` digits and
a decimal exponent of at most that magnitude; each distinct string of
one file is parsed once, and its residues share the resulting
``Fraction``.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping

from .arith import Character, half_units, unit_mask
from .errors import ValidationError, is_int, require_int

RationalLike = Fraction | int

_ZERO = Fraction(0)
#: Value strings that two ``int`` calls read exactly as ``Fraction(str)`` does.
_PLAIN_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
#: Most digits a rational string may hold, and the largest magnitude of its
#: decimal exponent: ``Fraction("1e999999999")`` would expand 10^999999999.
MAX_VALUE_DIGITS = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


@dataclass(frozen=True)
class PeriodicFunction:
    q: int
    values: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        require_int(self.q, 1, "period must be")
        # exact int residues and Fraction values, as canonical files give
        # them, take the first test of each check; last < a also notes
        # whether the residues arrive ascending
        q = self.q
        clean: dict[int, Fraction] = {}
        ascending, last = True, 0
        for a, v in self.values.items():
            if type(a) is not int or not last < a <= q:
                if not is_int(a) or not 1 <= a <= q:
                    raise ValidationError(f"residue {a!r} outside 1..{q}")
                ascending = False
            last = a
            if type(v) is not Fraction:
                v = v if isinstance(v, Fraction) else _rational_value(v, f"value at residue {a}")
            if v._numerator:  # what Fraction.__bool__ reads, without its Python-level call
                clean[a] = v
        object.__setattr__(self, "values", MappingProxyType(clean if ascending else dict(sorted(clean.items()))))

    def __reduce__(self):
        # the values mapping is a read-only proxy, which pickle cannot copy
        return (type(self), (self.q, dict(self.values)))

    @cached_property
    def even(self) -> bool:
        # the keys ascend, so f is even when the keys below q mirror
        # themselves (a at i from the start, q - a at i from the end) and
        # their values read the same reversed; a zero value is not stored,
        # so a one-sided pair breaks the mirror
        q = self.q
        keys, values = list(self.values), list(self.values.values())
        if keys and keys[-1] == q:  # f(q) is its own partner
            del keys[-1], values[-1]
        n = len(keys)
        half = n // 2
        if n % 2 and 2 * keys[half] != q:
            return False
        return (keys[:half] == list(map(q.__sub__, reversed(keys[n - half:])))
                and values[:half] == values[n - half:][::-1])

    @cached_property
    def dirichlet(self) -> bool:
        # the mask costs about 20 gcds; one key would give itemgetter no tuple
        q, keys = self.q, list(self.values)
        if 1 < len(keys) and q <= 16 * len(keys):
            return 0 not in itemgetter(*keys)(unit_mask(q, q))
        return max(map(gcd, keys, repeat(q)), default=1) == 1

    def __call__(self, n: int) -> Fraction:
        """Value at any positive integer, by periodicity."""
        require_int(n, 1, "argument must be")
        r = n % self.q
        return self.values.get(r if r else self.q, _ZERO)

    def is_zero(self) -> bool:
        return not self.values

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        # the residues ascend, and str of a Fraction is its canonical n or n/d
        return {"q": self.q, "values": {str(a): str(v) for a, v in self.values.items()}}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "PeriodicFunction":
        if not isinstance(data, dict):
            raise ValidationError("periodic function JSON must be an object")
        unknown = set(data) - {"q", "values"}
        if unknown:
            raise ValidationError(f"unknown keys in periodic function JSON: {sorted(unknown)}")
        if "q" not in data or not isinstance(data["q"], int):
            raise ValidationError('periodic function JSON needs an integer "q"')
        raw = data.get("values", {})
        if not isinstance(raw, dict):
            raise ValidationError('"values" must be an object mapping residues to rationals')
        values: dict[int, Fraction] = {}
        seen: dict[str, Fraction] = {}
        for key, val in raw.items():
            try:
                a = int(key)
            except (TypeError, ValueError):
                raise ValidationError(f"residue key {key!r} is not an integer") from None
            if str(a) != key:
                raise ValidationError(f"residue key {key!r} is not written canonically as {str(a)!r}")
            if not isinstance(val, str):
                raise ValidationError(f"value for residue {key!r} must be a string rational")
            frac = seen.get(val)
            if frac is None:
                try:
                    frac = seen[val] = parse_rational(val)
                except ValidationError as exc:
                    raise ValidationError(f"{exc} at residue {key!r}") from None
            values[a] = frac
        return cls(q=data["q"], values=values)

    @classmethod
    def loads(cls, text: str) -> "PeriodicFunction":
        try:
            data = json.loads(text, object_pairs_hook=_dict_without_repeats)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ValidationError("invalid JSON: nested too deeply") from None
        except ValidationError:
            raise
        except ValueError:  # what ``int`` raises past its digit limit
            raise ValidationError(
                f"invalid JSON: an integer of over {sys.get_int_max_str_digits()} digits") from None
        return cls.from_json_dict(data)

    def digest(self) -> str:
        """Stable content hash (canonical JSON, SHA-256, first 16 hex chars)."""
        return hashlib.sha256(self.dumps().encode()).hexdigest()[:16]


def _rational_value(value, what: str) -> Fraction:
    """A rational argument ``what``, a value of f or a constant c, as a ``Fraction``.

    A string is read by ``parse_rational``, within its digit and exponent
    bound.  A bool, a non-finite float and anything ``Fraction`` cannot
    read is refused, as a bool residue or period is.
    """
    if isinstance(value, str):
        return parse_rational(value)
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ValidationError(f"{what} must be a finite rational, got {value!r}")


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, with the plain ``n`` and ``n/d`` spellings read by ``int``.

    A string of more than ``MAX_VALUE_DIGITS`` digits, or with a decimal
    exponent of more than that in magnitude, raises ``ValidationError``
    before it is read, and so does a malformed one.
    """
    exponent = _EXPONENT.search(text)
    if sum(map(str.isdecimal, text)) > MAX_VALUE_DIGITS or exponent and abs(int(exponent[1])) > MAX_VALUE_DIGITS:
        raise ValidationError(f"rational {text[:40]!r} has over {MAX_VALUE_DIGITS} digits or an exponent beyond it")
    try:
        if not _PLAIN_RATIONAL.fullmatch(text):
            return Fraction(text)
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"malformed rational {text!r}") from None


def _dict_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key would silently drop a value."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(f"key {key!r} occurs twice in a JSON object")
            seen.add(key)
    return data


def validate(f: PeriodicFunction) -> tuple[bool, bool]:
    """(even, dirichlet_type), each computed once per function."""
    return f.even, f.dirichlet


def require_even_dirichlet(f: PeriodicFunction) -> None:
    even, dirichlet = validate(f)
    if not even:
        raise ValidationError(f"function mod {f.q} is not even (f(a) != f(q-a) somewhere)")
    if not dirichlet:
        raise ValidationError(f"function mod {f.q} is not Dirichlet type (non-zero off the units)")


def from_character(chi: Character, c: RationalLike) -> PeriodicFunction:
    """f(s) = chi(s) - 1 + c on units of chi.modulus, 0 elsewhere.

    Gives an even Dirichlet-type function with f(1) = c; it is constant
    on the units exactly when chi is principal, which ``Character``
    already rules out.  c is read as a value of f is (``_rational_value``).
    """
    if not chi.is_even:
        raise ValidationError("character is odd; only even characters give even functions")
    q, p = chi.modulus, chi.conductor
    c = _rational_value(c, "c")
    # chi is +1 or -1 on every unit, so f takes c or c - 2 there
    on_units = {1: c, -1: c - 2}
    values = {s: on_units[chi.values[s % p]] for s in range(1, q + 1) if gcd(s, q) == 1}
    return PeriodicFunction(q=q, values=values)


def constant_on_units(q: int, c: RationalLike) -> PeriodicFunction:
    """f = c on residues coprime to q, 0 elsewhere; even Dirichlet type.

    c is read as a value of f is (``_rational_value``).
    """
    require_int(q, 2, "period must be")
    c = _rational_value(c, "c")
    return PeriodicFunction(q=q, values={a: c for a in range(1, q + 1) if gcd(a, q) == 1})


def half_support(f: PeriodicFunction) -> list[tuple[int, Fraction]]:
    """Pairs (a, f(a)) for 1 <= a <= q/2 with gcd(a, q) = 1, ascending a.

    Zero values are included: the enumeration is the fixed column order
    used by the log-sine formulas and the rank criterion.
    """
    require_even_dirichlet(f)
    return [(a, f.values.get(a, _ZERO)) for a in half_units(f.q)]
