"""Command-line front end.

Subcommands map one-to-one onto library operations:

* ``eval``      L(s, f) for s != 0, or L'(0, f) when s = 0
* ``classify``  modulus classification with the full condition trace
* ``identity``  the coprime sine-product identity residual for q
* ``relations`` a certified integer relation over the log-sine basis of q
* ``witness``   construct a vanishing witness function for q
* ``rank``      exact linear-independence rank of a family of functions

Exit codes: 0 success, 2 for rejected input (bad flags, malformed JSON,
precondition violations), 1 for computations that start but cannot
finish (pole, lost convergence, insufficient precision).  All numeric
output is printed as decimal strings at an explicit digit count, so
reports are reproducible byte-for-byte.  Only the numeric subcommands
(``eval``, ``identity``, ``relations``, ``witness``) take a precision:
the default is 50 digits, the ``LPRIME_DIGITS`` environment variable
overrides the default, and an explicit ``--digits`` flag wins over both.
``classify`` and ``rank`` are exact, take no ``--digits`` and never read
``LPRIME_DIGITS``.

An argv that opens with a subcommand is read against that subcommand's
own arguments: a plain one (exact ``--flag value`` or ``--flag=value``
tokens, each flag once, see ``_scan``) without argparse, and any other
by the subcommand's argparse parser, so help text, error messages and
exit codes stay argparse's.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from mpmath import nstr

from . import classify as classify_mod
from . import lseries, relations
from .errors import ComputationError, ValidationError, require_int
from .numkernel import MIN_DIGITS
from .periodic import PeriodicFunction, parse_rational

DEFAULT_DIGITS = 50
DEFAULT_MAX_COEFF = 100
DIGITS_ENV_VAR = "LPRIME_DIGITS"
#: Largest precision a numeric subcommand takes.
MAX_DIGITS = 2000
#: Largest q each subcommand takes, from ``--q`` or a function file.  The
#: exact layers and the sine walk cost O(q); the Euler-Maclaurin series of
#: ``eval`` costs O(|support|), so it takes a one-residue f at a large q.
MAX_Q = {"eval": 10**9, "classify": 10**6, "rank": 10**6, "identity": 10**5, "relations": 10**5, "witness": 10**5}
#: Largest |s| that ``eval`` takes.  The series' cost grows with |s|: at
#: s = -10^6 and at s = 10^999 it ran for more than 10 s.
MAX_S = 1000


def _resolve_digits(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(DIGITS_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"{DIGITS_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_DIGITS


def _load_function(path: str, command: str) -> PeriodicFunction:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        raise ValidationError(f"cannot read {path!r}: {exc}") from None
    f = PeriodicFunction.loads(text)
    _require_q(f.q, command)
    return f


def _require_q(q: int, command: str) -> None:
    if q > MAX_Q[command]:
        raise ValidationError(f"{command} takes q <= {MAX_Q[command]}, got {q}")


def _parse_rational(text: str, flag: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValidationError as exc:
        raise ValidationError(f"{flag} expects a rational like 3 or -2/7: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its JSON report and its text lines

def _cmd_eval(args) -> tuple[dict, list[str]]:
    f = _load_function(args.fn, "eval")
    s = _parse_rational(args.s, "--s")
    if abs(s) > MAX_S:
        raise ValidationError(f"--s must lie within -{MAX_S}..{MAX_S}, got {args.s[:40]!r}")
    d = args.digits
    if s == 0:
        # at s = 0 the half-support log-sine sum or the derivative series,
        # whichever walks fewer terms; both are closed forms of L'(0, f)
        value = lseries.l_deriv0(f, d)
        method = "ClosedForm0"
    else:
        # q^(-s) sum f(a) zeta(s, a/q), at s = 2 by the csc^2 sum where
        # the sine walk is the shorter, and by the series otherwise
        value = lseries.l_value2(f, d) if s == 2 else lseries.l_value(s, f, d)
        method = "HurwitzSum"
    value_str = nstr(value, d)
    report = {
        "s": str(s),
        "digits": d,
        "method": method,
        "f_digest": f.digest(),
        "value": value_str,
    }
    label = "L'(0, f)" if s == 0 else f"L({s}, f)"
    return report, [f"{label} = {value_str}  [{method}, {d} digits]"]


def _cmd_classify(args) -> tuple[dict, list[str]]:
    cls = classify_mod.classify_modulus(args.q)
    report = cls.to_json_dict()
    lines = [f"q = {cls.q}: {cls.label()}",
             f"independence_24 = {cls.independence_24}, independence_25 = {cls.independence_25}"]
    lines += [f"  [{'x' if r else ' '}] {c}" for c, r in cls.trace]
    return report, lines


def _cmd_identity(args) -> tuple[dict, list[str]]:
    d = args.digits
    residual = relations.sine_identity_residual(args.q, d)
    residual_str = nstr(residual, d)
    report = {"q": args.q, "digits": d, "log_sum": residual_str}
    return report, [f"sum of log(2 sin(k pi/{args.q})) over coprime k = {residual_str}"]


def _cmd_relations(args) -> tuple[dict, list[str]]:
    d = args.digits
    rel = relations.find_relation_for_modulus(
        args.q, args.max_coeff, d, extended=args.extended
    )
    if rel is None:
        return ({"q": args.q, "digits": d, "relation": None},
                [f"no verified relation for q = {args.q} with |coeff| <= {args.max_coeff}"])
    report = {"q": args.q, "digits": d, "relation": rel.to_json_dict()}
    lines = [f"verified relation for q = {args.q}:"]
    lines += [f"  a={a}: {c}" for a, c in sorted(rel.coefficients.items())]
    if rel.pi_coefficient or rel.log2_coefficient:
        lines.append(f"  pi: {rel.pi_coefficient}, log2: {rel.log2_coefficient}")
    lines.append(f"  residual {nstr(rel.residual_at_d, 8)} at {d} digits, "
                 f"{nstr(rel.residual_at_2d, 8)} at {2 * d} digits")
    return report, lines


def _cmd_witness(args) -> tuple[dict, list[str]]:
    d = args.digits
    c = _parse_rational(args.c, "--c")
    wit = relations.build_witness(args.q, c, d)
    report = wit.to_json_dict()
    lines = [
        f"witness for q = {wit.q} from primes (p1, p2) = ({wit.p1}, {wit.p2}), f(1) = {c}",
        f"|L'(0, f)| = {nstr(wit.residual, 8)} at {d} digits",
        f"f = {wit.f.dumps()}",
    ]
    return report, lines


def _cmd_rank(args) -> tuple[dict, list[str]]:
    fns = [_load_function(p, "rank") for p in args.fns]
    result = lseries.family_rank(fns)
    report = result.to_json_dict()
    lines = [f"rank {result.rank} of {len(fns)} function(s); "
             f"{'independent' if result.independent else 'dependent'}"]
    if result.certificate is not None:
        lines.append(f"certificate: {result.certificate}")
    return report, lines


# ---------------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser],
                            dict[str, dict[str, argparse.Action]]]:
    """The full parser, each subcommand's own parser by name, and each
    subcommand's actions by option string (``_scan`` reads them)."""
    parser = argparse.ArgumentParser(
        prog="lprime",
        description="Special values of derivatives of L-functions of periodic functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags: dict[str, dict[str, argparse.Action]] = {}

    def add(command, *names, **kwargs):
        # what _scan can read as argparse does: a store or store_true, and
        # no string default that argparse would pass through the type
        assert kwargs.get("action", "store") in ("store", "store_true"), names
        assert not (isinstance(kwargs.get("default"), str) and "type" in kwargs), names
        action = sub.choices[command].add_argument(*names, **kwargs)
        flags.setdefault(command, {}).update(dict.fromkeys(action.option_strings, action))

    def add_common(command, numeric=True):
        if numeric:
            add(command, "--digits", type=int, default=None,
                help=f"decimal working precision (default {DEFAULT_DIGITS}, "
                     f"or ${DIGITS_ENV_VAR})")
        add(command, "--output", choices=("text", "json"), default="text")

    sub.add_parser("eval", help="L(s, f), or L'(0, f) when s = 0")
    add("eval", "--fn", required=True, help="path to a periodic-function JSON file")
    add("eval", "--s", required=True, help="rational evaluation point (s != 1)")
    add_common("eval")

    sub.add_parser("classify", help="classify a modulus")
    add("classify", "--q", type=int, required=True)
    add_common("classify", numeric=False)

    sub.add_parser("identity", help="coprime sine-product identity residual")
    add("identity", "--q", type=int, required=True)
    add_common("identity")

    sub.add_parser("relations", help="certified integer relation over the log-sine basis")
    add("relations", "--q", type=int, required=True)
    add("relations", "--max-coeff", type=int, default=DEFAULT_MAX_COEFF)
    add("relations", "--extended", action="store_true",
        help="append pi and log 2 (no relation has pi; log 2 only at q = 2^n, n >= 3)")
    add_common("relations")

    sub.add_parser("witness", help="construct a vanishing witness for q")
    add("witness", "--q", type=int, required=True)
    add("witness", "--c", default="0", help="rational value of f(1) (default 0)")
    add_common("witness")

    sub.add_parser("rank", help="exact rank of a family of functions")
    add("rank", "--fns", nargs="+", required=True, help="periodic-function JSON files")
    add_common("rank", numeric=False)
    return parser, sub.choices, flags


_HANDLERS = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "identity": _cmd_identity,
    "relations": _cmd_relations,
    "witness": _cmd_witness,
    "rank": _cmd_rank,
}


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser],
                        dict[str, dict[str, argparse.Action]]]:
    """Built on the first ``run``; ``run`` reads ``LPRIME_DIGITS`` on every numeric call."""
    return build_parser()


def _scan(argv: list[str], flags: dict[str, argparse.Action], command: str) -> argparse.Namespace | None:
    """A subcommand's argv read as its parser reads it, or None when argv is not plain.

    Plain argv holds only ``--flag value`` and ``--flag=value`` tokens
    (``--flag`` alone for a store_true), each flag an exact option string
    of ``flags`` and given once, a separate value not starting with "-",
    and every value converted by its action's type and among its choices;
    every required flag is given, and the others take their defaults as
    they stand (argparse would pass a string default through the type;
    ``build_parser`` asserts that no flag has both, and that each is a
    store or a store_true).
    Anything else (an abbreviation, a repeat, ``--``, ``-h``, rank's
    ``--fns``, a value that does not convert) is argparse's to read, with
    its own messages and exit codes.
    """
    values = {}
    i = 0
    while i < len(argv):
        flag, joined, value = argv[i].partition("=")
        action = flags.get(flag)
        # store (nargs None) and store_true (nargs 0); not rank's --fns (nargs "+")
        if action is None or action.nargs not in (None, 0) or action.dest in values:
            return None
        i += 1
        if action.nargs == 0:
            if joined:
                return None
            value = action.const
        else:
            if not joined:
                if i == len(argv) or argv[i].startswith("-"):
                    return None
                value = argv[i]
                i += 1
            if action.type is not None:
                try:
                    value = action.type(value)
                except (TypeError, ValueError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        values[action.dest] = value
    for action in flags.values():
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    return argparse.Namespace(command=command, **values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv once: an argv that opens with a subcommand goes to that subcommand.

    Plain argv (``_scan``) is read without argparse; any other goes to
    the subcommand's own parser.  The full parser would hand everything
    after the name to the same parser; only the usage line of an
    unrecognised argument differs.  Anything else (no subcommand, an
    unknown one, a top-level ``-h``) goes through the full parser.
    """
    parser, subparsers, flags = _parsers()
    if argv and argv[0] in subparsers:
        command = argv[0]
        args = _scan(argv[1:], flags[command], command)
        return args or subparsers[command].parse_args(argv[1:], argparse.Namespace(command=command))
    return parser.parse_args(argv)


def _join_rational_values(argv: list[str]) -> list[str]:
    """``--s -1/2`` as ``--s=-1/2``: argparse reads "-1/2" as an option."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in ("--s", "--c"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def run(argv: list[str]) -> int:
    try:
        args = _parse(_join_rational_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if "digits" in args:
            args.digits = _resolve_digits(args.digits)
            if not MIN_DIGITS <= args.digits <= MAX_DIGITS:
                raise ValidationError(f"--digits must be within {MIN_DIGITS}..{MAX_DIGITS}, got {args.digits}")
        _require_q(getattr(args, "q", 0), args.command)
        if "max_coeff" in args:
            require_int(args.max_coeff, 1, "--max-coeff must be")
        report, lines = _HANDLERS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report) if args.output == "json" else "\n".join(lines))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
