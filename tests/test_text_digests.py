"""Byte-identical ``--output text`` reports, pinned by SHA-256.

The companion of ``test_report_digests.py`` for the text mode: each
subcommand runs a fixed list of commands with the default output, and
the concatenated stdout is hashed.  Every text line a handler renders is
covered: ``eval`` at s = 0 and s != 0, every ``classify`` trace shape,
``relations`` with a relation, with ``--extended`` and with none,
``witness`` with the full function it prints, and ``rank`` with and
without a certificate.
"""

import contextlib
import hashlib
import io

import pytest

from lprime.cli import run
from lprime.periodic import PeriodicFunction

FUNCTIONS = {
    "units12": PeriodicFunction(q=12, values={1: 3, 5: -2, 7: -2, 11: 3}),
    "golden5": PeriodicFunction(q=5, values={1: 1, 2: -1, 3: -1, 4: 1}),
    "double5": PeriodicFunction(q=5, values={1: 2, 2: -2, 3: -2, 4: 2}),
    "odd9": PeriodicFunction(q=9, values={1: 1, 8: -1, 2: "1/2"}),
    "pair9": PeriodicFunction(q=9, values={1: 1, 8: 1}),
    "other9": PeriodicFunction(q=9, values={2: "1/3", 7: "1/3"}),
}


def _commands(group, tmp_path):
    paths = {}
    for name, f in FUNCTIONS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(f.dumps())
    if group == "eval":
        for name in ("units12", "golden5", "odd9"):
            for s in ("0", "2", "-1", "1/3"):
                yield ["eval", "--fn", str(paths[name]), f"--s={s}", "--digits", "30"]
    elif group == "classify":
        for q in range(2, 80):
            yield ["classify", "--q", str(q)]
        for q in (155, 205, 2607, 3059):
            yield ["classify", "--q", str(q)]
    elif group == "identity":
        for q in (3, 4, 9, 12, 30, 97):
            yield ["identity", "--q", str(q), "--digits", "30"]
    elif group == "relations":
        yield ["relations", "--q", "15", "--max-coeff", "4", "--digits", "40"]
        yield ["relations", "--q", "16", "--max-coeff", "10", "--extended", "--digits", "40"]
        yield ["relations", "--q", "9", "--max-coeff", "3", "--digits", "40"]
    elif group == "witness":
        for q, c in ((55, "0"), (155, "1"), (205, "-3/2")):
            yield ["witness", "--q", str(q), f"--c={c}", "--digits", "30"]
    else:
        yield ["rank", "--fns", str(paths["golden5"])]
        yield ["rank", "--fns", str(paths["golden5"]), str(paths["double5"])]
        yield ["rank", "--fns", str(paths["pair9"]), str(paths["other9"])]


@pytest.mark.parametrize("group, count, digest", [
    ("eval", 12, "e4753b4fc6893d8a63f9ea0638ca094f911eb82671824828b7c6220a2a1d2df7"),
    ("classify", 82, "fe03c73053b0dd0ce5e9fa9620633dd28b84ce6320a43f3901e1d92905ccab1e"),
    ("identity", 6, "ba7cdb1d80a13b4d06be1570ca5d540b6f889cfe0f051adb3bfde4cc717c0963"),
    ("relations", 3, "309a374f7adb0b98daf74d2354684690c3fee50dd77856a3d14bf6e670dc8e01"),
    ("witness", 3, "1e61a118402c6fb12dca24a4c0bc06a58b24a4544177a26f97e785901d9c89aa"),
    ("rank", 3, "c0d30e184100c3bdcb82326b02436e5d244447048824e2b91235d12b421a58bc"),
], ids=["eval", "classify", "identity", "relations", "witness", "rank"])
def test_text_reports_are_byte_identical(tmp_path, group, count, digest):
    reports = []
    for argv in _commands(group, tmp_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0, argv
        reports.append(out.getvalue())
    assert len(reports) == count
    assert hashlib.sha256("".join(reports).encode()).hexdigest() == digest
