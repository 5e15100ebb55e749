"""Byte-identical ``--output json`` reports, pinned by SHA-256.

Each group runs a fixed list of CLI commands and hashes their reports,
one per line, in order.  The inputs follow the benchmark's workloads
(``perfbench/workloads.py``): ``eval`` at every evaluation point and digit
count the ``evaluate`` workload uses, ``identity`` over a range of q,
``relations`` at the moduli and settings of the ``relations`` workload,
and ``witness`` at four moduli.  A change to the numeric kernel that
moves any printed digit, or to a report's layout, changes a digest.  The
digests were taken with mpmath 1.3.0, whose ``nstr`` prints the values.
"""

import contextlib
import hashlib
import io

import pytest

from lprime.cli import run
from lprime.periodic import PeriodicFunction

#: Even Dirichlet-type functions: a dense one with fractions, one at the
#: golden-ratio modulus, and one on two residue pairs of a larger q.
FUNCTIONS = {
    "units12": PeriodicFunction(q=12, values={1: 3, 5: -2, 7: -2, 11: 3}),
    "golden5": PeriodicFunction(q=5, values={1: 1, 2: -1, 3: -1, 4: 1}),
    "sparse41": PeriodicFunction(q=41, values={3: "1/2", 38: "1/2", 17: "-5/3", 24: "-5/3"}),
}
EVAL_S = ("0", "-1", "1/3", "2", "-1/2", "3/4", "7/2")
EVAL_DIGITS = (50, 120, 240)
RELATIONS_COMPOSITE = (15, 21, 33, 35, 39, 51, 55, 57, 65, 30, 42, 66, 70, 78, 102, 110, 114, 130)
RELATIONS_PRIME_POWER = (9, 11, 13, 16, 17, 25, 27, 32)


def _commands(group, tmp_path):
    if group == "eval":
        for name, f in FUNCTIONS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(f.dumps())
            for s in EVAL_S:
                for d in EVAL_DIGITS:
                    yield ["eval", "--fn", str(path), f"--s={s}", "--digits", str(d)]
    elif group == "identity":
        for q in range(3, 301):
            yield ["identity", "--q", str(q), "--digits", "50"]
    elif group == "relations":
        for q in RELATIONS_COMPOSITE:
            yield ["relations", "--q", str(q), "--max-coeff", "4", "--digits", "120"]
        for q in RELATIONS_PRIME_POWER:
            yield ["relations", "--q", str(q), "--max-coeff", "1000000", "--digits", "100"]
    else:
        for q, c in ((55, "0"), (155, "1"), (205, "-3/2"), (505, "2")):
            yield ["witness", "--q", str(q), f"--c={c}", "--digits", "50"]


@pytest.mark.parametrize("group, count, digest", [
    ("eval", 63, "07f366065c9079cbb0345709acf1d2646be5ba389acb3d984e00c4f3e9130114"),
    ("identity", 298, "7487d597fbe7474b10c0549af9bbec429b7afb2d77af71bf5323dfa94005729b"),
    ("relations", 26, "80b25b02fefaa364e40fd2b027bcab3323d39bded0bd98c829c6b5bbe3123435"),
    ("witness", 4, "87d9812ba19594025040b13d230f2909e9c285c1519b04fb116f1a5837882105"),
], ids=["eval", "identity", "relations", "witness"])
def test_reports_are_byte_identical(tmp_path, group, count, digest):
    reports = []
    for argv in _commands(group, tmp_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv + ["--output", "json"]) == 0, argv
        reports.append(out.getvalue())
    assert len(reports) == count
    assert hashlib.sha256("".join(reports).encode()).hexdigest() == digest
