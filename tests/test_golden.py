"""Golden reports: pinned-seed output of every command, compared token by token.

Each case runs one command at ``--seed 3`` and compares its report with
``tests/golden/<case>.txt``.  Trailing ``# key = value`` metadata lines are
not part of the comparison.  Non-numeric tokens must match exactly, and
so must two integer tokens.  Real and complex numbers must agree within
``ATOL``, so a change of eigensolver or of exponential route may move the
last digits but nothing more.  A float cell that printed as an integer
(an exact 0) is compared as a number against a non-integer token.

Rewrite the golden files, only when a change is meant to move the numbers:

    PYTHONPATH=src python tests/test_golden.py
"""
import re
from pathlib import Path

import pytest

from cliffsim import cli

GOLDEN = Path(__file__).parent / "golden"
SEED = "3"
ATOL = 1e-8  # the reference tolerance of bench/gate.py

CASES = {
    # the settings of test_acceptance._CLI_ARGS
    "verify-basis": ["verify-basis", "--n", "2"],
    "omega-count": ["omega-count", "--n", "2"],
    "verify-gqft": ["verify-gqft", "--n", "2", "--thetas", "0.1,1.0", "--trials", "2"],
    "gqft-distance": ["gqft-distance", "--n", "2", "--thetas", "0.1,1.0", "--trials", "2"],
    "trotter-sweep": ["trotter-sweep", "--n", "1", "--terms", "2", "--rs", "1,10,100"],
    "swap-test": ["swap-test", "--n", "2", "--shots", "1000,100000"],
    "train-cqp": ["train-cqp", "--iterations", "150", "--require-fidelity", "0.5"],
    "equivalence": ["equivalence", "--n", "2", "--trials", "5"],
    "decompose": ["decompose"],
    # the largest sizes, where the numerical kernels do the most work
    "verify-gqft-n4": ["verify-gqft", "--n", "4", "--trials", "2"],
    "gqft-distance-n4": ["gqft-distance", "--n", "4", "--trials", "2"],
    "trotter-sweep-n2": ["trotter-sweep", "--n", "2", "--terms", "15"],
    "train-cqp-n2": ["train-cqp", "--n", "2", "--iterations", "500",
                     "--require-fidelity", "0.5"],
    "equivalence-n3": ["equivalence", "--n", "3"],
    # the top of the register range, n = 4, for the other commands with an n
    "verify-basis-n4": ["verify-basis", "--n", "4"],
    "omega-count-n4": ["omega-count", "--n", "4"],
    "equivalence-n4": ["equivalence", "--n", "4"],
    "trotter-sweep-n4": ["trotter-sweep", "--n", "4", "--terms", "255", "--rs", "1,10,100"],
    "train-cqp-n4": ["train-cqp", "--n", "4"],
}

_METADATA = re.compile(r"# [^=]* = ")
_INT = re.compile(r"[+-]?\d+\Z")


def _report(argv, out: Path) -> str:
    assert cli.main([*argv, "--seed", SEED, "--out", str(out)]) == 0, argv
    lines = out.read_text().splitlines()
    return "\n".join(ln for ln in lines if not _METADATA.match(ln)) + "\n"


def _tokens(text: str) -> list[list[str]]:
    return [re.split(r"[,\s]+", line) for line in text.splitlines()]


def _same(got: str, want: str) -> bool:
    if got == want:
        return True
    if _INT.match(got) and _INT.match(want):
        return False
    try:
        return abs(complex(got) - complex(want)) <= ATOL
    except ValueError:
        return False


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(tmp_path, case):
    got = _tokens(_report(CASES[case], tmp_path / "report"))
    want = _tokens((GOLDEN / f"{case}.txt").read_text())
    assert len(got) == len(want), f"{len(got)} lines, golden has {len(want)}"
    for lineno, (g_line, w_line) in enumerate(zip(got, want), start=1):
        assert len(g_line) == len(w_line), f"line {lineno}: token count differs"
        for g, w in zip(g_line, w_line):
            assert _same(g, w), f"line {lineno}: {g!r} != golden {w!r}"


@pytest.mark.parametrize("got, want, same", [
    ("3", "3", True),
    ("3", "4", False),
    ("0", "2.2204460492503131e-16", True),
    ("0", "1e-7", False),
    ("0.5", "0.500000001", True),
    ("0.5", "0.50001", False),
    ("0.70710678118654757+1.1e-16j", "0.70710678118654757-2e-16j", True),
    ("0.7+0j", "0.6+0j", False),
    ("dim=4", "dim=4", True),
    ("dim=4", "dim=8", False),
])
def test_token_comparison(got, want, same):
    assert _same(got, want) is same


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(CASES.items()):
            (GOLDEN / f"{name}.txt").write_text(_report(argv, Path(tmp) / name))
            print(f"wrote {GOLDEN / name}.txt")
