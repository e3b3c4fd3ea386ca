"""Every report column is read by a CLI check, or says why none reads it.

REPORT_COLUMNS lists each command's report header in order and, for each
column, the checks that read it (a tuple of check names) or a string that
starts "echo:" (a config or seed value written back) or "unasserted:" (why
no check reads it yet).  A new column, a reordered header or a renamed
check fails here until the table names it.
"""
import ast
import inspect
import itertools

import pytest

from cliffsim import cli
from test_golden import CASES

_ECHO = "echo: a config or seed value"
_THETA_J = "theta_{j}"  # one column per weight, j = 0..2n-1

REPORT_COLUMNS = {
    "verify-basis": {
        "n": _ECHO,
        "blade_count": ("basis-count",),
        "max_hermiticity_defect": ("basis-hermiticity",),
        "max_generator_relation_defect": ("generator-relations",),
        "gram_rank": ("basis-independence",),
    },
    "omega-count": {
        "n": _ECHO,
        "omega_parity_rule": ("omega-agreement", "omega-closed-form"),
        "omega_bruteforce": ("omega-agreement",),
    },
    "verify-gqft": {
        "theta": _ECHO,
        "n": _ECHO,
        "seed": _ECHO,
        "unitarity_defect": ("gqft-unitarity",),
        "factorization_error": ("gqft-factorization",),
    },
    "gqft-distance": {
        "theta": _ECHO,
        "n": _ECHO,
        "seed": _ECHO,
        "distance": ("gqft-distance-bound",),
        "bound": ("gqft-distance-bound",),
    },
    "trotter-sweep": {
        "r": _ECHO,
        "t": _ECHO,
        "measured_error": ("trotter-bound",),
        "bound_simple": "unasserted: at most bound_full by construction, and no check "
                        "compares it with the measured error (ROADMAP item 1)",
        "bound_full": ("trotter-bound",),
        "bound_commutator": "unasserted: no check compares it with the measured error yet "
                            "(ROADMAP items 1 and 13)",
        "omega": "unasserted: the anticommuting pair count of the terms, with no second "
                 "route yet (ROADMAP item 13)",
    },
    "swap-test": {
        "shots": _ECHO,
        "seed": _ECHO,
        "zero_count": ("swap-estimate", "swap-concentration"),
        "estimate": ("swap-estimate",),
        # Pr(0) = (1 + exact_overlap^2) / 2 against the ancilla protocol, and
        # the p0 the tallies concentrate around
        "exact_overlap": ("swap-agreement", "swap-concentration"),
    },
    "train-cqp": {
        "iteration": _ECHO,
        "fidelity": ("train-fidelity-bound", "train-monotone", "train-converged"),
        _THETA_J: "unasserted: the weights; no check sees the model's gradient "
                  "(ROADMAP item 9)",
    },
    "equivalence": {
        "seed": _ECHO,
        "n": _ECHO,
        "phi_defect": ("equivalence-defect",),
        "state_defect": ("equivalence-defect",),
    },
    # a netlist, not a table: both checks rebuild the unitary from its lines
    "decompose": {
        "netlist": ("decompose-reconstruction", "decompose-compilation"),
    },
}

# checks whose input is not printed in the report
UNPRINTED_CHECKS = {
    "basis-orthogonality": "the certificate R R^T == 2^n I of the blades' real parts",
}


# The name of every check the table gives: each column's readers and the
# unprinted checks.  test_every_column_is_read_or_labelled holds it equal to
# the names cli.py raises.
CHECK_NAMES = frozenset(itertools.chain(
    UNPRINTED_CHECKS, *(readers for columns in REPORT_COLUMNS.values()
                        for readers in columns.values() if not isinstance(readers, str))))


def _raised_checks() -> set[str]:
    """The name of every check cli.py raises, by _check or by CheckFailure
    (outside _check, which passes its own name on)."""
    module = ast.parse(inspect.getsource(cli))
    names = set()
    for node in itertools.chain.from_iterable(
            ast.walk(f) for f in module.body if getattr(f, "name", None) != "_check"):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            position = {"_check": 1, "CheckFailure": 0}.get(node.func.id)
            if position is not None and len(node.args) > position:
                name = node.args[position]
                assert isinstance(name, ast.Constant), ast.unparse(node)
                names.add(name.value)
    return names


def _columns(command: str, argv: list[str]) -> list[str]:
    """The table's header for command at argv, theta_{j} spelled out."""
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else cli._COMMAND_KEYS[command]["n"][1]
    expanded = []
    for column in REPORT_COLUMNS[command]:
        expanded += [f"theta_{j}" for j in range(2 * n)] if column == _THETA_J else [column]
    return expanded


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_header_is_the_tables(tmp_path, case):
    argv = CASES[case]
    out = tmp_path / "report"
    assert cli.main([*argv, "--out", str(out)]) == 0, argv
    first = out.read_text().splitlines()[0]
    if argv[0] == "decompose":
        assert first.startswith("# two-level factors (")
    else:
        assert first.split(",") == _columns(argv[0], argv)


def test_every_column_is_read_or_labelled():
    assert set(REPORT_COLUMNS) == set(cli._HANDLERS)
    assert set(REPORT_COLUMNS) == {argv[0] for argv in CASES.values()}
    for command, columns in REPORT_COLUMNS.items():
        for column, readers in columns.items():
            if isinstance(readers, str):
                assert readers.startswith(("echo: ", "unasserted: ")), (command, column)
            else:
                assert readers, (command, column)
    assert CHECK_NAMES == _raised_checks()
