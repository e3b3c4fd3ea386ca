"""Property test of the CLI input surface: every flag value, config file
and report path, valid or not, ends in exit code 0, 1 or 3 and never in a
traceback, and an exit 1 prints one FAIL line that names a check, a LAPACK
failure included."""
import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cliffsim import cli
from test_report_columns import CHECK_NAMES

_HUGE = st.sampled_from([2 ** 63 - 1, 2 ** 63, 2 ** 64, 10 ** 30, 10 ** 400])
_JUNK = st.sampled_from(["", "abc", "1.5", "0x10", "--"])
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


def _ints(lo, hi):
    """Small in-range ints, values just outside [lo, hi], huge ints, junk."""
    return st.one_of(st.integers(lo, hi), st.sampled_from([lo - 1, hi + 1, -(10 ** 30)]),
                     _HUGE, _JUNK)


def _floats(lo, hi):
    return st.one_of(st.floats(lo, hi), _ANY_FLOAT, st.sampled_from([1e308, -1e-300]), _JUNK)


def _csv(element):
    return st.lists(element, max_size=3).map(lambda xs: ",".join(str(x) for x in xs))


_FLOAT = _floats(-3.0, 3.0)
_VALUES = {
    "seed": _ints(0, 2 ** 64 - 1),
    "n": _ints(1, 4),
    # a trial or iteration count under its cap can still be a long job; only
    # the rejected ones are drawn large
    "trials": st.one_of(st.integers(-2, 2),
                        st.sampled_from([cli.WORK_CAPS["trials"] + 1, 10 ** 30])),
    "iterations": st.one_of(st.integers(-2, 4), st.sampled_from([20001, 10 ** 30])),
    "terms": _ints(1, 15),
    "output_index": _ints(0, 3),
    "t": _FLOAT,
    "beta": _FLOAT,
    "eta": _floats(0.0, 1.0),
    "fd_step": _floats(0.0, 0.02),
    "require_fidelity": st.one_of(st.just(0.0), _floats(0.0, 1.0)),
    "theta1": _FLOAT,
    "theta2": _FLOAT,
    "thetas": _csv(st.one_of(st.floats(0.0, 3.0), _ANY_FLOAT)),
    "shots": _csv(st.one_of(st.integers(-1, 10 ** 6), _HUGE)),
    "rs": _csv(st.one_of(st.integers(-1, 10 ** 6 + 1), _HUGE)),
    "activation": st.sampled_from(["tanh", "identity", "clamp", "relu", ""]),
}
_ALWAYS_SET = {"trials", "iterations"}  # their defaults are the slow end


def _config_line(key):
    """A `key = value` line, an unknown key, or a junk line."""
    known = st.builds("{} = {}".format, st.just(key), _VALUES[key])
    unknown = st.builds("{} = {}".format, st.sampled_from(["bogus", "out", "config"]),
                        st.text(max_size=8))
    return st.one_of(known, unknown, st.text(max_size=12))


def _config_file(command):
    """Config-file contents: arbitrary bytes, or lines for the command's keys.

    Flags are set after a file is read, so a file can never make the
    always-set trial and iteration counts large."""
    keys = st.sampled_from(["seed", *cli._COMMAND_KEYS[command]])
    lines = st.lists(keys.flatmap(_config_line), max_size=4)
    return st.one_of(st.binary(max_size=40),
                     lines.map(lambda ls: "\n".join(ls).encode("utf-8")))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flag_surface_exits_0_1_or_3(tmp_path, data):
    command = data.draw(st.sampled_from(sorted(cli._COMMAND_KEYS)), label="command")
    out = data.draw(st.sampled_from(["report", "missing/report"]), label="out")
    argv = [command, f"--out={tmp_path / out}"]
    config = data.draw(st.none() | _config_file(command), label="config")
    if config is not None:
        (tmp_path / "fuzz.cfg").write_bytes(config)
        argv.append(f"--config={tmp_path / 'fuzz.cfg'}")
    for key in ["seed", *cli._COMMAND_KEYS[command]]:
        values = _VALUES[key] if key in _ALWAYS_SET else st.none() | _VALUES[key]
        value = data.draw(values, label=key)
        if value is not None:
            argv.append(f"--{key.replace('_', '-')}={value}")
    # every --key=value form reaches both the flag table and argparse
    assert vars(cli._parse(argv)) == vars(
        cli._build_parser()[0].parse_args(cli._join_float_values(argv))), argv
    _assert_exit_contract(argv, tmp_path / out)


def _assert_exit_contract(argv, out):
    """main(argv) exits 0, 1 or 3; an exit 1 prints exactly one line,
    FAIL <name> (<detail>), with name a check of the report-column table or
    invariant, and writes no report at out.  Gives the code and stdout."""
    out.unlink(missing_ok=True)  # left by an earlier example
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(argv)
    assert code in (0, 1, 3), argv
    if code == 1:
        [line] = stdout.getvalue().splitlines()
        name = re.fullmatch(r"FAIL (\S+) \(.*\)", line).group(1)
        assert name in CHECK_NAMES | {"invariant"}, (argv, line)
        assert not out.exists(), argv
    return code, stdout.getvalue()


# Valid configs that exit 1, which the drawn examples rarely reach: a target
# fidelity one step cannot reach, and a tanh run at large eta whose fidelity
# falls (ROADMAP item 2)
@pytest.mark.parametrize("argv", [
    ["train-cqp", "--iterations", "1", "--require-fidelity", "0.999"],
    ["train-cqp", "--n", "1", "--eta", "4.1", "--iterations", "38", "--require-fidelity", "0",
     "--seed", "425344"],
])
def test_an_exit_1_names_one_check(tmp_path, argv):
    code, _ = _assert_exit_contract([*argv, f"--out={tmp_path / 'report'}"],
                                    tmp_path / "report")
    assert code == 1


# LAPACK's own failures, a plain LinAlgError, end in FAIL invariant too: each
# command that runs an eigensolve (through linalg.hermitian_eigen) or an SVD
# (through linalg.spectral_norm), with that call made to fail
@pytest.mark.parametrize("function, argv", [
    ("eigh", ["verify-gqft", "--n", "1", "--trials", "1"]),
    ("eigh", ["trotter-sweep", "--n", "1", "--terms", "3"]),
    ("eigh", ["equivalence", "--n", "1", "--trials", "1"]),
    ("eigh", ["decompose"]),
    ("svd", ["trotter-sweep", "--n", "1", "--terms", "3"]),
], ids=lambda x: x if isinstance(x, str) else x[0])
def test_a_lapack_failure_is_an_invariant_failure(tmp_path, monkeypatch, function, argv):
    calls = []

    def fail(*args, **kwargs):
        calls.append(function)
        raise np.linalg.LinAlgError(f"{function} did not converge")
    monkeypatch.setattr(np.linalg, function, fail)
    out = tmp_path / "report"
    code, stdout = _assert_exit_contract([*argv, f"--out={out}"], out)
    assert code == 1 and calls == [function]
    assert stdout == f"FAIL invariant ({function} did not converge)\n"
