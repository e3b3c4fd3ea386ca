"""Property test of the CLI input surface: every flag value, config file
and report path, valid or not, ends in exit code 0, 1 or 3 and never in a
traceback, and an exit 1 prints one FAIL line that names a check, a LAPACK
failure included."""
import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cliffsim import cli, clifford
from test_report_columns import CHECK_NAMES

_JUNK = st.sampled_from(["", "abc", "1.5", "0x10", "--"])


def _values(row):
    """Strategies for the flag text of one row of the key table: (kept, broken).
    kept draws a value in range, or None (the default) but for a count, a work
    key, which is drawn from its low end; broken draws a value just past a
    bound of its domain (or, for a float, at an end), or junk.  A bound that
    depends on n is met at every n and passed at each."""
    kind, _, domain = row[:3]
    if kind is str:
        inside, past = st.just(domain), st.sampled_from(["identity", "relu", ""])
    else:
        his = ([domain.hi[1](n) for n in clifford.REGISTER_SIZES]
               if isinstance(domain.hi, tuple) else [domain.hi])
        lo, hi, (left, right) = domain.lo, his[0], domain.ends
        if domain.ends == "..":
            inside = st.integers(lo, lo + 3 if kind is int and domain.cap else hi)
            past = [lo - 1, *(h + 1 for h in his), 10 ** 30]
        else:
            inside = st.floats(max(lo, -3.0), min(hi, 3.0), exclude_min=left == "(",
                               exclude_max=right == ")" and hi <= 3.0)
            # each end and its neighbours: by an infinite end, the largest finite float
            past = [math.nan, *(math.nextafter(x, to) for x in (lo, hi)
                                for to in (-math.inf, x, math.inf))]
        inside, past = inside.map(str), st.sampled_from(past).map(str)
    if isinstance(kind, list):
        some = st.lists(inside, min_size=1, max_size=3).map(",".join)
        inside, past = some, st.builds("{},{}".format, some, past) | st.sampled_from(
            ["", ",".join([str(domain.lo)] * (domain.cap + 1))])
    return inside if kind is int and domain.cap else st.none() | inside, past | _JUNK


# each key's strategies, by name: a key's domain is the same in every command
_STRATEGIES = {key: _values(row) for keys in cli._COMMAND_KEYS.values()
               for key, row in keys.items()}


def _config_file(data, keys, broken):
    """`key = value` lines; with a broken key, an unknown key or a junk line
    may follow them, or the file may be arbitrary bytes."""
    lines = []
    for key in data.draw(st.lists(st.sampled_from(sorted(keys)), max_size=3), label="file keys"):
        value = data.draw(_STRATEGIES[key][key == broken], label=key)
        lines += [] if value is None else [f"{key} = {value}"]
    if broken is not None:
        lines += data.draw(st.lists(st.text(max_size=12) | st.sampled_from(
            ["bogus = 1", "out = x", "config = y"]), max_size=1), label="file junk")
    text = "\n".join(lines).encode("utf-8")
    return text if broken is None else data.draw(st.just(text) | st.binary(max_size=40))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flag_surface_exits_0_1_or_3(tmp_path, data):
    """About half the examples draw every value in range; each other one
    breaks one key (see _values), or the config file."""
    command = data.draw(st.sampled_from(sorted(cli._COMMAND_KEYS)), label="command")
    keys = cli._COMMAND_KEYS[command]
    broken = data.draw(st.none() | st.sampled_from(sorted(keys)), label="broken key")
    out = "report" if broken is None else data.draw(st.sampled_from(["report", "missing/report"]))
    argv = [command, f"--out={tmp_path / out}"]
    if data.draw(st.booleans(), label="config"):
        (tmp_path / "fuzz.cfg").write_bytes(_config_file(data, keys, broken))
        argv.append(f"--config={tmp_path / 'fuzz.cfg'}")
    for key in keys:
        value = data.draw(_STRATEGIES[key][key == broken], label=key)
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
