"""End-to-end command tests: exit codes, schemas, determinism, config files."""
import argparse
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsim import circuits, cli, clifford, cqp, gqft, linalg, simulator, trotter

SMALL_ARGS = {
    "verify-basis": ["--n", "2"],
    "omega-count": ["--n", "2"],
    "verify-gqft": ["--n", "2", "--thetas", "0.1,0.5", "--trials", "2"],
    "gqft-distance": ["--n", "2", "--thetas", "0.1,0.5", "--trials", "2"],
    "trotter-sweep": ["--n", "1", "--terms", "2", "--rs", "1,10,100"],
    "swap-test": ["--n", "2", "--shots", "1000,10000"],
    "train-cqp": ["--iterations", "120", "--require-fidelity", "0.5"],
    "equivalence": ["--n", "2", "--trials", "5"],
    "decompose": [],
}

HEADERS = {
    "verify-gqft": "theta,n,seed,unitarity_defect,factorization_error",
    "gqft-distance": "theta,n,seed,distance,bound",
    "trotter-sweep": "r,t,measured_error,bound_simple,bound_full,bound_commutator,omega",
    "train-cqp": "iteration,fidelity,theta_0,theta_1",
    "swap-test": "shots,seed,zero_count,estimate,exact_overlap",
    "omega-count": "n,omega_parity_rule,omega_bruteforce",
    "equivalence": "seed,n,phi_defect,state_defect",
    "verify-basis": ("n,blade_count,max_hermiticity_defect,"
                     "max_generator_relation_defect,gram_rank"),
}


def _run(command, out, extra=()):
    return cli.main([command, *SMALL_ARGS[command], "--out", str(out), *extra])


@pytest.mark.parametrize("command", sorted(SMALL_ARGS))
def test_command_succeeds_and_writes_report(tmp_path, command, capsys):
    out = tmp_path / "report.csv"
    assert _run(command, out) == 0
    assert f"OK wrote {out}" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    if command in HEADERS:
        assert lines[0] == HEADERS[command]
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# seed = ") for ln in meta)
    assert any(ln.startswith("# version = ") for ln in meta)
    assert any(ln.startswith("# command = cliffsim ") for ln in meta)


@pytest.mark.parametrize("command", sorted(SMALL_ARGS))
def test_data_rows_are_deterministic(tmp_path, command):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(command, a, ["--seed", "9"]) == 0
    assert _run(command, b, ["--seed", "9"]) == 0
    data_a = [ln for ln in a.read_text().splitlines() if not ln.startswith("#")]
    data_b = [ln for ln in b.read_text().splitlines() if not ln.startswith("#")]
    assert data_a == data_b


def test_readme_trotter_sweep_example_is_current(tmp_path, capsys, monkeypatch):
    """The README's trotter-sweep example, run as shown: its printed lines and
    the three report lines it shows match, byte for byte."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("$ cliffsim trotter-sweep ", 1)[1].split("```", 1)[0]
    run, head = example.split("\n\n$ head -3 trotter-sweep.csv\n")
    argv, *printed = run.splitlines()
    monkeypatch.chdir(tmp_path)  # the report lands under its default name
    assert cli.main(["trotter-sweep", *argv.split()]) == 0
    assert capsys.readouterr().out.splitlines() == printed
    shown = head.splitlines()
    assert len(shown) == 3
    assert (tmp_path / "trotter-sweep.csv").read_text().splitlines()[:3] == shown


def test_seed_changes_sampled_rows(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run("swap-test", a, ["--seed", "1"]) == 0
    assert _run("swap-test", b, ["--seed", "2"]) == 0
    assert a.read_text().splitlines()[1] != b.read_text().splitlines()[1]


def test_floats_round_trip_through_csv(tmp_path):
    out = tmp_path / "r.csv"
    assert _run("gqft-distance", out) == 0
    row = out.read_text().splitlines()[1].split(",")
    dist, bound = float(row[3]), float(row[4])
    assert 0.0 < dist <= bound
    assert f"{dist:.17g}" == row[3]  # 17 significant digits round-trip


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# sweep settings\nn = 1\nterms = 2\nrs = 1,10\nseed = 4\n")
    out = tmp_path / "r.csv"
    assert cli.main(["trotter-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith(("#", "r,"))]
    assert [ln.split(",")[0] for ln in rows] == ["1", "10"]
    # flag beats file
    assert cli.main(["trotter-sweep", "--config", str(cfg), "--rs", "5",
                     "--out", str(out)]) == 0
    rows = [ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith(("#", "r,"))]
    assert [ln.split(",")[0] for ln in rows] == ["5"]


def test_unknown_config_key_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    out = tmp_path / "r.csv"
    assert cli.main(["omega-count", "--config", str(cfg), "--out", str(out)]) == 3
    assert "ERROR invalid config" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_parameter_exits_3(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli.main(["omega-count", "--n", "9", "--out", str(out)]) == 3
    assert "ERROR invalid config" in capsys.readouterr().err


@pytest.mark.parametrize("command", [c for c, keys in cli._COMMAND_KEYS.items() if "n" in keys])
@pytest.mark.parametrize("n", ["0", "5"])
def test_every_command_takes_the_one_register_range(tmp_path, capsys, command, n):
    out = tmp_path / "r.csv"
    assert cli.main([command, "--n", n, "--out", str(out)]) == 3
    assert "n: must be in 1..4" in capsys.readouterr().err
    assert not out.exists()


def test_bad_value_exits_3(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli.main(["trotter-sweep", "--rs", "ten", "--out", str(out)]) == 3


@pytest.mark.parametrize("argv", [
    ["train-cqp", "--beta", "nan"],
    ["train-cqp", "--eta", "inf"],
    ["train-cqp", "--fd-step", "0.5"],
    ["train-cqp", "--fd-step", "nan"],
    ["trotter-sweep", "--t", "1e308"],
    ["gqft-distance", "--thetas", "400"],
    ["verify-gqft", "--thetas", "1e308"],
    ["swap-test", "--shots", "10000000000000000000"],
    ["train-cqp", "--eta", "1e308"],
    # a step that cannot move theta0: train's ValueError is a config error
    ["train-cqp", "--n", "1", "--fd-step", "1e-17", "--iterations", "5",
     "--require-fidelity", "0"],
    ["trotter-sweep", "--rs", "1," + "1" + "0" * 400],
    ["decompose", "--theta1=1.7e308", "--theta2=1.7e308"],
    ["verify-gqft", "--thetas", ","],
    ["gqft-distance", "--thetas", ","],
    ["swap-test", "--shots", ","],
    ["omega-count", "--seed=--"],
    ["trotter-sweep", "--t", "61565208610", "--rs", "9223372036854775807"],
    ["omega-count", "--config", "{tmp}/undecodable.cfg"],
    ["omega-count", "--config", "{tmp}/missing.cfg"],
    ["omega-count", "--out", "{tmp}/no/such/dir/o.csv"],
    ["omega-count", "--out", "{tmp}"],
    ["omega-count", "--config", ""],
    ["omega-count", "--out", ""],
    # the last derived seed would be 2^64, which --seed rejects
    ["equivalence", "--n", "1", "--trials", "2", "--seed", str(2 ** 64 - 1)],
    ["verify-gqft", "--n", "1", "--trials", "2", "--seed", str(2 ** 64 - 1)],
    ["gqft-distance", "--n", "1", "--trials", "2", "--seed", str(2 ** 64 - 1)],
    ["swap-test", "--n", "1", "--shots", "10,10", "--seed", str(2 ** 64 - 2)],
    # a value flag takes a following float token, even one argparse reads as a flag
    ["decompose", "--theta1", "-inf"],
    ["decompose", "--theta2", "-nan"],
    ["train-cqp", "--beta", "-Infinity"],
    # ... or a comma list of them, as --flag=value does
    ["gqft-distance", "--thetas", "-1,2"],
    ["trotter-sweep", "--rs", "-1,5"],
    ["swap-test", "--shots", "-5,10"],
])
def test_out_of_range_value_exits_3(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # a report under its default name would land here
    (tmp_path / "undecodable.cfg").write_bytes(b"n = \xff\n")
    out = tmp_path / "r.csv"
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    # an --out in argv comes later, so it overrides this one
    assert cli.main([argv[0], "--out", str(out), *argv[1:]]) == 3
    printed = capsys.readouterr()
    assert "ERROR invalid config" in printed.err
    assert "OK wrote" not in printed.out
    assert [p.name for p in tmp_path.iterdir()] == ["undecodable.cfg"]


def _at_cap(key, value, excess=0):
    """--key with the cap's worth of values (a trial count of the cap), plus excess."""
    size = cli.WORK_CAPS[key] + excess
    return [f"--{key}", str(size) if key == "trials" else ",".join([value] * size)]


# Each work flag one past its cap, for each command that takes it
_PAST_CAP = [
    (["verify-gqft", "--n", "1", *_at_cap("trials", "", 1)], "trials", ""),
    (["gqft-distance", "--n", "1", *_at_cap("trials", "", 1)], "trials", ""),
    (["equivalence", "--n", "1", *_at_cap("trials", "", 1)], "trials", ""),
    (["verify-gqft", "--n", "1", "--trials", "1", *_at_cap("thetas", "0.5", 1)], "thetas",
     " values"),
    (["gqft-distance", "--n", "1", "--trials", "1", *_at_cap("thetas", "0.5", 1)], "thetas",
     " values"),
    (["swap-test", "--n", "1", *_at_cap("shots", "10", 1)], "shots", " values"),
    (["trotter-sweep", "--n", "1", "--terms", "1", *_at_cap("rs", "1", 1)], "rs", " values"),
]


@pytest.mark.parametrize("argv, key, unit", _PAST_CAP)
def test_work_flag_past_its_cap_exits_3(tmp_path, capsys, argv, key, unit):
    out = tmp_path / "r.csv"
    assert cli.main([*argv, "--out", str(out)]) == 3
    cap = cli.WORK_CAPS[key]
    assert capsys.readouterr().err == (f"ERROR invalid config: {key}: at most {cap}{unit}, "
                                       f"got {cap + 1}\n")
    assert not out.exists()


def test_work_cap_applies_to_a_config_file_value(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"trials = {cli.WORK_CAPS['trials'] + 1}\n")
    assert cli.main(["equivalence", "--n", "1", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")]) == 3
    assert "trials: at most" in capsys.readouterr().err


# Each work flag at its cap, on the cheapest command that takes it
@pytest.mark.parametrize("argv", [
    ["equivalence", "--n", "1", *_at_cap("trials", "")],
    ["verify-gqft", "--n", "1", "--trials", "1", *_at_cap("thetas", "0.5")],
    ["swap-test", "--n", "1", *_at_cap("shots", "10")],
    ["trotter-sweep", "--n", "1", "--terms", "1", *_at_cap("rs", "1")],
])
def test_work_flag_at_its_cap_runs(tmp_path, argv):
    out = tmp_path / "r.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    rows = [ln for ln in out.read_text().splitlines()[1:] if not ln.startswith("#")]
    assert len(rows) == cli.WORK_CAPS[argv[-2].lstrip("-")]


@pytest.mark.parametrize("argv, seed_column", [
    (["equivalence", "--n", "1", "--trials", "2", "--seed", str(2 ** 64 - 2)], 0),
    (["swap-test", "--n", "1", "--shots", "10,10", "--seed", str(2 ** 64 - 3)], 1),
])
def test_last_derived_seed_may_be_2_64_minus_1(tmp_path, argv, seed_column):
    out = tmp_path / "r.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:] if not ln.startswith("#")]
    assert rows[-1][seed_column] == str(2 ** 64 - 1)


def test_unknown_command_exits_2(capsys):
    assert cli.main(["no-such-command"]) == 2


def _top_level_parse(argv):
    """argv through the top-level parser alone: the reference that a
    command's argv, parsed by its subparser, must match."""
    return cli._build_parser()[0].parse_args(cli._join_float_values(argv))


def _main_outcome(argv, out, capsys):
    """main(argv)'s exit code, stdout, stderr and report bytes (None if no
    report); the report is removed, so the next run starts without one."""
    code = cli.main(argv)
    printed = capsys.readouterr()
    report = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, printed.out, printed.err, report


@pytest.mark.parametrize("rest, code", [
    (["--n", "1", "--trials", "1", "--thet", "0.5"], 0),  # an abbreviation
    (["--n=2", "--thetas=0.5,1", "--trials=1"], 0),  # --flag=value
    (["--thetas", "-1,2"], 3),  # negative floats
    (["--trials", "1", "--thetas", "-1e-1"], 3),
    (["--n", "1", "--trials", "1", "--thetas", "0.5", "--"], 2),
    (["--", "--n", "1"], 2),
    (["--n", "--"], 2),
    (["-h"], 0),
    (["--help"], 0),
    (["--version"], 2),  # --version is a flag of the top-level parser only
    (["--no-such-flag"], 2),
    (["--n", "1", "extra"], 2),
])
@pytest.mark.parametrize("command", ["verify-gqft", "gqft-distance"])
def test_command_argv_parses_as_the_top_level_parser_does(tmp_path, monkeypatch, capsys,
                                                          command, rest, code):
    """A command's argv goes straight to its subparser: exit code, stdout and
    report bytes equal those of the top-level parse, and so does stderr but
    for the parser that names an unrecognized argument."""
    out = tmp_path / "r.csv"
    argv = [command, "--out", str(out), *rest]
    got = _main_outcome(argv, out, capsys)
    monkeypatch.setattr(cli, "_parse", _top_level_parse)
    want = _main_outcome(argv, out, capsys)
    assert got[0] == want[0] == code
    assert got[1] == want[1] and got[3] == want[3]
    assert (got[3] is not None) == (code == 0 and rest[0] not in ("-h", "--help"))
    if "unrecognized arguments" in want[2]:  # named under the command's usage
        assert want[2].startswith("usage: cliffsim [-h] [--version] command ...\n")
        assert got[2].startswith(f"usage: cliffsim {command} [-h]")
        assert got[2].splitlines()[-1] == want[2].splitlines()[-1].replace(
            "cliffsim:", f"cliffsim {command}:")
        if rest == ["--no-such-flag"]:
            assert got[2].endswith(f"cliffsim {command}: error: unrecognized arguments: "
                                   "--no-such-flag\n")
    else:
        assert got[2] == want[2]


@pytest.mark.parametrize("argv, by_top_level", [
    ([], True), (["--help"], True), (["--version"], True), (["no-such-command"], True),
    (["--n", "2", "verify-gqft"], True), (["verify"], True),
    (["verify-gqft", "--version"], False),
    (["omega-count", "--n", "5"], None), (["omega-count", "--n=2"], None),
    (["train-cqp", "--bet", "-1e-3"], False),
    (["train-cqp", "--beta", "-1e-3"], False),  # a negative value is argparse's to judge
])
def test_only_an_argv_led_by_a_command_skips_the_top_level_parser(argv, by_top_level, tmp_path,
                                                                   monkeypatch, capsys):
    """At most one parse_args call per main call: the top-level parser's on
    the whole argv (by_top_level True), the command's subparser's on the rest
    of it (False), or none (None) when the flag table reads every flag of a
    command's argv."""
    monkeypatch.chdir(tmp_path)  # a report under its default name lands here
    calls = []
    top, real = cli._build_parser()[0], argparse.ArgumentParser.parse_args

    def parse_args(self, args=None, namespace=None):
        calls.append((self is top, args))
        return real(self, args, namespace)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_args)
    cli.main(argv)
    if by_top_level is None:
        assert calls == []
    else:
        rest = argv if by_top_level else argv[1:]
        assert calls == [(by_top_level, cli._join_float_values(rest))]
    capsys.readouterr()


def _fresh_python(code, *args, cwd=None):
    """Run code in a fresh interpreter, under -X dev, that imports this cliffsim."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-X", "dev", "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)


def test_cli_import_loads_no_dataclasses_argparse_or_gettext():
    """A fresh import of cliffsim.cli adds none of these to the modules the
    bare interpreter, site hooks included, already had: the records are plain
    tuples, and argparse (which imports gettext) is the fallback route's alone."""
    added = _fresh_python("import sys; bare = set(sys.modules); import cliffsim.cli; "
                          "print(*sorted(set(sys.modules) - bare))").stdout.split()
    assert "cliffsim.cli" in added
    assert not {"dataclasses", "argparse", "gettext"} & set(added)


def test_argparse_is_imported_for_the_fallback_route_alone(tmp_path):
    """In one fresh process: the flag table reads an argv of full flags
    without argparse; an abbreviated flag, -h and --version take the argparse
    route and exit 0 as before, with no warning under -X dev."""
    argvs = [["omega-count", "--n", "2", "--seed", "5", "--out", "table.csv"],
             ["omega-count", "--n", "2", "--se", "5", "--out", "abbreviated.csv"],
             ["-h"], ["--version"]]
    proc = _fresh_python("import json, sys\n"
                         "from cliffsim import cli\n"
                         "for argv in json.loads(sys.argv[1]):\n"
                         "    code = cli.main(argv)\n"
                         "    print('#', code, 'argparse' in sys.modules)\n",
                         json.dumps(argvs), cwd=tmp_path)
    assert proc.stderr == ""
    assert [ln for ln in proc.stdout.splitlines() if ln.startswith("# ")] == [
        "# 0 False", "# 0 True", "# 0 True", "# 0 True"]
    assert "OK wrote abbreviated.csv" in proc.stdout
    assert "usage: cliffsim [-h] [--version] command ..." in proc.stdout
    assert f"\n{cli.__version__}\n" in proc.stdout
    table, abbreviated = ((tmp_path / name).read_text().splitlines()
                          for name in ("table.csv", "abbreviated.csv"))
    assert table[:-1] == abbreviated[:-1]  # all but the # command = line


def _parse_outcome(parse, argv):
    """vars() of parse(argv), or the code of the SystemExit it raises."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return ("exit", exc.code)


def _flag_forms(flag):
    """flag in full, each shorter prefix of it (an abbreviation; "--theta" of
    decompose is ambiguous), and each joined to a value as --flag=value."""
    prefixes = [flag[:i] for i in range(3, len(flag) + 1)]
    return [*prefixes, *(f"{p}={v}" for p in prefixes for v in ("", "x", "-1e-3", "--"))]


_TOKENS = ["", "x", "1", "0.5,1", "-1e-3", "-", "--", "-h", "--help", "--version",
           "omega-count", "--no-such-flag"]


def _with_extra(command, pieces, extra):
    argv = [command, *itertools.chain.from_iterable(pieces)]
    if extra is not None:
        at, token = extra
        argv.insert(1 + at % len(argv), token)
    return argv


def _command_argvs(command):
    """command's argv: flags spelled in full with plain values, as the flag
    table reads them, then maybe one more token anywhere after the command."""
    flags = cli._FLAG_DESTS[command]
    exact, plain = st.sampled_from(list(flags)), st.sampled_from(["x", "1", "0.5,1", "a=b"])
    pieces = st.lists(st.one_of(st.tuples(exact, plain),
                                st.builds("{}={}".format, exact, plain).map(lambda t: (t,))),
                      max_size=4)
    forms = [form for flag in flags for form in _flag_forms(flag)]
    token = st.one_of(exact, st.sampled_from(forms), st.sampled_from(_TOKENS))
    return st.builds(_with_extra, st.just(command), pieces,
                     st.none() | st.tuples(st.integers(0, 8), token))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=st.one_of(*map(_command_argvs, sorted(cli._FLAG_DESTS))))
def test_flag_table_parses_as_argparse_does(argv):
    """cli._parse, whose flag table reads argv with every flag spelled in full
    and a plain value, and the top-level parser give equal namespaces or
    exit with the same code; abbreviations, negative values, help, version,
    positionals and unknown flags go through argparse either way."""
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(_top_level_parse, argv), argv


@pytest.mark.parametrize("command, flag, value, rest", [
    ("train-cqp", "--beta", "-1e-3", ["--iterations", "3", "--require-fidelity", "0"]),
    ("trotter-sweep", "--t", "-2e0", []),
    ("decompose", "--theta1", "-1E-2", []),
    ("decompose", "--theta2", "-.5e+1", ["--theta1", "-0.25"]),
])
def test_negative_value_in_exponent_form_is_a_value(tmp_path, command, flag, value, rest):
    """argparse reads only -1 and -.5 as negative numbers, so a value flag takes
    a following token that parses as a float; the rows equal those of
    --flag=value."""
    reports = []
    for argv in ([flag, value, *rest], [f"{flag}={value}", *rest]):
        out = tmp_path / f"r{len(reports)}.csv"
        assert cli.main([command, *argv, "--out", str(out)]) == 0, argv
        reports.append([ln for ln in out.read_text().splitlines() if not ln.startswith("#")])
    assert reports[0] == reports[1]


def test_abbreviated_value_flag_takes_a_negative_float(tmp_path):
    """--bet abbreviates --beta, so it takes -1e-3 as --beta=-1e-3 does."""
    reports = []
    for flag in (["--bet", "-1e-3"], ["--beta=-1e-3"]):
        out = tmp_path / f"r{len(reports)}.csv"
        assert cli.main(["train-cqp", *flag, "--iterations", "3", "--require-fidelity", "0",
                         "--out", str(out)]) == 0, flag
        reports.append([ln for ln in out.read_text().splitlines() if not ln.startswith("#")])
    assert reports[0] == reports[1]


def test_ambiguous_flag_before_a_negative_float_exits_2(capsys):
    assert cli.main(["decompose", "--theta", "-1E-2"]) == 2  # --theta1 or --theta2
    assert "ambiguous option" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train-cqp", "--beta", "-1e-3x"],   # not a float: still a flag
    ["omega-count", "--beta", "-1e-3"],  # not a flag of this command
    ["train-cqp", "--beta"],
])
def test_flag_without_a_value_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    capsys.readouterr()


def test_check_failure_exits_1(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = cli.main(["train-cqp", "--iterations", "1", "--require-fidelity", "0.999",
                     "--out", str(out)])
    assert code == 1
    printed = capsys.readouterr().out
    assert re.fullmatch(r"FAIL train-converged \(final fidelity 0\.\d{6} < 0\.999\)\n", printed)
    assert not out.exists()


def _shifted(real):
    return lambda *args: real(*args) + 1e-6


def _shrunk(real):
    return lambda *args: real(*args) * 1e-6


def _shrunk_each(real):
    return lambda *args: tuple(v * 1e-6 for v in real(*args))


def _shrunk_generators(real):
    return {n: tuple(g * 1e-6 for g in gens) for n, gens in real.items()}


def _tilted(real):
    return lambda *args: real(*args) + 1e-6j


def _repeated_blade(real):
    """A stack whose last blade repeats the one before: still exactly
    Hermitian, so only the rank sees it."""
    def stack(*args):
        mats = real(*args).copy()
        mats[-1] = mats[-2]
        return mats
    return stack


def _scaled_blade(real):
    """A stack with one blade doubled: still Hermitian and independent, so
    only the orthogonality certificate sees it."""
    def stack(*args):
        mats = real(*args).copy()
        mats[-1] *= 2.0
        return mats
    return stack


def _miscounted(real):
    """basis_report with one blade too many in its count."""
    def report(n):
        rep = real(n)
        return rep._replace(blade_count=rep.blade_count + 1)
    return report


def _reversed_lists(real):
    """ascent with its thetas and fidelities each in reverse order."""
    return lambda *args: tuple(values[::-1] for values in real(*args))


def _perturbed_under_u(real):
    calls = itertools.count()

    def forward(*args):
        phi, y = real(*args)
        # equivalence_defects runs the plain pass, then the pass under u
        return (phi + 1e-6 if next(calls) % 2 else phi), y
    return forward


def _biased_9_sigma(real):
    """A sampler whose zero frequency sits 9 standard deviations below Pr(0)."""
    def sampled(psi, phi, shots, seed):
        p0 = simulator.swap_test_exact(psi, phi)
        zeros = round(shots * (p0 - 9.0 * math.sqrt(p0 * (1.0 - p0) / shots)))
        return (simulator.ShotTally(shots, zeros, seed),
                math.sqrt(max(2.0 * zeros / shots - 1.0, 0.0)))
    return sampled


# check name -> (command, library module, function, wrapper that breaks it)
LIBRARY_BREAKS = {
    "basis-hermiticity": ("verify-basis", clifford, "_basis_stack", _tilted),
    # scaled generators still give exactly Hermitian blades, so only the
    # relations check sees them
    "generator-relations": ("verify-basis", clifford, "_GENERATORS", _shrunk_generators),
    "basis-independence": ("verify-basis", clifford, "_basis_stack", _repeated_blade),
    "basis-orthogonality": ("verify-basis", clifford, "_basis_stack", _scaled_blade),
    "basis-count": ("verify-basis", clifford, "basis_report", _miscounted),
    "omega-agreement": ("omega-count", clifford, "omega_count_dense", _shifted),
    # the factored kernel unitarity_grid runs on its once-checked grid
    "gqft-factorization": ("verify-gqft", gqft, "_factored_grid", _shifted),
    "gqft-distance-bound": ("gqft-distance", gqft, "distance_bound", _shrunk),
    "swap-agreement": ("swap-test", simulator, "swap_test_circuit_probability", _shifted),
    "swap-concentration": ("swap-test", simulator, "swap_test_sampled", _biased_9_sigma),
    "equivalence-defect": ("equivalence", cqp, "forward", _perturbed_under_u),
    "trotter-bound": ("trotter-sweep", trotter, "bounds", _shrunk_each),
    "train-monotone": ("train-cqp", cqp, "ascent", _reversed_lists),
    "decompose-reconstruction": ("decompose", circuits, "gates_product", _shifted),
    "decompose-compilation": ("decompose", circuits.GateCircuit, "dense", _shifted),
}


# a number as %.3e or %.6e formats it, and one as repr does
_E3, _E6, _REPR = r"-?\d\.\d{3}e[-+]\d\d", r"-?\d\.\d{6}e[-+]\d\d", r"-?\d+\.\d+(e[-+]\d+)?"

# check name -> its whole detail under LIBRARY_BREAKS, as a regular expression
LIBRARY_DETAILS = {
    "basis-hermiticity": rf"max defect {_E3}",
    "generator-relations": rf"max defect {_E3}",
    "basis-independence": r"gram rank 15 != 16",
    "basis-orthogonality": r"basis_report: a real or imaginary part of the n=2 basis stack "
                           r"is not -1, 0 or 1, so its float32 products are not certified exact",
    "basis-count": r"blade count 17 != 16",
    "omega-agreement": r"parity 60 != dense 60\.000001",
    "gqft-factorization": rf"theta=0\.1 seed=0 error {_E3}",
    "gqft-distance-bound": rf"theta=0\.1 seed=0 distance {_E6} > bound {_E6}",
    "swap-agreement": rf"formula {_REPR} vs protocol {_REPR}",
    "swap-concentration": rf"shots=1000: shots \* KL\(zeros/shots \|\| p0\) = {_E6} > 32 "
                          rf"\(zeros/shots = {_E6}, p0 = {_E6}\)",
    "equivalence-defect": rf"seed=0: phi defect {_E3}, state defect {_E3}",
    "trotter-bound": rf"r=1: measured {_E6} > bound_full {_E6} \+ roundoff {_E6}",
    "train-monotone": rf"iteration 1: fidelity fell {_REPR} -> {_REPR}",
    "decompose-reconstruction": rf"defect {_E3}",
    "decompose-compilation": rf"defect {_E3}",
}


@pytest.mark.parametrize("check", sorted(LIBRARY_BREAKS))
def test_library_check_failure_exits_1(tmp_path, capsys, monkeypatch, check):
    """The one printed line carries the check's whole detail, which is built
    only when the check fails."""
    command, module, name, patch = LIBRARY_BREAKS[check]
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    out = tmp_path / "r.csv"
    assert _run(command, out) == 1
    printed = capsys.readouterr().out
    assert re.fullmatch(rf"FAIL {check} \({LIBRARY_DETAILS[check]}\)\n", printed), printed
    assert not out.exists()


@pytest.mark.parametrize("fault", ["non-orthonormal basis", "wrong eigenvalue"])
@pytest.mark.parametrize("command", ["verify-gqft", "trotter-sweep", "equivalence",
                                     "decompose"])
def test_a_failed_eigensolve_check_is_a_failed_invariant(tmp_path, capsys, monkeypatch,
                                                          command, fault):
    """hermitian_eigen's residual or orthonormality check rejecting a LAPACK
    result exits 1 with one FAIL invariant line, no traceback and no report."""
    real = np.linalg.eigh

    def corrupted(a):
        lam, v = real(a)
        if fault == "non-orthonormal basis":
            v[..., :, 0] *= 1.0 + 1e-6
        else:
            lam[..., 0] += 1e-6
        return lam, v
    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    out = tmp_path / "r.csv"
    assert _run(command, out) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(
        rf"FAIL invariant \(hermitian_eigen: eigh result fails its check \(relative residual "
        rf"{_E3}, orthonormality defect {_E3}, tol 1\.000e-10\)\)\n", captured.out), captured.out
    assert captured.err == ""
    assert not out.exists()


@pytest.mark.parametrize("fault, message", [
    ("fidelity", "fidelity nan outside [0, 1]"),
    ("activation", "activation output nan is outside [-1, 1]; arccos undefined"),
    ("gradient", "non-finite finite-difference gradient at component 0 "
                 "(activation kink or overflow)"),
])
def test_a_failed_training_check_is_a_failed_invariant(tmp_path, capsys, monkeypatch,
                                                      fault, message):
    """A value train-cqp computed that fails ascent's check (a NaN fidelity,
    activation output or gradient) exits 1 with one FAIL invariant line, no
    traceback and no report; it is not an invalid config."""
    real = cqp._fidelity_scorer

    def spoiled(cfg, smp):
        b, centre, fidelity = real(cfg, smp)
        if fault == "fidelity":
            return b, lambda theta: (math.nan, *centre(theta)[1:]), fidelity
        return b, centre, lambda r, d: math.nan
    if fault == "activation":
        monkeypatch.setattr(cqp.Activation, "float_form", property(lambda self: lambda u: math.nan))
    else:
        monkeypatch.setattr(cqp, "_fidelity_scorer", spoiled)
    out = tmp_path / "r.csv"
    assert cli.main(["train-cqp", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"FAIL invariant ({message})\n"
    assert captured.err == ""
    assert not out.exists()


def test_a_lapack_failure_is_not_reported_as_a_failed_invariant(tmp_path, monkeypatch):
    """Only hermitian_eigen's check of a result maps to FAIL invariant; LAPACK
    failing to converge is not an invariant failure and is not caught."""
    def unconverged(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", unconverged)
    out = tmp_path / "r.csv"
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        _run("equivalence", out)
    assert not out.exists()


def _estimate_squared(monkeypatch):
    """swap-test's estimate column as est^2: the tallies stay true."""
    real = simulator.swap_test_sampled

    def sampled(*args):
        tally, estimate = real(*args)
        return tally, estimate ** 2
    monkeypatch.setattr(simulator, "swap_test_sampled", sampled)


def _overlap_squared(monkeypatch):
    """swap-test's exact_overlap column squared: the CLI reads |<psi|phi>|^2
    for |<psi|phi>|, while the simulator's own routes keep the true inner."""
    view = types.SimpleNamespace(**vars(simulator))
    view.inner = lambda a, b: simulator.inner(a, b) * abs(simulator.inner(a, b))
    monkeypatch.setattr(cli, "simulator", view)


@pytest.mark.parametrize("argv", [[], ["--n", "4"]])
@pytest.mark.parametrize("check, mutate", [("swap-estimate", _estimate_squared),
                                           ("swap-agreement", _overlap_squared)])
def test_swap_report_columns_are_checked(tmp_path, capsys, monkeypatch, argv, check, mutate):
    """Each of swap-test's estimate and exact_overlap columns is read by a
    check: a wrong column fails it at the default argv and at n = 4."""
    mutate(monkeypatch)
    out = tmp_path / "r.csv"
    assert cli.main(["swap-test", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().out.startswith(f"FAIL {check} (")
    assert not out.exists()


@pytest.mark.parametrize("argv", [[], ["--n", "4"]])
def test_swap_test_runs_the_ancilla_route_once(tmp_path, monkeypatch, argv):
    calls = []
    real = simulator.swap_test_circuit_probability

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(simulator, "swap_test_circuit_probability", counted)
    assert cli.main(["swap-test", *argv, "--out", str(tmp_path / "r.csv")]) == 0
    assert len(calls) == 1


def test_omega_closed_form_fails_when_both_routes_agree_on_a_wrong_count(
        tmp_path, capsys, monkeypatch):
    """Both counts shifted alike pass omega-agreement; only the closed form
    4^(n-1) * (4^n - 1) sees them."""
    for name in ("omega_count", "omega_count_dense"):
        monkeypatch.setattr(clifford, name, _shifted(getattr(clifford, name)))
    out = tmp_path / "r.csv"
    assert _run("omega-count", out) == 1
    assert capsys.readouterr().out == (
        "FAIL omega-closed-form (parity = dense = 60.000001 != 4^(n-1) * (4^n - 1) = 60)\n")
    assert not out.exists()


def test_train_monotone_names_the_first_fall_only(tmp_path, capsys, monkeypatch):
    """The whole FAIL line of the train-monotone case above: the first pair
    whose fidelity falls, with both fidelities as reprs, and nothing else."""
    seen = []
    reversed_ascent = _reversed_lists(cqp.ascent)

    def recording_ascent(*args):
        thetas, seen[:] = reversed_ascent(*args)
        return thetas, seen

    monkeypatch.setattr(cqp, "ascent", recording_ascent)
    out = tmp_path / "r.csv"
    assert _run("train-cqp", out) == 1
    falls = [(k, prev, cur) for k, (prev, cur) in enumerate(itertools.pairwise(seen), 1)
             if cur < prev - 1e-12]
    assert len(falls) > 1
    k, prev, cur = falls[0]
    assert capsys.readouterr().out == (
        f"FAIL train-monotone (iteration {k}: fidelity fell {prev!r} -> {cur!r})\n")
    assert not out.exists()


def _raises(*args, **kwargs):
    raise AssertionError("train-cqp called cqp.train or built a TrainRecord")


@pytest.mark.parametrize("argv", [[], ["--n", "2", "--iterations", "60",
                                       "--require-fidelity", "0.5", "--seed", "3"]])
def test_train_cqp_writes_ascents_lists_without_records(tmp_path, monkeypatch, capsys, argv):
    """train-cqp reports from cqp.ascent's lists: with cqp.train and
    TrainRecord._make broken it still passes, and writes the same bytes and
    stdout as an unbroken run, at the default argv and at the bench's n = 2
    shape."""
    out = tmp_path / "r.csv"
    assert cli.main(["train-cqp", *argv, "--out", str(out)]) == 0
    want, want_stdout = out.read_bytes(), capsys.readouterr().out
    out.unlink()
    monkeypatch.setattr(cqp, "train", _raises)
    monkeypatch.setattr(cqp.TrainRecord, "_make", _raises)
    assert cli.main(["train-cqp", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == want
    assert capsys.readouterr().out == want_stdout


_CELLS = [
    (0.1, "0.10000000000000001"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (float("nan"), "nan"),
    (float("-inf"), "-inf"),
    (np.float64(-2.5e-17), "-2.4999999999999999e-17"),
    (np.float32(0.1), "0.10000000149011612"),
    (True, "1"),
    (np.bool_(False), "0"),
    (-3, "-3"),
    (np.int64(2 ** 62), "4611686018427387904"),
    (1 - 2j, "(1-2j)"),
    ("abc", "abc"),
]


def _format_row(row) -> str:
    """One report row by its own % template, the writer's per-row reference."""
    return cli._row_template(tuple(map(type, row))) % tuple(row)


@pytest.mark.parametrize("value, text", _CELLS)
def test_report_cell_format(value, text):
    assert _format_row((value,)) == text


def test_report_row_is_its_cells_joined(tmp_path):
    """A row of every cell kind, in both orders, is written as its cells'
    one-cell rows joined by commas, byte for byte."""
    row = [value for value, _ in _CELLS]
    out = tmp_path / "r.csv"
    cli._write_report(out, ["h"], [row, row[::-1], row], ["meta"])
    want = [",".join(_format_row((v,)) for v in r) for r in (row, row[::-1], row)]
    assert out.read_bytes() == "\n".join(["h", *want, "# meta"]).encode() + b"\n"
    assert want[0] == ",".join(text for _, text in _CELLS)


_RUNS = [  # rows whose cell types repeat, change and come back
    [0, 0.5, 0.25], [1, 0.125, -0.0], [np.int64(2), 0.5, 0.25], [3, np.float32(0.1), 1e300],
    [4, np.float32(0.2), np.float32(0.3)], [5, 0.5, 0.25], [True, "ok", 1.5], [False, "no", 2.5],
    ["x", 1, 2], ["y", np.int64(-3), 4], [6, 0.75, 0.5],
]


@pytest.mark.parametrize("payload", [
    _RUNS, _RUNS[:1], _RUNS[::-1], [_RUNS[0]] * 7, [_RUNS[0], _RUNS[2]] * 3, [],
    [[], [], [1]], [(0.5,), ("a",), (0.5,)],
], ids=["mixed", "one-row", "reversed", "one-run", "alternating", "empty", "no-cells",
        "one-cell"])
def test_report_runs_are_the_bytes_of_one_format_per_row(tmp_path, payload):
    """Each run of rows with the same cell types is one %, byte for byte the
    rows formatted one at a time: ints beside np.int64, floats beside
    np.float32, bools, strings, a row of no cells and an empty payload."""
    out = tmp_path / "r.csv"
    cli._write_report(out, ["a", "b", "c"], payload, ["meta"])
    want = "\n".join(["a,b,c", *map(_format_row, payload), "# meta"]) + "\n"
    assert out.read_bytes() == want.encode()


def test_writing_reports_keeps_no_spare_tuples(tmp_path):
    """A run's % arguments are built as a tuple of known length: a tuple of
    unknown length is built by resizing and, freed, goes to CPython's free
    list of its size, one more per report (up to 2000), which a process
    writing thousands of reports keeps as peak RSS."""
    out = tmp_path / "r.csv"
    # 15 cells: tuple() of an iterator first guesses 10, so it must resize
    payload = [[1000, 1, 519, 0.25, 0.5], [10000, 2, 5118, 0.125, 0.5], [7, 3, 2, 0.5, 0.5]]
    for _ in range(20):
        cli._write_report(out, ["a", "b", "c", "d", "e"], payload, ["meta"])
    before = sys.getallocatedblocks()
    for _ in range(1000):
        cli._write_report(out, ["a", "b", "c", "d", "e"], payload, ["meta"])
    assert sys.getallocatedblocks() - before < 100


@pytest.mark.parametrize("argv", [
    *(["gqft-distance", "--n", str(n), "--thetas", "0"] for n in (1, 2, 3, 4)),
    ["trotter-sweep", "--t", "0.000001", "--rs", "1000"],
    ["trotter-sweep", "--t", "0.001", "--rs", "1000000"],
])
def test_roundoff_above_a_tiny_bound_passes(tmp_path, argv):
    """At theta = 0 the distance bound is 0, and at tiny t the Trotter bound
    falls below the float error of the product formula; the checks allow
    for roundoff rather than failing correct output."""
    assert cli.main([*argv, "--out", str(tmp_path / "r.csv")]) == 0


def test_swap_concentration_is_a_chernoff_hoeffding_bound(tmp_path):
    """The check asserts shots * KL(zeros/shots || p0) <= 32.  At the n = 4
    seed one row's zero frequency is 4.1 standard deviations from p0
    (shots * KL = 8.5).  At the n = 1 seeds the one-shot row draws a one at
    p0 = 0.991 and 0.987, which an 8-sigma normal test failed; shots * KL is
    4.7 and 4.4."""
    for argv in (["--n", "4", "--seed", "2427"],
                 ["--n", "1", "--shots", "1,10,100", "--seed", "587"],
                 ["--n", "1", "--shots", "1,10,100", "--seed", "2782"]):
        assert cli.main(["swap-test", *argv, "--out", str(tmp_path / "r.csv")]) == 0, argv


def _decimal_kl(zeros: int, shots: int, p0: float) -> Decimal:
    """shots * KL(zeros/shots || p0) in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        p, q = Decimal(p0), Decimal(zeros) / shots
        terms = [a * (a / b).ln() for a, b in ((q, p), (1 - q, 1 - p)) if a]
        return shots * sum(terms, Decimal(0))


def _kl_edge_sampler(step: int, outside: bool):
    """A sampler that draws, from round(shots * p0) in direction step, the
    last zero count with shots * KL <= 32 (in 60-digit decimals), or the
    first count past it."""
    def sampled(psi, phi, shots, seed):
        p0 = simulator.swap_test_exact(psi, phi)
        zeros = round(shots * p0)
        while _decimal_kl(zeros + step, shots, p0) <= 32:
            zeros += step
        zeros += step if outside else 0
        return (simulator.ShotTally(shots, zeros, seed),
                math.sqrt(max(2.0 * zeros / shots - 1.0, 0.0)))
    return sampled


@pytest.mark.parametrize("step", [1, -1])
def test_swap_concentration_threshold_is_32(tmp_path, monkeypatch, step):
    """On each tail, the last zero count inside shots * KL = 32 passes and
    the first one past it fails."""
    out = tmp_path / "r.csv"
    for outside in (False, True):
        monkeypatch.setattr(simulator, "swap_test_sampled", _kl_edge_sampler(step, outside))
        assert cli.main(["swap-test", "--n", "2", "--shots", "1000,10000",
                         "--out", str(out)]) == (1 if outside else 0)


def test_swap_concentration_statistic_keeps_its_digits():
    """The two relative-entropy terms against a 60-digit sum, from one shot
    to 2^63 - 1, up to 12 standard deviations out and at the ends 0 and
    shots, where the float terms cancel to a few digits of the sum."""
    rng = np.random.default_rng(190)
    for shots in (1, 10, 1000, 10 ** 6, 10 ** 12, 10 ** 18, 2 ** 63 - 1):
        for p0 in (0.5, 0.75, 0.99, 1.0 - 2.0 ** -40):
            sigma = math.sqrt(p0 * (1.0 - p0) / shots)
            zs = {0, shots, *(min(max(int(shots * (p0 + z * sigma)), 0), shots)
                              for z in rng.uniform(-12.0, 12.0, 8))}
            for zeros in zs:
                got = shots * (cli._relative_entropy(zeros / shots, p0)
                               + cli._relative_entropy((shots - zeros) / shots, 1.0 - p0))
                want = float(_decimal_kl(zeros, shots, p0))
                assert abs(got - want) <= 1e-6 * max(want, 1.0), (shots, p0, zeros)


def test_cached_parser_carries_no_value_between_calls(tmp_path, capsys):
    built = cli._build_parser()
    out = tmp_path / "r.csv"
    assert cli.main(["verify-gqft", "--n", "3", "--thetas", "0.1", "--trials", "1",
                     "--out", str(out)]) == 0
    assert cli.main(["verify-gqft", "--n"]) == 2
    assert cli.main(["verify-gqft", "--out", str(out)]) == 0
    assert cli._build_parser() is built
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:] if not ln.startswith("#")]
    # the defaults: n = 2, five thetas, five trials each
    assert len(rows) == 25
    assert {row[1] for row in rows} == {"2"}
    capsys.readouterr()


def test_gqft_grid_is_one_eigendecomposition_per_seed(tmp_path, monkeypatch):
    calls = []
    real = linalg.hermitian_eigen
    monkeypatch.setattr(linalg, "hermitian_eigen", lambda h: calls.append(1) or real(h))
    out = tmp_path / "r.csv"
    assert cli.main(["verify-gqft", "--n", "3", "--trials", "3", "--thetas", "0.1,0.5,2",
                     "--seed", "7", "--out", str(out)]) == 0
    assert len(calls) == 3
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]
            if not line.startswith("#")]
    # theta-major: every seed of one theta before the next theta
    want = [(theta, seed) for theta in (0.1, 0.5, 2.0) for seed in (7, 8, 9)]
    assert [(float(r[0]), int(r[2])) for r in rows] == want
    for (theta, seed), row in zip(want, rows):
        axes = gqft.random_axes(3, np.random.default_rng(seed))
        rep = gqft.distance_report(gqft.GqftParams(3, theta, axes))
        assert int(row[1]) == 3
        np.testing.assert_allclose(
            [float(row[3]), float(row[4])],
            [rep.unitarity_defect, rep.max_column_factorization_error], rtol=0, atol=1e-14)


def test_gqft_grid_is_one_factored_pass_per_seed(tmp_path, monkeypatch):
    """Each axis draw makes one call of the factored kernel for its whole
    theta grid, with one axis_dot_sigma call for all its axes and one
    closed-form call for every 2x2 rotation of the grid, none per theta; its
    axes are checked once, not once per route."""
    calls = {"grid": 0, "sigma": 0, "involution": 0, "checks": 0}

    def counted(name, real):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or real(*args)
    monkeypatch.setattr(gqft, "_factored_grid", counted("grid", gqft._factored_grid))
    monkeypatch.setattr(gqft, "axis_dot_sigma", counted("sigma", gqft.axis_dot_sigma))
    monkeypatch.setattr(linalg, "expm_i_involution",
                        counted("involution", linalg.expm_i_involution))
    monkeypatch.setattr(gqft, "_checked_axes", counted("checks", gqft._checked_axes))
    assert cli.main(["verify-gqft", "--n", "3", "--trials", "3", "--thetas", "0.1,0.5,2",
                     "--out", str(tmp_path / "r.csv")]) == 0
    assert calls == {"grid": 3, "sigma": 3, "involution": 3, "checks": 3}


def _gqft_calls(command, tmp_path, monkeypatch):
    """Calls of the counted functions over one three-seed, three-theta run of
    a GQFT command."""
    calls = dict.fromkeys(("factored", "unitarity", "frobenius", "bound", "eigen", "checks"), 0)

    def counted(name, real):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or real(*args)
    monkeypatch.setattr(gqft, "_factored_grid", counted("factored", gqft._factored_grid))
    monkeypatch.setattr(linalg, "unitarity_defect",
                        counted("unitarity", linalg.unitarity_defect))
    # unitarity_defect's own norm is counted here too
    monkeypatch.setattr(linalg, "frobenius_norm", counted("frobenius", linalg.frobenius_norm))
    monkeypatch.setattr(gqft, "distance_bound", counted("bound", gqft.distance_bound))
    monkeypatch.setattr(linalg, "hermitian_eigen", counted("eigen", linalg.hermitian_eigen))
    monkeypatch.setattr(gqft, "_checked_axes", counted("checks", gqft._checked_axes))
    assert cli.main([command, "--n", "3", "--trials", "3", "--thetas", "0.1,0.5,2",
                     "--out", str(tmp_path / "r.csv")]) == 0
    return calls


def test_gqft_distance_runs_the_dense_route_alone(tmp_path, monkeypatch):
    """gqft-distance takes no factored pass and no unitarity defect: per seed
    one axes check, one eigendecomposition and one stacked distance; the bound
    once per theta for the CLI's overflow check and once per row."""
    assert _gqft_calls("gqft-distance", tmp_path, monkeypatch) == {
        "factored": 0, "unitarity": 0, "frobenius": 3, "bound": 3 + 9, "eigen": 3,
        "checks": 3}


def test_verify_gqft_takes_no_distance(tmp_path, monkeypatch):
    """verify-gqft's one norm per seed is its unitarity defect's, and its only
    bounds are the CLI's overflow check: it takes no distance to the standard
    transform.  Per seed one axes check, one eigendecomposition and one
    factored pass."""
    assert _gqft_calls("verify-gqft", tmp_path, monkeypatch) == {
        "factored": 3, "unitarity": 3, "frobenius": 3, "bound": 3, "eigen": 3, "checks": 3}


def test_report_keeps_the_bytes_of_an_undecodable_argv(tmp_path, capsys):
    """An argv token that is not valid in the filesystem encoding reaches
    main surrogate-escaped, as Python decodes argv; the report file is written
    under its bytes and its command line carries them back.  A path that
    cannot be written still exits 3.  Both messages print the byte as \\xff,
    so a strict stdout (as capsys's is) takes them."""
    out = tmp_path / os.fsdecode(b"r\xff.csv")
    assert cli.main(["omega-count", "--n", "1", "--out", str(tmp_path / "no" / out.name)]) == 3
    assert f"cannot write report {tmp_path}/no/r\\xff.csv: " in capsys.readouterr().err
    assert cli.main(["omega-count", "--n", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"OK wrote {tmp_path}/r\\xff.csv\n")
    assert os.listdir(os.fsencode(tmp_path)) == [b"r\xff.csv"]
    lines = out.read_bytes().splitlines()
    assert lines[0] == b"n,omega_parity_rule,omega_bruteforce"
    assert lines[-1] == (b"# command = cliffsim omega-count --n 1 --out "
                         + os.fsencode(tmp_path) + b"/r\xff.csv")


def test_trotter_sweep_is_one_stacked_pass(tmp_path, monkeypatch):
    """The whole r grid takes one blade build, one parity matrix, one
    eigendecomposition, one closed-form call for every (r, term) factor and
    one stacked SVD; the bounds are taken once for the finiteness check and
    once per r."""
    calls = dict.fromkeys(("blades", "parity", "eigen", "involution", "spectral", "bounds"), 0)

    def counted(name, real):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or real(*args)
    monkeypatch.setattr(trotter, "blade_products", counted("blades", trotter.blade_products))
    monkeypatch.setattr(trotter, "anticommutation_matrix",
                        counted("parity", trotter.anticommutation_matrix))
    monkeypatch.setattr(linalg, "hermitian_eigen", counted("eigen", linalg.hermitian_eigen))
    monkeypatch.setattr(linalg, "expm_i_involution",
                        counted("involution", linalg.expm_i_involution))
    monkeypatch.setattr(linalg, "spectral_norm", counted("spectral", linalg.spectral_norm))
    monkeypatch.setattr(trotter, "bounds", counted("bounds", trotter.bounds))
    assert cli.main(["trotter-sweep", "--n", "2", "--terms", "15",
                     "--out", str(tmp_path / "r.csv")]) == 0
    assert calls == {"blades": 1, "parity": 1, "eigen": 1, "involution": 1, "spectral": 1,
                     "bounds": 11}


def test_equivalence_is_one_stacked_pass_per_block(tmp_path, monkeypatch):
    """2 * block + 1 trials take three blocks: per block one expm_i call, one
    encode call per side and one forward call per pass."""
    calls = dict.fromkeys(("expm_i", "encode", "forward"), 0)

    def counted(name, real):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or real(*args)
    monkeypatch.setattr(linalg, "expm_i", counted("expm_i", linalg.expm_i))
    monkeypatch.setattr(cqp, "encode", counted("encode", cqp.encode))
    monkeypatch.setattr(cqp, "forward", counted("forward", cqp.forward))
    out = tmp_path / "r.csv"
    trials = 2 * cli._EQUIVALENCE_BLOCK + 1
    assert cli.main(["equivalence", "--n", "1", "--trials", str(trials), "--out", str(out)]) == 0
    assert calls == {"expm_i": 3, "encode": 6, "forward": 6}
    assert len(out.read_text().splitlines()) == 1 + trials + 3  # header, rows, metadata


@pytest.mark.parametrize("n", [1, 2, 3])
def test_equivalence_blocks_equal_the_one_trial_route(n):
    """Across a block boundary, each trial of the stacked pass has the bits of
    the one-trial route: random_unitary, then x, then w from the seed's
    generator, and equivalence_defects on that one trial."""
    config = cqp.PerceptronConfig.type_ii(n)
    seeds = range(11, 11 + cli._EQUIVALENCE_BLOCK + 1)
    sizes = []
    for block, us, xs, ws in cli._equivalence_blocks(n, seeds):
        phis, states = cqp.equivalence_defects(config, us, xs, ws)
        for i, seed in enumerate(block):
            rng = np.random.default_rng(seed)
            u = linalg.random_unitary(2 ** n, rng)
            x, w = rng.uniform(-1.0, 1.0, 2 * n), rng.uniform(-1.0, 1.0, 2 * n)
            assert np.array_equal(us[i], u)
            assert np.array_equal(xs[i], x) and np.array_equal(ws[i], w)
            assert (phis[i], states[i]) == cqp.equivalence_defects(config, u, x, w)
        sizes.append(len(block))
    assert sizes == [cli._EQUIVALENCE_BLOCK, 1]


def test_equivalence_pass_memory_does_not_grow_with_trials():
    """Peak traced memory of the pass at four blocks of trials stays close to
    its peak at one block: one block of inputs is alive at a time."""
    config = cqp.PerceptronConfig.type_ii(3)

    def peak(trials):
        tracemalloc.start()
        try:
            for _, us, xs, ws in cli._equivalence_blocks(3, range(trials)):
                cqp.equivalence_defects(config, us, xs, ws)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(cli._EQUIVALENCE_BLOCK)  # warm caches outside the measurement
    one, four = peak(cli._EQUIVALENCE_BLOCK), peak(4 * cli._EQUIVALENCE_BLOCK)
    assert four <= 1.5 * one


def test_decompose_netlist_sections(tmp_path):
    out = tmp_path / "netlist.txt"
    assert _run("decompose", out) == 0
    lines = out.read_text().splitlines()
    assert any(ln.startswith("# two-level factors") for ln in lines)
    assert any(ln.startswith("# compiled circuit") for ln in lines)
    assert any(ln.startswith("twolevel ") for ln in lines)


def test_train_cqp_reaches_target_by_default(tmp_path):
    out = tmp_path / "train.csv"
    assert cli.main(["train-cqp", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    fid = [float(ln.split(",")[1]) for ln in rows[1:] if not ln.startswith("#")]
    assert fid[-1] >= 0.99
    assert all(b >= a - 1e-12 for a, b in zip(fid, fid[1:]))


@pytest.mark.parametrize("activation", ["identity", "clamp", "relu"])
def test_train_cqp_accepts_tanh_alone(tmp_path, capsys, activation):
    """identity reaches |v| = 1, where arccos's slope is unbounded, so
    train-monotone cannot hold; every kind but tanh is an invalid config."""
    out = tmp_path / "r.csv"
    assert cli.main(["train-cqp", "--activation", activation, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "ERROR invalid config: activation: must be tanh: identity reaches |v| = 1, where "
        "the slope of arccos is unbounded, so train-monotone cannot hold\n")
    assert not out.exists()


def test_train_cqp_refuses_an_unreachable_fidelity(tmp_path, capsys):
    """At beta = 0 no weights pass F* = tanh 1 < 0.99, so the default
    --require-fidelity is an invalid config, with no report; tanh 1 itself
    is reachable."""
    out = tmp_path / "r.csv"
    assert cli.main(["train-cqp", "--beta", "0", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"ERROR invalid config: require_fidelity: 0.99 exceeds F*(beta) = {math.tanh(1.0)!r}, "
        f"the largest fidelity any weights reach at beta = 0.0\n")
    assert not out.exists()
    assert cli.main(["train-cqp", "--beta", "0", "--require-fidelity", repr(math.tanh(1.0)),
                     "--out", str(out)]) == 0


def _scorer_past_f_star(real):
    """The scorer mutant whose fidelities, theta's and each neighbour's, are
    1.05 times the real ones, capped at 1."""
    def scorer(cfg, smp):
        b, centre, fidelity = real(cfg, smp)

        def centre_past(theta):
            f, norm, dot = centre(theta)
            return min(1.05 * f, 1.0), norm, dot
        return b, centre_past, lambda r, d: min(1.05 * fidelity(r, d), 1.0)
    return scorer


def test_train_fidelity_bound_names_the_first_row_past_f_star(tmp_path, capsys, monkeypatch):
    """At beta = 0, F* = tanh 1 < 1, and the x1.05 scorer mutant passes it: the
    run exits 1 naming the first record past F* plus 4 ulps of 1, with no
    report.  Unpatched, the same argv passes, and its summary line (never the
    report) gives F* and F* - final."""
    argv = ["train-cqp", "--beta", "0", "--require-fidelity", "0"]
    out = tmp_path / "r.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    final = float(out.read_text().splitlines()[-4].split(",")[1])
    best = math.tanh(1.0)
    assert capsys.readouterr().out == (
        f"train-cqp: n=1, 500 iterations, fidelity 0.714805 -> {final:.6f}, "
        f"F* {best:.6f}, F* - final {best - final:.3e}\nOK wrote {out}\n")
    assert "F*" not in out.read_text()
    out.unlink()

    seen = []
    real_ascent = cqp.ascent

    def recording_ascent(*args):
        thetas, seen[:] = real_ascent(*args)
        return thetas, seen

    monkeypatch.setattr(cqp, "_fidelity_scorer", _scorer_past_f_star(cqp._fidelity_scorer))
    monkeypatch.setattr(cqp, "ascent", recording_ascent)
    assert cli.main([*argv, "--out", str(out)]) == 1
    k, fid = next((k, f) for k, f in enumerate(seen) if f > best + cqp.MAX_FIDELITY_SLACK)
    assert capsys.readouterr().out == (
        f"FAIL train-fidelity-bound (iteration {k}: fidelity {fid!r} "
        f"exceeds F*(beta) = {best!r})\n")
    assert not out.exists()
    # at the default beta F* = 1, which the capped mutant cannot pass
    assert cli.main(["train-cqp", "--out", str(out)]) == 0


def test_train_cqp_activation_tanh_is_the_default_run(tmp_path):
    default, tanh = tmp_path / "default.csv", tmp_path / "tanh.csv"
    assert cli.main(["train-cqp", "--out", str(default)]) == 0
    assert cli.main(["train-cqp", "--activation", "tanh", "--out", str(tanh)]) == 0
    rows = [[ln for ln in p.read_text().splitlines() if not ln.startswith("#")]
            for p in (default, tanh)]
    assert len(rows[0]) == 502 and rows[0] == rows[1]


def test_train_cqp_survives_a_huge_learning_rate(tmp_path, capsys):
    """At eta = 1e290 the first step takes the weights to ~1e289, where
    theta_j +- fd_step == theta_j: the next iteration's differences would all
    be zero, so training stops there as an invalid config, with no report."""
    out = tmp_path / "r.csv"
    assert cli.main(["train-cqp", "--eta", "1e290", "--iterations", "3",
                     "--require-fidelity", "0", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR invalid config: fd_step 1e-05 is below the float resolution")
    assert err.endswith("iteration 1\n")
    assert not out.exists()


def test_weight_bound_overflow_names_fd_step(tmp_path, capsys):
    # eta stays at its default: the tiny step alone overflows the bound
    assert cli.main(["train-cqp", "--fd-step", "1e-320",
                     "--out", str(tmp_path / "r.csv")]) == 3
    assert "fd_step" in capsys.readouterr().err


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["omega-count", "--n", "1"]) == 0
    assert (tmp_path / "omega-count.csv").exists()
