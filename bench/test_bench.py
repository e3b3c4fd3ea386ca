"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import gate
import run
from tracer import Tracer
from workloads import WORKLOADS

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture
def runner(cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return run.Runner(cli)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_job_list(name):
    w = WORKLOADS[name]
    first = [w.job(7, i).argv for i in range(40)]
    assert first == [w.job(7, i).argv for i in range(40)]
    assert first != [w.job(8, i).argv for i in range(40)]


def _bindings(cli):
    """Every (owner, attribute) -> value the tracer may rebind."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "cliffsim" or mod_name.startswith("cliffsim."):
            for attr, value in vars(mod).items():
                out[(mod_name, attr)] = value
                if isinstance(value, type):
                    for member, v in vars(value).items():
                        out[(mod_name, attr, member)] = v
    return out


def test_tracer_wraps_every_binding_and_restores_the_originals(cli):
    import cliffsim
    from cliffsim import cqp, gqft, linalg, simulator

    before = _bindings(cli)
    original_basis_state = simulator.basis_state
    tracer = Tracer()
    with tracer:
        # rebinding reaches modules that imported the function by name
        assert cqp.basis_state is simulator.basis_state is gqft.basis_state
        assert cliffsim.basis_state is simulator.basis_state
        assert simulator.basis_state is not original_basis_state
        tracer.begin_job(0)
        linalg.expm_i(linalg.tensor([[0, 1], [1, 0]], [[1, 0], [0, -1]]))
        with pytest.raises(ValueError):
            linalg.expm_i([[0, 1], [0, 0]])
    after = _bindings(cli)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    summary = tracer.summarize(0, tracer.span_count())
    assert summary["linalg.expm_i"]["calls"] == 2
    assert summary["linalg.expm_i"]["errors"] == 1
    assert summary["linalg.hermitian_eigen"]["calls"] == 1
    assert all(v["self_s"] >= 0.0 for v in summary.values())
    assert tracer.eigen_summary(0, tracer.span_count())["calls_d4"] == 1


def test_tracer_keeps_its_own_time_out_of_self_times(cli, monkeypatch):
    from cliffsim import linalg

    tracer = Tracer()
    observe = tracer._observe_eigen

    def slow_observe(sid, h):
        observe(sid, h)
        time.sleep(0.05)

    monkeypatch.setattr(tracer, "_observe_eigen", slow_observe)
    with tracer:
        tracer.begin_job(0)
        linalg.expm_i([[0, 1], [1, 0]])
    summary = tracer.summarize(0, tracer.span_count())
    assert summary["linalg.expm_i"]["self_s"] < 0.05
    assert summary["linalg.hermitian_eigen"]["calls"] == 1


def test_calibration_helper_answers_and_stops():
    with run.Calibrator() as calibrate:
        assert 0.0 < calibrate() < 1.0
        proc = calibrate.proc
    assert proc.returncode == 0


def test_traced_counts_repeat_exactly(runner):
    w = WORKLOADS["light-checks"]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            for i in range(len(w.cycle)):
                tracer.begin_job(i)
                assert runner.run(w.job(3, i)).failure is None
        hi = tracer.span_count()
        summary = tracer.summarize(0, hi)
        counts.append(({k: (v["calls"], v["errors"]) for k, v in summary.items()},
                       tracer.eigen_summary(0, hi)))
    assert counts[0] == counts[1]
    assert counts[0][0]["cli.main"] == (len(w.cycle), 0)


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.per_layer_units()
    names = [*declared_e2e, *declared_layer, *(w["name"] for w in spec["workloads"])]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def _job_and_report(runner, name, command):
    w = WORKLOADS[name]
    job = next(w.job(5, i) for i in range(len(w.cycle)) if w.job(5, i).command == command)
    res = runner.run(job)
    assert res.failure is None, res.failure
    out = "report.txt" if command == "decompose" else "report.csv"
    return [*job.argv, "--out", out], res.report, f"OK wrote {out}\n"


def _replace_cell(text, row, col, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("tamper", [
    lambda t: _replace_cell(t, 3, 2, "1e3"),                     # measured_error above bound_full
    lambda t: "\n".join(l for i, l in enumerate(t.splitlines()) if i != 4) + "\n",  # row dropped
    lambda t: t.replace("bound_commutator,", "", 1),              # column dropped
    lambda t: _replace_cell(t, 2, 6, "59"),                       # omega changed
])
def test_gate_rejects_tampered_trotter_report(runner, tamper):
    argv, text, stdout = _job_and_report(runner, "light-checks", "trotter-sweep")
    gate.check_job(argv, 0, stdout, text, reference=text)
    with pytest.raises(gate.GateFailure):
        gate.check_job(argv, 0, stdout, tamper(text))


def test_gate_rejects_failed_runs_and_reference_drift(runner):
    argv, text, stdout = _job_and_report(runner, "cqp-train", "train-cqp")
    with pytest.raises(gate.GateFailure):
        gate.check_job(argv, 1, "FAIL train-converged (x)\n", text)
    with pytest.raises(gate.GateFailure):
        gate.check_job(argv, 0, stdout, None)
    # a fidelity that falls between iterations breaks the report's own claim
    lines = text.splitlines()
    fid = float(lines[29].split(",")[1])
    with pytest.raises(gate.GateFailure, match="monotone"):
        gate.check_job(argv, 0, stdout, _replace_cell(text, 30, 1, repr(fid - 1e-3)))
    # drift beyond ATOL from the reference fails; drift within it passes
    theta = float(lines[40].split(",")[2])
    for shift, ok in ((gate.ATOL / 4, True), (gate.ATOL * 4, False)):
        moved = _replace_cell(text, 40, 2, repr(theta + shift))
        if ok:
            gate.check_job(argv, 0, stdout, moved, reference=text)
        else:
            with pytest.raises(gate.GateFailure, match="reference"):
                gate.check_job(argv, 0, stdout, moved, reference=text)


def _negate_block(line):
    head, entries = line.split(" block ")
    return head + " block " + " ".join(repr(-complex(e)) for e in entries.split())


def test_gate_rechecks_decompose_netlist(runner):
    argv, text, stdout = _job_and_report(runner, "light-checks", "decompose")
    gate.check_job(argv, 0, stdout, text)
    lines = text.splitlines()
    for prefix in ("twolevel", "cu "):
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        tampered = lines[:i] + [_negate_block(lines[i])] + lines[i + 1:]
        with pytest.raises(gate.GateFailure, match="reconstruct|reproduce"):
            gate.check_job(argv, 0, stdout, "\n".join(tampered) + "\n")


def test_reference_files_match_the_job_lists():
    for name, w in WORKLOADS.items():
        jobs = run.load_references(name)
        assert len(jobs) == w.pass_jobs
        assert [j["argv"] for j in jobs] == [list(w.job(run.DEFAULT_SEED, i).argv)
                                            for i in range(w.pass_jobs)]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "light-checks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
