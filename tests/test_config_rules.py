"""One argv for each rule an invalid config can break: each exits 3, prints
exactly its ERROR invalid config line on stderr and writes no report."""
import pytest

from cliffsim import cli

_SEED_END = 2 ** 64


def _values(value, count):
    return ",".join([value] * count)


_RULES = [
    (["omega-count", "--config", "bogus.cfg"], "unknown config key 'bogus' for omega-count"),
    (["trotter-sweep", "--rs", "ten"],
     "bad value for 'rs': 'ten' (invalid literal for int() with base 10: 'ten')"),
    (["omega-count", "--seed", "-1"], f"seed: must be in 0..{_SEED_END - 1}"),
    (["omega-count", "--seed", str(_SEED_END)], f"seed: must be in 0..{_SEED_END - 1}"),
    (["omega-count", "--n", "5"], "n: must be in 1..4"),
    (["verify-gqft", "--n", "1", "--trials", "1001"], "trials: at most 1000, got 1001"),
    (["equivalence", "--n", "1", "--trials", "1001"], "trials: at most 1000, got 1001"),
    (["gqft-distance", "--n", "1", "--trials", "1", "--thetas", _values("0.5", 101)],
     "thetas: at most 100 values, got 101"),
    (["swap-test", "--n", "1", "--shots", _values("10", 1001)],
     "shots: at most 1000 values, got 1001"),
    (["trotter-sweep", "--n", "1", "--terms", "1", "--rs", _values("1", 101)],
     "rs: at most 100 values, got 101"),
    (["train-cqp", "--iterations", "20001"], "iterations: at most 20000, got 20001"),
    (["verify-gqft", "--n", "1", "--trials", "2", "--seed", str(_SEED_END - 1)],
     f"seed: the derived seeds run to {_SEED_END}, past 2^64 - 1"),
    (["equivalence", "--n", "1", "--trials", "2", "--seed", str(_SEED_END - 1)],
     f"seed: the derived seeds run to {_SEED_END}, past 2^64 - 1"),
    (["swap-test", "--n", "1", "--shots", "10,10", "--seed", str(_SEED_END - 2)],
     f"seed: the derived seeds run to {_SEED_END}, past 2^64 - 1"),
    (["verify-gqft", "--trials", "0"], "trials: must be in 1..1000"),
    (["gqft-distance", "--thetas=-1"], "thetas: must be 1..100 values, each in [0, inf)"),
    (["gqft-distance", "--n", "4", "--thetas", "400"],
     "thetas: too large: the distance bound overflows at n=4"),
    (["trotter-sweep", "--n", "1", "--terms", "4"], "terms: must be in 1..4^n-1"),
    (["trotter-sweep", "--rs", "0"], "rs: must be 1..100 values, each in 1..1000000"),
    (["trotter-sweep", "--t", "1e308"], "t, rs: must keep every Trotter bound finite"),
    (["swap-test", "--shots", "0"],
     f"shots: must be 1..1000 values, each in 1..{2 ** 63 - 1}"),
    (["train-cqp", "--beta", "nan"], "beta: must be in (-inf, inf)"),
    (["train-cqp", "--eta", "0"], "eta: must be in (0, inf)"),
    (["train-cqp", "--fd-step", "0.5"], "fd_step: must be in (0, 0.01)"),
    (["train-cqp", "--iterations", "0"], "iterations: must be in 1..20000"),
    (["train-cqp", "--fd-step", "1e-320"],
     "eta, fd_step: eta / fd_step too large: the weight bound overflows"),
    (["train-cqp", "--n", "1", "--output-index", "2"], "output_index: must be in 0..2n-1"),
    (["train-cqp", "--require-fidelity", "1.5"], "require_fidelity: must be in [0, 1]"),
    (["train-cqp", "--activation", "identity"],
     "activation: must be tanh: identity reaches |v| = 1, where the slope of arccos is "
     "unbounded, so train-monotone cannot hold"),
    (["train-cqp", "--beta", "0"],
     "require_fidelity: 0.99 exceeds F*(beta) = 0.7615941559557649, the largest fidelity "
     "any weights reach at beta = 0.0"),
    # cqp.ascent's guard: the first step carries theta past the resolution of fd_step
    (["train-cqp", "--eta", "1e290", "--iterations", "3", "--require-fidelity", "0"],
     "fd_step 1e-05 is below the float resolution of max(|theta_j|, 1) at component 0 of "
     "theta (-2.6035828010750886e+289), iteration 1"),
    (["equivalence", "--trials", "0"], "trials: must be in 1..1000"),
    (["decompose", "--theta1", "inf"], "theta1: must be in (-inf, inf)"),
    (["decompose", "--theta1=1.7e308", "--theta2=1.7e308"],
     "theta1, theta2: |theta1| + |theta2| must be finite"),
]


@pytest.mark.parametrize("argv, message", _RULES)
def test_each_config_rule_names_itself(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)  # a report under its default name would land here
    (tmp_path / "bogus.cfg").write_text("bogus = 1\n")
    assert cli.main([*argv, "--out", "r.csv"]) == 3
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == f"ERROR invalid config: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["bogus.cfg"]
