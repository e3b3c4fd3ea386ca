"""Perceptron encode/forward/train tests with closed-form oracles."""
import math
import re

import numpy as np
import pytest

from cliffsim import cqp, linalg, simulator
from cliffsim.clifford import REGISTER_SIZES, Blade, blade_products
from cliffsim.cqp import Activation, PerceptronConfig, TrainingSample


def _generator_blades(n):
    """The 2n generators on n qubits, in order, built here as the oracle."""
    return [Blade(n, (a,)) for a in range(2 * n)]


def test_encode_zero_coeffs_is_ground_state():
    config = PerceptronConfig.type_ii(2)
    np.testing.assert_allclose(
        cqp.encode(config, np.zeros(4)), simulator.basis_state(2, 0), atol=1e-14)


def test_encode_single_qubit_closed_form():
    config = PerceptronConfig.type_ii(1)
    alpha = 0.43
    got = cqp.encode(config, [alpha, 0.0])
    want = np.array([np.cos(alpha), 1j * np.sin(alpha)])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_encode_single_blade_matches_expm():
    config = PerceptronConfig.type_ii(2)
    c = 0.77
    want = linalg.expm_i(Blade(2, (3,)).dense(), c) @ simulator.basis_state(2, 0)
    np.testing.assert_allclose(cqp.encode(config, [0.0, 0.0, 0.0, c]), want, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_type_ii_encode_matches_expm_i_route(n):
    config = PerceptronConfig.type_ii(n)
    rng = np.random.default_rng(60 + n)
    for c in [np.zeros(2 * n), *rng.uniform(-2.0, 2.0, size=(5, 2 * n))]:
        h = sum(cj * b.dense() for cj, b in zip(c, _generator_blades(n)))
        want = linalg.expm_i(h) @ simulator.basis_state(n, 0)
        np.testing.assert_allclose(cqp.encode(config, c), want, atol=1e-12)


_STACK_CONFIGS = [
    *(PerceptronConfig.type_ii(n) for n in (1, 2, 3)),
    PerceptronConfig.type_ii(2, output_index=3),
    PerceptronConfig.type_ii(3, output_index=5),
]


@pytest.mark.parametrize("config", _STACK_CONFIGS)
def test_stacked_encode_and_forward_equal_per_row_calls(config):
    m = 2 * config.n
    rng = np.random.default_rng(80 + m)
    coeffs = rng.uniform(-2.0, 2.0, size=(2, 3, m))
    coeffs[1, 2] = 0.0  # a zero row inside the stack gives |0..0>
    states = cqp.encode(config, coeffs)
    assert states.shape == (2, 3, 2 ** config.n)
    x = cqp.encode(config, rng.uniform(-2.0, 2.0, m))
    phis, ys = cqp.forward(config, x, states)
    assert phis.shape == (2, 3) and ys.shape == states.shape
    for idx in np.ndindex(2, 3):
        row = cqp.encode(config, coeffs[idx])
        np.testing.assert_allclose(states[idx], row, rtol=0, atol=1e-14)
        phi, y = cqp.forward(config, x, row)
        assert abs(phis[idx] - phi) <= 1e-14
        np.testing.assert_allclose(ys[idx], y, rtol=0, atol=1e-14)
    np.testing.assert_allclose(states[1, 2], simulator.basis_state(config.n, 0), atol=0)


@pytest.mark.parametrize("config", [_STACK_CONFIGS[1], _STACK_CONFIGS[-1]])
def test_stack_with_one_non_finite_row_raises(config):
    coeffs = np.zeros((3, 2 * config.n))
    coeffs[1, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        cqp.encode(config, coeffs)


@pytest.mark.parametrize("config", _STACK_CONFIGS[:3])
def test_forward_pairs_stacked_rows_bit_for_bit(config):
    """forward pairs x (..., d) with w (..., d) row by row, broadcasting; each
    pair has the bits of its own one-row call."""
    m, d = 2 * config.n, 2 ** config.n
    rng = np.random.default_rng(140 + m)
    xs = cqp.encode(config, rng.uniform(-1.0, 1.0, (2, 3, m)))
    ws = cqp.encode(config, rng.uniform(-1.0, 1.0, (3, m)))  # broadcasts against xs
    for x, w in ((xs, ws), (xs[0, 0], ws), (xs, ws[0])):
        phis, ys = cqp.forward(config, x, w)
        shape = np.broadcast_shapes(x.shape, w.shape)
        assert phis.shape == shape[:-1] and ys.shape == shape
        for idx in np.ndindex(shape[:-1]):
            phi, y = cqp.forward(config, np.broadcast_to(x, shape)[idx],
                                 np.broadcast_to(w, shape)[idx])
            assert phis[idx] == phi and np.array_equal(ys[idx], y)
    for bad in (np.zeros((3, 2 * d), dtype=complex), np.complex128(1.0)):
        with pytest.raises(ValueError, match="states of one length d"):
            cqp.forward(config, xs, bad)
        with pytest.raises(ValueError, match="states of one length d"):
            cqp.forward(config, bad, xs)


def test_fidelity_scorer_takes_one_input_state():
    config = PerceptronConfig.type_ii(1)
    sample = TrainingSample(np.zeros((2, 2)), 0.7)  # two input rows
    with pytest.raises(ValueError, match="one state"):
        cqp._fidelity_scorer(config, sample)


def test_encode_does_not_overflow_the_norm():
    config = PerceptronConfig.type_ii(1)
    c = np.array([1e200, 1e200])
    got = cqp.encode(config, c)
    assert np.isfinite(got).all()
    assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-14)
    norm = math.hypot(*c)
    column = sum(cj / norm * b.dense()[:, 0] for cj, b in zip(c, _generator_blades(1)))
    want = math.cos(norm) * simulator.basis_state(1, 0) + 1j * math.sin(norm) * column
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("activation", list(Activation))
def test_nan_weight_row_fails_the_activation_guard(activation):
    config = PerceptronConfig.type_ii(1, activation=activation)
    x = simulator.basis_state(1, 0)
    for w in (np.array([np.nan, 0j]), np.array([x, [np.nan, 0j]])):
        with pytest.raises(ValueError, match="activation output nan is outside"):
            cqp.forward(config, x, w)


@pytest.mark.parametrize("config", [_STACK_CONFIGS[0], _STACK_CONFIGS[3]])
def test_encode_rejects_an_overflowing_norm(config):
    coeffs = np.zeros((2, 2 * config.n))
    coeffs[1, :2] = 1.5e308  # finite coefficients whose norm is not
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="norm overflows"):
        cqp.encode(config, coeffs)
    coeffs[1, 0] = np.inf
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
        cqp.encode(config, coeffs)


_ANGLES = [0.0, np.pi, -np.pi, 1e6, -0.7, np.array([0.0, np.pi, -np.pi, 1e6, -0.7])]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_in_place_rotation_equals_the_two_term_formula(n):
    e0 = simulator.basis_state(n, 0)
    columns = [Blade(n, (a,)).dense()[:, 0] for a in range(2 * n)]
    for col in [*columns, np.stack(columns[:1] * 5)]:  # a stack of 5 columns too
        for angle in _ANGLES:
            a = np.asarray(angle)[..., None]
            want = np.cos(a) * e0 + 1j * np.sin(a) * col
            assert np.array_equal(cqp._rotate_ground(1j * col, angle), want)


def test_encode_equals_the_two_term_formula():
    rng = np.random.default_rng(120)
    for n in (1, 2, 3):
        config = PerceptronConfig.type_ii(n)
        e0 = simulator.basis_state(n, 0)
        columns = blade_products(n, _generator_blades(n))[:, :, 0]
        for norm in _ANGLES:
            unit = rng.normal(size=np.shape(norm) + (2 * n,))
            unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
            a = np.asarray(norm)[..., None]
            want = np.cos(a) * e0 + 1j * np.sin(a) * (unit @ columns)
            got = cqp._rotate_ground(unit @ cqp._I_COLUMNS[n], norm)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("config", [
    *(PerceptronConfig.type_ii(n) for n in (1, 2, 3, 4)), *_STACK_CONFIGS[3:]])
def test_blade_stack_equals_the_stacked_blade_matrices(config):
    generators = _generator_blades(config.n)
    want = np.stack([b.dense() for b in generators])
    assert np.array_equal(blade_products(config.n, generators), want)


def test_i_blade_columns_are_i_times_column_0_of_each_generator():
    """The column table of n qubits is i * B_a|0..0> stacked over the 2n
    generators a, bit for bit column 0 of each blade's own dense matrix, a
    row of the blade basis, which is built apart from the table."""
    for n in (1, 2, 3, 4):
        want = np.stack([1j * Blade(n, (a,)).dense()[:, 0] for a in range(2 * n)])
        assert cqp._I_COLUMNS[n].dtype == want.dtype
        assert cqp._I_COLUMNS[n].shape == want.shape == (2 * n, 2 ** n)
        assert cqp._I_COLUMNS[n].tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_forward_and_target_state_equal_the_dense_column_route(n):
    """At every output index, forward's output states and target_state have
    the bytes of the rotation of i times the output blade's dense column 0."""
    rng = np.random.default_rng(190 + n)
    for k in range(2 * n):
        config = PerceptronConfig.type_ii(n, k)
        icol = 1j * Blade(n, (k,)).dense()[:, 0]
        x = cqp.encode(config, rng.uniform(-1.0, 1.0, 2 * n))
        ws = cqp.encode(config, rng.uniform(-1.0, 1.0, (3, 2 * n)))
        phis, ys = cqp.forward(config, x, ws)
        assert ys.tobytes() == cqp._rotate_ground(icol, phis).tobytes()
        for angle in (0.0, 0.7, -2.3, math.pi, 1e6):
            want = cqp._rotate_ground(icol, -angle)
            assert cqp.target_state(config, angle).tobytes() == want.tobytes()


def test_activation_apply_is_elementwise():
    u = np.array([[-3.0, -0.5], [0.0, 2.5]])
    for act in Activation:
        got = act.apply(u)
        assert got.shape == u.shape
        for idx in np.ndindex(u.shape):
            assert got[idx] == act.apply(u[idx])


def _ordered(v: float) -> int:
    """The double v as an integer that counts doubles in order; -0.0 is 0."""
    i = int(np.float64(v).view(np.int64))
    return i if i >= 0 else -(i & (2 ** 63 - 1))


def test_float_form_matches_apply():
    """tanh's float form is math.tanh, within 4 ulps of np.tanh."""
    rng = np.random.default_rng(160)
    edges = [0.0, -0.0, 1.0, -1.0, *np.nextafter([1.0, -1.0, 1.0, -1.0], [2, -2, 0, 0]).tolist(),
             1.5, -1.5, 20.0, -20.0, 1e300, -1e300, math.inf, -math.inf, 5e-324, -5e-324]
    grid = [*edges, *rng.uniform(-1.5, 1.5, 5000).tolist(), *rng.uniform(-30.0, 30.0, 1000).tolist()]
    for act in Activation:
        for u in grid:
            got, want = act.float_form(u), float(act.apply(u))
            assert type(got) is float
            assert abs(_ordered(got) - _ordered(want)) <= 4, u
        assert math.isnan(act.float_form(math.nan)) and math.isnan(act.apply(math.nan))


def test_encode_generates_entanglement():
    config = PerceptronConfig.type_ii(2)
    state = cqp.encode(config, [0.3, 0.7, 0.1, 0.5])
    assert simulator.entanglement_entropy(state, 1) > 1e-3


def test_encode_rejects_bad_coeffs():
    config = PerceptronConfig.type_ii(1)
    with pytest.raises(ValueError):
        cqp.encode(config, [0.1])
    with pytest.raises(ValueError):
        cqp.encode(config, [np.nan, 0.0])
    for bad in (np.zeros((3, 3)), 0.5):  # rows of the wrong length, or no row
        with pytest.raises(ValueError, match="coefficients per row"):
            cqp.encode(config, bad)


def test_config_validation():
    assert PerceptronConfig._fields == ("n", "output_index", "activation", "eta")
    for n in (1, 2, 3):
        for k in (-1, 2 * n, 4 ** n - 1):  # 4^n - 1 blades, but 2n generators
            with pytest.raises(ValueError, match=rf"^output_index {k} out of range "
                                                 rf"0\.\.{2 * n - 1}$"):
                PerceptronConfig.type_ii(n, k)
    # a list of blades, a float, a string and None are not integers
    for bad in ([Blade(1, (0,)), Blade(1, (1,))], 1.0, "0", None):
        with pytest.raises(TypeError):
            PerceptronConfig(1, bad)
    config = PerceptronConfig.type_ii(2, np.int64(3))
    assert type(config.output_index) is int and config.output_index == 3
    for n in (0, 5):
        with pytest.raises(ValueError, match="need 1 <= n <= 4"):
            PerceptronConfig.type_ii(n)
    for eta in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="need eta > 0"):
            PerceptronConfig.type_ii(1, eta=eta)


def test_forward_identical_states():
    # Re<x|x> = 1 gives the smallest angle, arccos(tanh 1)
    config = PerceptronConfig.type_ii(1)
    x = cqp.encode(config, [0.2, 0.1])
    phi, y = cqp.forward(config, x, x)
    want = math.acos(math.tanh(1.0))
    assert phi == pytest.approx(want, abs=1e-12)
    np.testing.assert_allclose(y, [math.cos(want), 1j * math.sin(want)], atol=1e-12)


def test_forward_orthogonal_states():
    phi, _ = cqp.forward(PerceptronConfig.type_ii(1), simulator.basis_state(1, 0),
                         simulator.basis_state(1, 1))
    assert phi == pytest.approx(np.pi / 2, abs=1e-12)


def test_forward_output_rotation_closed_form():
    # phi = pi/3 about the X generator
    w = simulator.basis_state(1, 0)
    v = math.atanh(0.5)
    x = np.array([v, math.sqrt(1.0 - v * v) * 1j])  # Re<x|w> = atanh(0.5)
    phi, y = cqp.forward(PerceptronConfig.type_ii(1), x, w)
    assert phi == pytest.approx(np.pi / 3, abs=1e-12)
    np.testing.assert_allclose(
        y, [np.cos(np.pi / 3), 1j * np.sin(np.pi / 3)], atol=1e-12)
    want = linalg.expm_i(Blade(1, (0,)).dense(), phi) @ simulator.basis_state(1, 0)
    np.testing.assert_allclose(y, want, atol=1e-12)


def test_fidelity_angle_law_zero_expectation_blade():
    config = PerceptronConfig.type_ii(1)
    blade = Blade(1, (0,))
    for phi in np.linspace(0.0, np.pi, 5):
        for beta in np.linspace(-1.0, 2.5, 4):
            y = linalg.expm_i(blade.dense(), phi) @ simulator.basis_state(1, 0)
            got = cqp.fidelity(config, y, beta)
            assert got == pytest.approx(abs(np.cos(phi + beta)), abs=1e-10)


def test_max_fidelity_exact_values():
    assert cqp.max_fidelity(0.0) == math.tanh(1.0)
    assert cqp.max_fidelity(math.pi) == math.tanh(1.0)  # cos(pi) is exactly -1
    assert cqp.max_fidelity(math.pi / 3) == 1.0


def test_max_fidelity_matches_a_grid_over_the_reachable_angles():
    """F*(beta) against max |cos(phi + beta)| over a fine grid of
    phi in [arccos(tanh 1), pi - arccos(tanh 1)], ends included."""
    lo = math.acos(math.tanh(1.0))
    phis = np.linspace(lo, math.pi - lo, 20001)
    for beta in np.linspace(-4.0, 4.0, 81):
        grid = float(np.abs(np.cos(phis + beta)).max())
        assert abs(cqp.max_fidelity(float(beta)) - grid) <= 1e-8, beta


def test_no_trained_fidelity_exceeds_max_fidelity():
    """Every record of a seeded grid of runs, at every output index, stays
    within the allowance of F*(beta); at beta = 0 and +-pi, where F* < 1,
    training reaches it."""
    for n in (1, 2):
        for k in range(2 * n):
            for beta in [*np.linspace(-4.0, 4.0, 9).tolist(), -math.pi, math.pi]:
                rng = np.random.default_rng(170 + n)
                sample = TrainingSample(rng.uniform(0.1, 0.6, 2 * n), beta)
                records = cqp.train(PerceptronConfig.type_ii(n, k, eta=0.5), sample,
                                    rng.uniform(0.0, 0.5, 2 * n), iterations=100)
                best = cqp.max_fidelity(beta)
                top = max(rec.fidelity for rec in records)
                assert top <= best + cqp.MAX_FIDELITY_SLACK, (n, k, beta)
                if beta in (0.0, -math.pi, math.pi):
                    assert top >= best - 1e-12, (n, k, beta)


def _toy_task(seed: int):
    config = PerceptronConfig.type_ii(1, activation=Activation.TANH, eta=0.1)
    sample = TrainingSample(np.array([0.35, 0.1]), np.pi / 3)
    theta0 = np.random.default_rng(100 + seed).uniform(0.0, 0.5, size=2)
    return config, sample, theta0


def test_train_monotone_and_converges():
    config, sample, theta0 = _toy_task(0)
    records = cqp.train(config, sample, theta0, iterations=500)
    fids = [rec.fidelity for rec in records]
    assert len(records) == 501
    assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))
    assert max(fids) >= 0.99


def test_train_stationary_at_perfect_fidelity():
    # w = x gives phi = arccos(tanh 1), so beta = -arccos(tanh 1) gives
    # fidelity 1; ascent should not move
    config = PerceptronConfig.type_ii(1, activation=Activation.TANH, eta=0.5)
    coeffs = np.array([0.3, 0.2])
    sample = TrainingSample(coeffs, -math.acos(math.tanh(1.0)))
    records = cqp.train(config, sample, coeffs.copy(), iterations=5)
    assert records[0].fidelity == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(records[-1].theta - coeffs)) <= 0.5 * 1e-6


def test_train_gradient_step_consistency():
    config, sample, theta0 = _toy_task(3)
    grads = []
    for step in (1e-5, 5e-6):
        rec = cqp.train(config, sample, theta0, iterations=1, fd_step=step)
        grads.append((rec[1].theta - theta0) / config.eta)
    denom = max(np.linalg.norm(grads[0]), 1e-12)
    assert np.linalg.norm(grads[0] - grads[1]) / denom <= 1e-4


def test_train_records_start_at_initial_theta():
    config, sample, theta0 = _toy_task(1)
    records = cqp.train(config, sample, theta0, iterations=2)
    np.testing.assert_allclose(records[0].theta, theta0)
    assert records[0].iteration == 0 and records[2].iteration == 2


def test_train_rejects_a_step_below_the_resolution_of_theta0():
    config, sample, _ = _toy_task(6)
    # 1 +- 1e-17 rounds to 1, though 0.0205 +- 1e-17 does not; 2 + 1.5e-16
    # rounds to 2, 2 - 1.5e-16 and 1 +- 1.5e-16 do not; 1e12 +- 1e-5 round back
    for theta0, step, component in (([0.3, 0.3], 1e-17, 0), ([0.0205, 0.3], 1e-17, 0),
                                    ([0.1, 2.0], 1.5e-16, 1), ([0.1, -1e12], 1e-5, 1)):
        with pytest.raises(ValueError, match=rf"^fd_step {step!r} is below the float "
                                             rf"resolution of max\(\|theta_j\|, 1\) at "
                                             rf"component {component} of theta0 "
                                             rf"\({theta0[component]!r}\), iteration 0$"):
            cqp.train(config, sample, theta0, iterations=5, fd_step=step)
    records = cqp.train(config, sample, [0.0205, 0.3], iterations=1, fd_step=2e-16)
    assert not np.array_equal(records[0].theta, records[1].theta)
    for bad in (math.inf, math.nan):  # left to the coefficient guard
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            cqp.train(config, sample, [bad, 0.3], iterations=1)


def test_train_rejects_a_step_past_the_resolution_of_fd_step():
    """A step that carries theta where fd_step no longer moves its largest
    component stops training before that iteration's differences, naming the
    component and the iteration."""
    _, sample, theta0 = _toy_task(6)
    records = cqp.train(PerceptronConfig.type_ii(1, eta=1e13), sample, theta0, iterations=1)
    big = records[1].theta.tolist()
    j = int(np.argmax(np.abs(big)))
    assert abs(big[j]) > 1e11 and abs(big[1 - j]) < abs(big[j])
    with pytest.raises(ValueError, match=rf"^fd_step 1e-05 is below the float resolution "
                                         rf"of max\(\|theta_j\|, 1\) at component {j} of "
                                         rf"theta \({re.escape(repr(big[j]))}\), iteration 1$"):
        cqp.train(PerceptronConfig.type_ii(1, eta=1e13), sample, theta0, iterations=2)
    # a step of 5e-3 still moves ~1e12 (whose ulp is 2^-13), so training goes on
    records = cqp.train(PerceptronConfig.type_ii(1, eta=1e13), sample, theta0, iterations=2,
                        fd_step=5e-3)
    assert len(records) == 3


def _oracle_fidelity(config, sample, theta):
    """F(theta) by dense eigendecomposition exponentials, not encode/forward;
    the activation is tanh."""
    e0 = simulator.basis_state(config.n, 0)
    generators = _generator_blades(config.n)

    def state(c):
        return linalg.expm_i(sum(cj * b.dense() for cj, b in zip(c, generators))) @ e0

    phi = math.acos(math.tanh(np.vdot(state(sample.input_coeffs), state(theta)).real))
    out = Blade(config.n, (config.output_index,)).dense()
    y = linalg.expm_i(out, phi) @ e0
    ref = linalg.expm_i(out, -sample.target_angle) @ e0
    return min(abs(np.vdot(ref, y)), 1.0)


@pytest.mark.parametrize("config", [
    PerceptronConfig.type_ii(1, activation=Activation.TANH, eta=0.3),
    PerceptronConfig.type_ii(2, output_index=3, activation=Activation.TANH, eta=0.2),
    PerceptronConfig.type_ii(3, output_index=5, activation=Activation.TANH, eta=0.5),
])
def test_one_training_step_matches_a_scalar_oracle(config):
    m = 2 * config.n
    rng = np.random.default_rng(90 + m)
    sample = TrainingSample(rng.uniform(0.1, 0.6, m), 0.7)
    theta0 = rng.uniform(0.0, 0.5, m)
    step = 1e-5
    records = cqp.train(config, sample, theta0, iterations=1, fd_step=step)
    grad = np.empty(m)
    for j in range(m):
        bump = np.zeros(m)
        bump[j] = step
        grad[j] = (_oracle_fidelity(config, sample, theta0 + bump)
                   - _oracle_fidelity(config, sample, theta0 - bump)) / (2.0 * step)
    assert np.abs(grad).max() > 1e-3  # the step moves theta
    np.testing.assert_allclose(records[1].theta, theta0 + config.eta * grad, rtol=0, atol=1e-9)
    assert records[0].fidelity == pytest.approx(
        _oracle_fidelity(config, sample, theta0), abs=1e-12)


def _reference_train(config, sample, theta0, iterations, fd_step):
    """train as a loop over the public encode and forward: one (2m + 1, m)
    stack per iteration, everything else recomputed on every call."""
    m = 2 * config.n
    x = cqp.encode(config, sample.input_coeffs)
    ref = np.conj(cqp.target_state(config, sample.target_angle))

    def score(thetas):
        _, y = cqp.forward(config, x, cqp.encode(config, thetas))
        return np.minimum(np.abs(y @ ref), 1.0)

    bumps = fd_step * np.eye(m)
    offsets = np.concatenate([np.zeros((1, m)), bumps, -bumps])
    theta = np.asarray(theta0, dtype=float).copy()
    records = []
    for k in range(iterations):
        f = score(theta + offsets)
        records.append((k, theta.copy(), float(f[0])))
        grad = (f[1:m + 1] - f[m + 1:]) / (2.0 * fd_step)
        theta = theta + config.eta * grad
    records.append((iterations, theta.copy(), float(score(theta))))
    return records


_TRAIN_CONFIGS = [
    PerceptronConfig.type_ii(1, eta=0.3),
    PerceptronConfig.type_ii(2, eta=0.2),
    PerceptronConfig.type_ii(2, output_index=3, eta=0.2),
    PerceptronConfig.type_ii(3),
    PerceptronConfig.type_ii(4, output_index=7),
    PerceptronConfig.type_ii(3, output_index=5, eta=0.5),
]
_TRAIN_IDS = ["ii-n1", "ii-n2", "ii-n2-out3", "ii-n3", "ii-n4-out7", "ii-n3-out5"]

# Two routes that round differently may score one row a few ulps apart; DELTA
# (about 4.5 ulps of 1) bounds that.  A central difference turns it into at
# most DELTA / h in a gradient component, so each step moves theta at most
# eta * DELTA / h off the other route, and k steps k times that.
_SCORE_DELTA = 1e-15


@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("config", _TRAIN_CONFIGS, ids=_TRAIN_IDS)
def test_train_equals_a_loop_over_encode_and_forward(config, activation):
    config = PerceptronConfig(config.n, config.output_index, activation, config.eta)
    m = 2 * config.n
    rng = np.random.default_rng(110 + m)
    sample = TrainingSample(rng.uniform(0.1, 0.6, m), 0.7)
    theta0 = rng.uniform(0.0, 0.5, m)
    iterations, step = 25, 2e-5
    got = cqp.train(config, sample, theta0, iterations=iterations, fd_step=step)
    want = _reference_train(config, sample, theta0, iterations, step)
    assert len(got) == len(want) == iterations + 1
    assert len({rec.theta.tobytes() for rec in got}) > 1  # training moved theta
    bound = iterations * config.eta * _SCORE_DELTA / step
    for rec, (k, theta, fid) in zip(got, want):
        assert rec.iteration == k
        assert np.abs(rec.theta - theta).max() <= bound
        assert abs(rec.fidelity - fid) <= bound


def _per_row_ascent(config, sample, theta0, iterations, fd_step):
    """ascent written out row by row from the formulas of cqp's docstring:
    (thetas, fidelities) as lists of Python floats.  An iteration scores
    its 2m + 1 rows theta, theta + h e_j and theta - h e_j into one list,
    then takes the central differences into a gradient list, checks them in
    a separate pass and steps.  A row c = theta +- h e_j has
    |c| = sqrt(|theta|^2 + h^2 +- 2h theta_j) and c.b = theta.b +- h b_j."""
    e0 = simulator.basis_state(config.n, 0)
    x = cqp.encode(config, sample.input_coeffs)
    r = cqp.target_state(config, sample.target_angle)
    columns = cqp._I_COLUMNS[config.n]  # iB_j|0..0>, each one entry of 1, -1, i or -i
    # so each inner product below is exact, on any route
    gamma0 = float(np.vdot(r, e0).real)
    gamma1 = float(np.vdot(r, columns[config.output_index]).real)
    alpha = float(np.vdot(x, e0).real)
    b = [float(np.vdot(x, column).real) for column in columns]

    def fidelity(norm, dot):
        v = alpha * math.cos(norm) + math.sin(norm) * (dot / norm) if norm else alpha
        a = math.tanh(v)
        return min(abs(gamma0 * a + gamma1 * math.sqrt((1.0 - a) * (1.0 + a))), 1.0)

    def rows(theta, h):  # the (|c|, c.b) of theta and its 2m neighbours
        norm = math.hypot(*theta)
        dot = sum(t * bj for t, bj in zip(theta, b))
        s = norm * norm + h * h
        out = [(norm, dot)]
        for sign in (1.0, -1.0):
            for t, bj in zip(theta, b):
                q = s + sign * (2.0 * h * t)
                out.append((math.sqrt(q) if q > 0.0 else 0.0, dot + sign * (h * bj)))
        return out

    m = 2 * config.n
    theta, thetas, fids = np.asarray(theta0, dtype=float).tolist(), [], []
    for _ in range(iterations):
        f = [fidelity(*row) for row in rows(theta, fd_step)]
        thetas.append(theta)
        fids.append(f[0])
        grad = [(up - down) / (2.0 * fd_step) for up, down in zip(f[1:m + 1], f[m + 1:])]
        assert all(map(math.isfinite, grad))
        theta = [t + config.eta * g for t, g in zip(theta, grad)]
    thetas.append(theta)
    fids.append(fidelity(*rows(theta, 0.0)[0]))
    return thetas, fids


def _assert_same_bits(got, want, where):
    """ascent's (thetas, fidelities) equal want's, float for float, by float.hex."""
    assert len(got[0]) == len(got[1]) == len(want[0]) == len(want[1])
    assert all(type(t) is float for theta in got[0] for t in theta)
    assert [list(map(float.hex, theta)) for theta in got[0]] == \
        [list(map(float.hex, theta)) for theta in want[0]], where
    assert list(map(float.hex, got[1])) == list(map(float.hex, want[1])), where


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_train_equals_the_unfused_loop_bit_for_bit(n):
    """At every output index and two learning rates, 60 iterations of train
    give the per-row reference's records bit for bit, each theta a float64
    array of shape (2n,)."""
    rng = np.random.default_rng(200 + n)
    for k in range(2 * n):
        for eta in (0.1, 0.5):
            config = PerceptronConfig.type_ii(n, k, eta=eta)
            sample = TrainingSample(rng.uniform(0.1, 0.6, 2 * n), rng.uniform(-3.0, 3.0))
            theta0 = rng.uniform(0.0, 0.5, 2 * n)
            got = cqp.train(config, sample, theta0, iterations=60)
            thetas, fids = _per_row_ascent(config, sample, theta0, 60, 1e-5)
            assert len(got) == len(thetas) == 61
            assert len({rec.theta.tobytes() for rec in got}) > 1  # training moved theta
            for i, (rec, theta, fid) in enumerate(zip(got, thetas, fids)):
                assert type(rec) is cqp.TrainRecord and type(rec.iteration) is int
                assert rec.theta.dtype == np.float64 and rec.theta.shape == (2 * n,)
                assert rec.iteration == i
                assert rec.theta.tobytes() == np.array(theta).tobytes(), (n, k, eta, i)
                assert rec.fidelity.hex() == fid.hex(), (n, k, eta, i)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ascent_equals_the_per_row_reference_bit_for_bit(n):
    """At every output index, 0, 1 and 5 iterations and steps from 1e-7 to
    0.0099, the largest the CLI takes, ascent's thetas and fidelities are the
    per-row reference's, by float.hex; theta0 = 0 (neighbours of norm h) is
    one of the starts."""
    rng = np.random.default_rng(400 + n)
    for k in range(2 * n):
        config = PerceptronConfig.type_ii(n, k, eta=rng.uniform(0.05, 1.0))
        sample = TrainingSample(rng.uniform(-1.0, 1.0, 2 * n), rng.uniform(-3.0, 3.0))
        for theta0 in (np.zeros(2 * n), rng.uniform(-2.0, 2.0, 2 * n)):
            for iterations in (0, 1, 5):
                for step in (1e-7, 1e-5, 1e-3, 0.0099):
                    got = cqp.ascent(config, sample, theta0, iterations, step)
                    want = _per_row_ascent(config, sample, theta0, iterations, step)
                    _assert_same_bits(got, want, (n, k, iterations, step))


def test_train_checks_each_fidelity_once(monkeypatch):
    """_check_fidelity runs once per record, the final theta's included, on
    the record's fidelity, in order."""
    config, sample, theta0 = _toy_task(7)
    checked = []
    check = cqp._check_fidelity

    def counting_check(f):
        checked.append(f)
        check(f)

    monkeypatch.setattr(cqp, "_check_fidelity", counting_check)
    for iterations in (0, 1, 5):
        checked.clear()
        records = cqp.train(config, sample, theta0, iterations=iterations)
        assert checked == [rec.fidelity for rec in records]
        assert len(checked) == iterations + 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_train_records_are_ascents_lists_bit_for_bit(n):
    """At every output index, at 0, 1 and 5 iterations and a few random eta,
    fd_step and beta, record k of train holds k, ascent's theta k as a
    float64 array with the list's bits and ascent's fidelity k; ascent's
    values are lists of Python floats."""
    rng = np.random.default_rng(300 + n)
    for k in range(2 * n):
        for iterations in (0, 1, 5):
            eta, step = rng.uniform(0.05, 1.0), 10.0 ** rng.uniform(-7.0, -3.0)
            config = PerceptronConfig.type_ii(n, k, eta=eta)
            sample = TrainingSample(rng.uniform(0.1, 0.6, 2 * n), rng.uniform(-3.0, 3.0))
            theta0 = rng.uniform(0.0, 0.5, 2 * n)
            thetas, fids = cqp.ascent(config, sample, theta0, iterations, step)
            records = cqp.train(config, sample, theta0, iterations, step)
            assert len(thetas) == len(fids) == len(records) == iterations + 1
            for i, (rec, theta, fid) in enumerate(zip(records, thetas, fids)):
                assert type(theta) is list and len(theta) == 2 * n
                assert all(type(t) is float for t in theta) and type(fid) is float
                assert type(rec) is cqp.TrainRecord and rec.iteration == i
                assert rec.theta.dtype == np.float64 and rec.theta.shape == (2 * n,)
                assert rec.theta.tobytes() == np.array(theta).tobytes(), (n, k, iterations, i)
                assert rec.fidelity.hex() == fid.hex(), (n, k, iterations, i)


def test_train_scores_each_iteration_in_one_batched_call(monkeypatch):
    config, sample, theta0 = _toy_task(2)
    shapes = []
    encode = cqp.encode

    def counting_encode(cfg, coeffs):
        shapes.append(np.shape(coeffs))
        return encode(cfg, coeffs)

    monkeypatch.setattr(cqp, "encode", counting_encode)
    cqp.train(config, sample, theta0, iterations=4)
    assert shapes == [(2,)]  # rows are scored from scalars, never as states


class _NumpyCallCounter:
    """Stands in for numpy in cqp and counts the functions looked up on it."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(np, name)


@pytest.mark.parametrize("activation", list(Activation))
def test_train_numpy_calls_per_iteration_do_not_grow_with_the_rows(monkeypatch, activation):
    per_iteration = []
    for n in (1, 2):  # 5 rows, then 9 rows per iteration
        config = PerceptronConfig.type_ii(n, activation=activation)
        m = 2 * config.n
        sample = TrainingSample(np.full(m, 0.3), 0.7)
        cqp.train(config, sample, np.full(m, 0.2), iterations=1)  # fills the blade cache
        counts = []
        for iterations in (1, 3):
            counter = _NumpyCallCounter()
            monkeypatch.setattr(cqp, "np", counter)
            cqp.train(config, sample, np.full(m, 0.2), iterations=iterations)
            monkeypatch.setattr(cqp, "np", np)
            counts.append(counter.calls)
        per_iteration.append((counts[1] - counts[0]) / 2)
    assert per_iteration[0] == per_iteration[1] == 0  # one np.array per run, for the thetas


_FIDELITY_SCORER = cqp._fidelity_scorer  # the real one, which the tests below patch


def _spoiling_scorer(calls, centre=None, row=None):
    """A stand-in for cqp._fidelity_scorer whose centre and per-row fidelity
    functions append "centre" or "row" to calls, then run
    centre(real_centre, theta) or row(real_fidelity, r, d) where given, the
    real function elsewhere.  ascent calls centre once per record, the final
    theta's included, and the row function 2m times per iteration: the rows
    theta + h e_j, then theta - h e_j, each for j = 0..m-1."""
    def scorer(cfg, smp):
        b, real_centre, real_fidelity = _FIDELITY_SCORER(cfg, smp)

        def spoiled_centre(theta):
            calls.append("centre")
            return centre(real_centre, theta) if centre else real_centre(theta)

        def spoiled_fidelity(r, d):
            calls.append("row")
            return row(real_fidelity, r, d) if row else real_fidelity(r, d)
        return b, spoiled_centre, spoiled_fidelity
    return scorer


@pytest.mark.parametrize("component", [0, 1])
def test_non_finite_neighbour_score_names_its_component(monkeypatch, component):
    config, sample, theta0 = _toy_task(4)
    calls = []

    def nan_neighbour(fidelity, r, d):  # the score of theta + h*e_component
        return math.nan if calls.count("row") == 1 + component else fidelity(r, d)

    monkeypatch.setattr(cqp, "_fidelity_scorer", _spoiling_scorer(calls, row=nan_neighbour))
    with pytest.raises(linalg.InvariantError, match=f"non-finite finite-difference gradient "
                                                    f"at component {component} "):
        cqp.train(config, sample, theta0, iterations=2)


def _rows(theta, h):
    """The explicit rows theta, theta + h*e_j (j = 0..m-1), theta - h*e_j,
    or theta alone for h = 0."""
    if not h:
        return theta[None]
    bumps = h * np.eye(len(theta))
    return np.concatenate([theta[None], theta + bumps, theta - bumps])


def _first_scores(monkeypatch, config, sample, theta, h):
    """The fidelities ascent scores in its first iteration at fd_step h, in
    the order of _rows(theta, h); theta's alone for h = 0, as ascent scores
    it in a run of no iterations."""
    scores = []

    def centre(real, theta):
        f, norm, dot = real(theta)
        scores.append(f)
        return f, norm, dot

    def row(real, r, d):
        scores.append(real(r, d))
        return scores[-1]

    monkeypatch.setattr(cqp, "_fidelity_scorer", _spoiling_scorer([], centre, row))
    cqp.ascent(config, sample, theta, 1 if h else 0, h or 1e-5)
    monkeypatch.setattr(cqp, "_fidelity_scorer", _FIDELITY_SCORER)
    return scores[:2 * len(theta) + 1]


@pytest.mark.parametrize("n, output_index", [(1, 0), (1, 1), (2, 0), (2, 3)])
def test_row_score_matches_the_dense_oracle(monkeypatch, n, output_index):
    """Every one of the 2m + 1 scores of an iteration, against the dense
    oracle on its explicit row, at h = 0, the default step and 0.0099, the
    largest the CLI takes: theta = 0 (c = 0, and neighbours of norm h) and
    six random thetas in [-2, 2]^m at 1e-12, and a theta of norm 1e6.  One
    ulp of |c| = 1e6 is 1.2e-10, so no double-precision route, the oracle's
    eigensolve included, pins F to 1e-12 there (the gap seen is up to 3.2
    ulps); its rows are allowed 1e-12 plus 8 ulps of their norm."""
    rng = np.random.default_rng(130 + 10 * n + output_index)
    config = PerceptronConfig.type_ii(n, output_index=output_index,
                                      activation=Activation.TANH)
    m = 2 * config.n
    for target in (0.7, -0.4, -2.3):  # negative target angles too
        coeffs = rng.uniform(-1.0, 1.0, m)
        coeffs[0] = -abs(coeffs[0])
        sample = TrainingSample(coeffs, target)
        x_conj = np.conj(cqp.encode(config, coeffs))
        assert (cqp._I_COLUMNS[n] @ x_conj).real[0] < 0  # a negative b_0
        small = [np.zeros(m), *rng.uniform(-2.0, 2.0, (6, m))]
        big = rng.uniform(-1.0, 1.0, m)
        big *= 1e6 / np.linalg.norm(big)
        for theta, ulps in [*((t, 0) for t in small), (big, 8)]:
            for h in (0.0, 1e-5, 0.0099):
                fids = _first_scores(monkeypatch, config, sample, theta, h)
                rows = _rows(theta, h)
                assert len(fids) == len(rows) and all(type(f) is float for f in fids)
                for row, f in zip(rows, fids):
                    tol = 1e-12 + ulps * math.ulp(float(np.linalg.norm(row)))
                    assert abs(f - _oracle_fidelity(config, sample, row)) <= tol


def test_every_output_index_scores_as_the_dense_oracle(monkeypatch):
    """At n = 1..3 and every output index, each of the 2m + 1 scores of one
    iteration is the dense oracle's on its explicit row, to 1e-12."""
    rng = np.random.default_rng(180)
    for n in (1, 2, 3):
        for k in range(2 * n):
            config = PerceptronConfig.type_ii(n, k)
            sample = TrainingSample(rng.uniform(-1.0, 1.0, 2 * n), rng.uniform(-3.0, 3.0))
            theta = rng.uniform(-2.0, 2.0, 2 * n)
            fids = _first_scores(monkeypatch, config, sample, theta, 1e-3)
            for row, f in zip(_rows(theta, 1e-3), fids, strict=True):
                assert abs(f - _oracle_fidelity(config, sample, row)) <= 1e-12, (n, k)


def test_the_resolution_guards_keep_each_neighbours_norm_finite(monkeypatch):
    """ascent forms a neighbour's squared norm as |theta|^2 + h^2 +- 2h theta_j
    with no overflow test: the resolution guards stop any |theta_j| of 2^47 or
    more, where even the largest step is below half an ulp, and below it the
    squared norm of 8 components is far from overflowing."""
    step, top = math.nextafter(cqp.FD_STEP_MAX, 0.0), math.nextafter(2.0 ** 47, 0.0)
    config = PerceptronConfig.type_ii(4)
    sample = TrainingSample(np.full(8, 0.3), 0.7)
    norms = []

    def row(real, r, d):
        norms.append(r)
        return real(r, d)

    monkeypatch.setattr(cqp, "_fidelity_scorer", _spoiling_scorer([], row=row))
    cqp.ascent(config, sample, [top, -top] * 4, 1, step)
    assert len(norms) == 16 and all(math.isfinite(r) for r in norms)
    for bad in (2.0 ** 47, -2.0 ** 47, 1e300):
        with pytest.raises(ValueError, match="below the float resolution"):
            cqp.ascent(config, sample, [0.0] * 7 + [bad], 1, step)


def test_configs_with_one_blade_list_share_its_invariants(monkeypatch):
    """i times column 0 of the generators is one read-only table per n, not
    per config: the target states of two configs on n qubits rotate rows of
    the same array."""
    assert list(cqp._I_COLUMNS) == list(REGISTER_SIZES)
    rows = []
    monkeypatch.setattr(cqp, "_rotate_ground", lambda icol, angle: rows.append(icol))
    for n in REGISTER_SIZES:
        table = cqp._I_COLUMNS[n]
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
        first, second = PerceptronConfig.type_ii(n), PerceptronConfig.type_ii(n, 1, eta=0.5)
        assert first is not second
        rows.clear()
        cqp.target_state(first, 0.7)
        cqp.target_state(second, 0.7)
        assert all(row.base is table for row in rows)
        assert [row.tobytes() for row in rows] == [table[0].tobytes(), table[1].tobytes()]
    assert cqp._I_COLUMNS[2] is not cqp._I_COLUMNS[3]


_COEFFICIENT_GUARDS = [  # (config, the first two components of a spoiled theta, error)
    *((config, bad, "coefficients must be finite")
      for config in (_TRAIN_CONFIGS[1], _TRAIN_CONFIGS[-1])
      for bad in ([np.inf, 0.0], [0.0, -np.inf], [np.nan, 0.0])),
    (_TRAIN_CONFIGS[1], [1.5e308, 1.5e308], "coefficient norm overflows float64"),
]


@pytest.mark.parametrize("spoiled_call", [1, 3])
@pytest.mark.parametrize("config, bad, message", _COEFFICIENT_GUARDS)
def test_train_runs_the_coefficient_guards_at_every_iteration(monkeypatch, config, bad,
                                                              message, spoiled_call):
    m = 2 * config.n
    calls = []

    def spoil(centre, theta):
        if calls.count("centre") == spoiled_call:
            theta = [*bad, *theta[2:]]
        return centre(theta)

    monkeypatch.setattr(cqp, "_fidelity_scorer", _spoiling_scorer(calls, centre=spoil))
    sample = TrainingSample(np.full(m, 0.3), 0.7)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cqp.train(config, sample, np.full(m, 0.2), iterations=5)
    assert calls == (["centre"] + ["row"] * 2 * m) * (spoiled_call - 1) + ["centre"]


def test_train_rejects_a_nan_activation_output(monkeypatch):
    config, sample, theta0 = _toy_task(5)
    float_form = config.activation.float_form
    rows = []

    def nan_in_row_two(u):  # row 2 of the first iteration
        rows.append(u)
        return math.nan if len(rows) == 3 else float_form(u)

    monkeypatch.setattr(Activation, "float_form", property(lambda self: nan_in_row_two))
    with pytest.raises(linalg.InvariantError, match=r"^activation output nan is outside "
                                                    r"\[-1, 1\]; arccos undefined$"):
        cqp.train(config, sample, theta0, iterations=2)
    assert len(rows) == 3


def test_a_failed_training_invariant_is_not_a_value_error():
    """The CLI maps a ValueError from ascent to an invalid config; a check of
    a value ascent computed raises InvariantError, which it must not catch."""
    assert not issubclass(linalg.InvariantError, ValueError)
    assert issubclass(linalg.EigenCheckError, linalg.InvariantError)


_TRAIN_GUARDS = {  # guard: (the spoiled function, its spoil, the error, its message)
    "finite-coefficients": ("centre", lambda centre, theta: centre([math.nan, *theta[1:]]),
                            ValueError, "coefficients must be finite"),
    "finite-norm": ("centre", lambda centre, theta: centre([1.5e308, 1.5e308, *theta[2:]]),
                    ValueError, "coefficient norm overflows float64"),
    "activation-range": ("centre", None, linalg.InvariantError,
                         r"activation output nan is outside \[-1, 1\]; arccos undefined"),
    "record-fidelity": ("centre", lambda centre, theta: (math.nan, *centre(theta)[1:]),
                        linalg.InvariantError, r"fidelity nan outside \[0, 1\]"),
    "finite-gradient": ("row", lambda fidelity, r, d: math.nan, linalg.InvariantError,
                        r"non-finite finite-difference gradient at component {last} "
                        r"\(activation kink or overflow\)"),
}


@pytest.mark.parametrize("guard", list(_TRAIN_GUARDS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("activation", list(Activation))
def test_every_training_guard_fires_at_every_iteration(monkeypatch, activation, n, guard):
    """One iteration at a time is spoiled: centre calls 1..4 score the
    iterations' thetas and call 5 the final theta, which has no gradient;
    the gradient guard is tripped by the last row of an iteration, the
    neighbour theta - h e_{m-1}.  The guard raises its message in the spoiled
    call, with no later row or centre scored."""
    config = PerceptronConfig.type_ii(n, activation=activation)
    m = 2 * config.n
    sample = TrainingSample(np.full(m, 0.3), 0.7)
    where, spoil, error, message = _TRAIN_GUARDS[guard]
    float_form = activation.float_form
    nan_activation = []  # non-empty while a call spoiled by the activation runs
    monkeypatch.setattr(Activation, "float_form", property(
        lambda self: lambda u: math.nan if nan_activation else float_form(u)))
    if spoil is None:
        def spoil(centre, theta):
            nan_activation.append(True)
            try:
                return centre(theta)
            finally:
                nan_activation.clear()

    for spoiled_call in range(1, 6) if where == "centre" else range(1, 5):
        calls = []
        if where == "centre":
            spoiled = lambda centre, theta: (  # noqa: E731
                spoil(centre, theta) if calls.count("centre") == spoiled_call
                else centre(theta))
            want = (["centre"] + ["row"] * 2 * m) * (spoiled_call - 1) + ["centre"]
            scorer = _spoiling_scorer(calls, centre=spoiled)
        else:
            spoiled = lambda fidelity, r, d: (  # noqa: E731
                spoil(fidelity, r, d) if calls.count("row") == 2 * m * spoiled_call
                else fidelity(r, d))
            want = (["centre"] + ["row"] * 2 * m) * spoiled_call
            scorer = _spoiling_scorer(calls, row=spoiled)
        monkeypatch.setattr(cqp, "_fidelity_scorer", scorer)
        with pytest.raises(error, match=f"^{message.format(last=m - 1)}$"):
            cqp.train(config, sample, np.full(m, 0.2), iterations=4)
        assert calls == want


def test_type_equivalence_under_unitaries():
    config = PerceptronConfig.type_ii(2)
    assert cqp.type_equivalence_check(config, np.eye(4), seed=0)
    rng = np.random.default_rng(8)
    u = linalg.random_unitary(4, rng)
    assert cqp.type_equivalence_check(config, u, seed=1)
    local = linalg.tensor(linalg.expm_i(np.array([[0, 1], [1, 0]], dtype=complex), 0.3),
                          linalg.expm_i(np.array([[1, 0], [0, -1]], dtype=complex), 0.8))
    assert cqp.type_equivalence_check(config, local, seed=2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_equivalence_defects_equal_per_trial_calls(n):
    config = PerceptronConfig.type_ii(n)
    rng = np.random.default_rng(150 + n)
    us = np.stack([linalg.random_unitary(2 ** n, rng) for _ in range(7)])
    xs, ws = rng.uniform(-1.0, 1.0, (2, 7, 2 * n))
    # a contraction is not unitary, so its defects are large and have bits to compare
    for u_stack, large in ((us, False), (0.5 * us, True)):
        phis, states = cqp.equivalence_defects(config, u_stack, xs, ws)
        assert phis.shape == states.shape == (7,)
        for u, x, w, phi, state in zip(u_stack, xs, ws, phis, states):
            one = cqp.equivalence_defects(config, u, x, w)
            assert all(type(v) is float for v in one)  # one trial gives floats
            assert np.array_equal([phi, state], one)
        assert ((states > 1e-3) if large else (states <= 1e-14)).all()


def test_type_equivalence_rejects_non_unitary():
    config = PerceptronConfig.type_ii(1)
    with pytest.raises(ValueError, match="not unitary"):
        cqp.type_equivalence_check(config, 2.0 * np.eye(2))


def _tanh_forms(u: np.ndarray):
    """tanh of every entry of u by math.tanh, by numpy on scalars, on the whole
    contiguous array, on every tail length up to 17 and on a strided view,
    so each of numpy's loops and their remainder paths runs."""
    yield np.array([math.tanh(x) for x in u.tolist()])
    yield np.array([np.tanh(x) for x in u])
    yield np.tanh(u)
    for k in range(1, 18):
        yield np.tanh(u[:k])
    yield np.tanh(u[::3])


def test_activation_ranges():
    """|tanh u| <= 1 for every double, which forward and the scorer rely on
    in place of a clip, and |tanh u| < 0.77 while |u| <= 1 + 8 ulps, the
    overlap range of unit states with rounding slack."""
    assert list(Activation) == [Activation.TANH]
    ulps = np.arange(1, 65)
    above_one = 1.0 + ulps * 2.0 ** -52  # 1 + k ulps, exactly
    band = np.linspace(18.0, 23.0, 50_001)  # where tanh rounds up to 1
    anywhere = np.concatenate([[1.0], above_one, band, [1e308, np.finfo(float).max, math.inf]])
    for u in (anywhere, -anywhere):
        for got in _tanh_forms(u):
            assert np.abs(got).max() <= 1.0
    inner = np.concatenate([[0.0, 1.0], above_one[:8], 1.0 - ulps * 2.0 ** -53,
                            np.random.default_rng(170).uniform(-1.0, 1.0, 10_000)])
    for u in (inner, -inner):
        for got in _tanh_forms(u):
            assert np.abs(got).max() < 0.77
    assert Activation.TANH.apply(50.0) <= 1.0
    assert Activation.TANH.float_form(-math.inf) == -1.0


_ASCENT_ARGS = (PerceptronConfig.type_ii(1), TrainingSample([0.3, 0.2], 0.7))

# Input guards that no other test reaches, each with its exact message
_INPUT_GUARDS = [
    pytest.param(lambda: cqp.ascent(*_ASCENT_ARGS, [0.1, 0.1], -1),
                 "need iterations >= 0, got -1", id="ascent-iterations"),
    pytest.param(lambda: cqp.ascent(*_ASCENT_ARGS, [0.1, 0.1], 1, fd_step=0.0),
                 "fd_step 0.0 outside (0, 0.01)", id="ascent-fd-step"),
    pytest.param(lambda: cqp.ascent(*_ASCENT_ARGS, [0.1], 1),
                 "theta0 must have 2 components, got (1,)", id="ascent-theta0"),
]


@pytest.mark.parametrize("call, message", _INPUT_GUARDS)
def test_input_guards_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
