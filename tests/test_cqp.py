"""Perceptron encode/forward/train tests with closed-form oracles."""
import math

import numpy as np
import pytest

from cliffsim import cqp, linalg, simulator
from cliffsim.clifford import Blade
from cliffsim.cqp import Activation, PerceptronConfig, TrainingSample


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
    blade = Blade(2, (0, 3))
    config = PerceptronConfig.type_i(2, [(0, 3)], (0,))
    c = 0.77
    want = linalg.expm_i(blade.dense(), c) @ simulator.basis_state(2, 0)
    np.testing.assert_allclose(cqp.encode(config, [c]), want, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_type_ii_encode_matches_expm_i_route(n):
    config = PerceptronConfig.type_ii(n)
    rng = np.random.default_rng(60 + n)
    for c in [np.zeros(2 * n), *rng.uniform(-2.0, 2.0, size=(5, 2 * n))]:
        h = sum(cj * b.dense() for cj, b in zip(c, config.active_blades))
        want = linalg.expm_i(h) @ simulator.basis_state(n, 0)
        np.testing.assert_allclose(cqp.encode(config, c), want, atol=1e-12)


@pytest.mark.parametrize("index_sets, anticommuting", [
    ([(0,), (1, 2)], False),        # commuting pair: expm_i route
    ([(0, 1), (1, 2), (1, 3)], True),  # anticommuting, not generators: closed form
])
def test_type_i_encode_matches_expm_i_route(index_sets, anticommuting):
    config = PerceptronConfig.type_i(2, index_sets, (0,))
    assert config._anticommuting is anticommuting
    rng = np.random.default_rng(70)
    for c in [np.zeros(len(index_sets)), *rng.uniform(-2.0, 2.0, size=(5, len(index_sets)))]:
        h = sum(cj * b.dense() for cj, b in zip(c, config.active_blades))
        want = linalg.expm_i(h) @ simulator.basis_state(2, 0)
        np.testing.assert_allclose(cqp.encode(config, c), want, atol=1e-12)
        if not anticommuting:
            # commuting blades: the exponential is the product of single-blade ones
            prod = np.eye(4)
            for cj, b in zip(c, config.active_blades):
                prod = prod @ linalg.expm_i_involution(b.dense(), cj)
            np.testing.assert_allclose(cqp.encode(config, c), prod[:, 0], atol=1e-12)


_STACK_CONFIGS = [
    *(PerceptronConfig.type_ii(n) for n in (1, 2, 3)),
    PerceptronConfig.type_i(2, [(0, 1), (1, 2), (1, 3)], (0,)),  # anticommuting
    PerceptronConfig.type_i(2, [(0,), (1, 2)], (0,)),            # expm_i stack route
]


@pytest.mark.parametrize("config", _STACK_CONFIGS)
def test_stacked_encode_and_forward_equal_per_row_calls(config):
    m = len(config.active_blades)
    rng = np.random.default_rng(80 + m)
    coeffs = rng.uniform(-2.0, 2.0, size=(2, 3, m))
    coeffs[1, 2] = 0.0  # a zero row inside the stack gives |0..0>
    states = cqp.encode(config, coeffs)
    assert states.shape == (2, 3, 2 ** config.n)
    x = cqp.encode(config, rng.uniform(-2.0, 2.0, m))
    phis, ys = cqp.forward(x, states, config.activation, config.output_blade)
    assert phis.shape == (2, 3) and ys.shape == states.shape
    for idx in np.ndindex(2, 3):
        row = cqp.encode(config, coeffs[idx])
        np.testing.assert_allclose(states[idx], row, rtol=0, atol=1e-14)
        phi, y = cqp.forward(x, row, config.activation, config.output_blade)
        assert abs(phis[idx] - phi) <= 1e-14
        np.testing.assert_allclose(ys[idx], y, rtol=0, atol=1e-14)
    np.testing.assert_allclose(states[1, 2], simulator.basis_state(config.n, 0), atol=0)


@pytest.mark.parametrize("config", [_STACK_CONFIGS[1], _STACK_CONFIGS[-1]])
def test_stack_with_one_non_finite_row_raises(config):
    coeffs = np.zeros((3, len(config.active_blades)))
    coeffs[1, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        cqp.encode(config, coeffs)


def test_activation_out_of_range_in_one_row_raises():
    config = PerceptronConfig.type_ii(1)
    x = cqp.encode(config, [0.2, 0.1])
    ws = np.stack([x, 2.0 * x, x])  # row 1 is not a unit state: Re<x|w> = 2
    cqp.forward(x, ws[[0, 2]], Activation.IDENTITY, config.output_blade)
    with pytest.raises(ValueError, match="outside"):
        cqp.forward(x, ws, Activation.IDENTITY, config.output_blade)


def test_forward_takes_one_input_state():
    config = PerceptronConfig.type_ii(1)
    xs = cqp.encode(config, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="one state"):
        cqp.forward(xs, xs, Activation.TANH, config.output_blade)


def test_encode_does_not_overflow_the_norm():
    config = PerceptronConfig.type_ii(1)
    c = np.array([1e200, 1e200])
    got = cqp.encode(config, c)
    assert np.isfinite(got).all()
    assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-14)
    norm = math.hypot(*c)
    column = sum(cj / norm * b.dense()[:, 0] for cj, b in zip(c, config.active_blades))
    want = math.cos(norm) * simulator.basis_state(1, 0) + 1j * math.sin(norm) * column
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_activation_apply_is_elementwise():
    u = np.array([[-3.0, -0.5], [0.0, 2.5]])
    for act in Activation:
        got = act.apply(u)
        assert got.shape == u.shape
        for idx in np.ndindex(u.shape):
            assert got[idx] == act.apply(u[idx])


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
    with pytest.raises(ValueError):
        PerceptronConfig.type_i(1, [], (0,))  # no active blades
    with pytest.raises(ValueError):
        PerceptronConfig.type_i(1, [()], (0,))  # identity blade
    with pytest.raises(ValueError):
        PerceptronConfig.type_i(1, [(0,), (0,)], (0,))  # duplicate


def test_forward_identical_states():
    config = PerceptronConfig.type_ii(1)
    x = cqp.encode(config, [0.2, 0.1])
    phi, y = cqp.forward(x, x, Activation.IDENTITY, config.output_blade)
    assert phi == pytest.approx(0.0, abs=1e-6)
    np.testing.assert_allclose(y, simulator.basis_state(1, 0), atol=1e-6)


def test_forward_orthogonal_states():
    phi, _ = cqp.forward(simulator.basis_state(1, 0), simulator.basis_state(1, 1),
                         Activation.IDENTITY, Blade(1, (0,)))
    assert phi == pytest.approx(np.pi / 2, abs=1e-12)


def test_forward_output_rotation_closed_form():
    # phi = pi/3 about the X generator
    w = simulator.basis_state(1, 0)
    x = np.array([0.5, np.sqrt(0.75) * 1j])  # Re<x|w> = 0.5
    phi, y = cqp.forward(x, w, Activation.IDENTITY, Blade(1, (0,)))
    assert phi == pytest.approx(np.pi / 3, abs=1e-12)
    np.testing.assert_allclose(
        y, [np.cos(np.pi / 3), 1j * np.sin(np.pi / 3)], atol=1e-12)


def test_fidelity_angle_law_zero_expectation_blade():
    blade = Blade(1, (0,))
    for phi in np.linspace(0.0, np.pi, 5):
        for beta in np.linspace(-1.0, 2.5, 4):
            y = linalg.expm_i(blade.dense(), phi) @ simulator.basis_state(1, 0)
            got = cqp.fidelity(y, beta, blade)
            assert got == pytest.approx(abs(np.cos(phi + beta)), abs=1e-10)


def test_fidelity_diagonal_blade_is_constant():
    blade = Blade(1, (0, 1))  # dense form -Z, diagonal in the basis
    for phi in (0.0, 0.4, 1.3):
        for beta in (0.0, 0.9, 2.2):
            y = linalg.expm_i(blade.dense(), phi) @ simulator.basis_state(1, 0)
            assert cqp.fidelity(y, beta, blade) == pytest.approx(1.0, abs=1e-10)


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
    # beta = 0 and w = x gives phi = 0 and fidelity 1; ascent should not move
    config = PerceptronConfig.type_ii(1, activation=Activation.IDENTITY, eta=0.5)
    coeffs = np.array([0.3, 0.2])
    sample = TrainingSample(coeffs, 0.0)
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


def _oracle_fidelity(config, sample, theta):
    """F(theta) by dense eigendecomposition exponentials, not encode/forward;
    the activation is tanh."""
    e0 = simulator.basis_state(config.n, 0)

    def state(c):
        return linalg.expm_i(sum(cj * b.dense() for cj, b in zip(c, config.active_blades))) @ e0

    phi = math.acos(math.tanh(np.vdot(state(sample.input_coeffs), state(theta)).real))
    out = config.output_blade.dense()
    y = linalg.expm_i(out, phi) @ e0
    ref = linalg.expm_i(out, -sample.target_angle) @ e0
    return min(abs(np.vdot(ref, y)), 1.0)


@pytest.mark.parametrize("config", [
    PerceptronConfig.type_ii(1, activation=Activation.TANH, eta=0.3),
    PerceptronConfig.type_ii(2, output_index=3, activation=Activation.TANH, eta=0.2),
    PerceptronConfig.type_i(2, [(0,), (1, 2)], (1,), activation=Activation.TANH, eta=0.5),
])
def test_one_training_step_matches_a_scalar_oracle(config):
    m = len(config.active_blades)
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


def test_train_scores_each_iteration_in_one_batched_call(monkeypatch):
    config, sample, theta0 = _toy_task(2)
    shapes = []
    encode = cqp.encode

    def counting_encode(cfg, coeffs):
        shapes.append(np.shape(coeffs))
        return encode(cfg, coeffs)

    monkeypatch.setattr(cqp, "encode", counting_encode)
    cqp.train(config, sample, theta0, iterations=4)
    # the input, one (2m + 1, m) stack per iteration, then the final theta
    assert shapes == [(2,)] + [(5, 2)] * 4 + [(2,)]


@pytest.mark.parametrize("component", [0, 1])
def test_non_finite_neighbour_score_names_its_component(monkeypatch, component):
    config, sample, theta0 = _toy_task(4)
    forward = cqp.forward

    def nan_neighbour(x, w, activation, output_blade):
        phi, y = forward(x, w, activation, output_blade)
        if y.ndim == 2:
            y = y.copy()
            y[1 + component] = np.nan  # the score of theta + h*e_component
        return phi, y

    monkeypatch.setattr(cqp, "forward", nan_neighbour)
    with pytest.raises(ValueError, match=f"gradient at component {component} "):
        cqp.train(config, sample, theta0, iterations=2)


def test_multilayer_single_neuron_reduces_to_forward():
    config = PerceptronConfig.type_i(1, [(0,)], (0,), activation=Activation.IDENTITY)
    x_coeffs = np.array([0.4])
    w_row = np.array([[0.25]])
    got = cqp.multilayer_forward([w_row], x_coeffs, config)
    x = cqp.encode(config, x_coeffs)
    w = cqp.encode(config, w_row[0])
    phi, _ = cqp.forward(x, w, Activation.IDENTITY, config.active_blades[0])
    want = linalg.expm_i(config.active_blades[0].dense(), phi) @ simulator.basis_state(1, 0)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_multilayer_zero_weight_golden_value():
    """Hand derivation for n=1, zero weights, identity activation.

    x = exp(i(0.3 X + 0.4 Y))|0> = cos(0.5)|0> + i sin(0.5)(0.6 + 0.8i)|1>,
    so Re<x|0> = cos(0.5) and each neuron gets phi = 0.5.  Re-encoding
    exp(i(0.5 X + 0.5 Y))|0> rotates by 0.5*sqrt(2) about (1,1,0)/sqrt(2);
    a second zero-weight layer repeats the argument with phi = 0.5*sqrt(2).
    """
    config = PerceptronConfig.type_ii(1, activation=Activation.IDENTITY)
    x_coeffs = np.array([0.3, 0.4])
    zeros = np.zeros((2, 2))

    r1 = 0.5 * np.sqrt(2.0)
    want1 = np.array([np.cos(r1), np.sin(r1) * (1j - 1.0) / np.sqrt(2.0)])
    got1 = cqp.multilayer_forward([zeros], x_coeffs, config)
    np.testing.assert_allclose(got1, want1, atol=1e-12)

    r2 = r1 * np.sqrt(2.0)  # = 1.0
    want2 = np.array([np.cos(r2), np.sin(r2) * (1j - 1.0) / np.sqrt(2.0)])
    got2 = cqp.multilayer_forward([zeros, zeros], x_coeffs, config)
    np.testing.assert_allclose(got2, want2, atol=1e-12)


def test_multilayer_neuron_permutation_invariance():
    base = PerceptronConfig.type_i(1, [(0,), (1,)], (0,), activation=Activation.TANH)
    flipped = PerceptronConfig.type_i(1, [(1,), (0,)], (0,), activation=Activation.TANH)
    x = np.array([0.3, 0.4])
    layer = np.array([[0.2, 0.1], [0.05, 0.15]])
    got = cqp.multilayer_forward([layer], x, base)
    swapped = cqp.multilayer_forward([layer[::-1, ::-1]], x[::-1], flipped)
    np.testing.assert_allclose(got, swapped, atol=1e-12)


def test_multilayer_rejects_bad_layer_shape():
    config = PerceptronConfig.type_ii(1)
    with pytest.raises(ValueError):
        cqp.multilayer_forward([np.zeros((3, 2))], np.array([0.1, 0.2]), config)


def test_type_equivalence_under_unitaries():
    config = PerceptronConfig.type_ii(2)
    assert cqp.type_equivalence_check(config, np.eye(4), seed=0)
    rng = np.random.default_rng(8)
    u = linalg.random_unitary(4, rng)
    assert cqp.type_equivalence_check(config, u, seed=1)
    local = linalg.tensor(linalg.expm_i(np.array([[0, 1], [1, 0]], dtype=complex), 0.3),
                          linalg.expm_i(np.array([[1, 0], [0, -1]], dtype=complex), 0.8))
    assert cqp.type_equivalence_check(config, local, seed=2)


def test_type_equivalence_rejects_non_unitary():
    config = PerceptronConfig.type_ii(1)
    with pytest.raises(ValueError, match="not unitary"):
        cqp.type_equivalence_check(config, 2.0 * np.eye(2))


def test_operator_activation_reference_basis_state():
    y, cost, readout = cqp.operator_activation_forward(
        simulator.basis_state(2, 0), Activation.IDENTITY, 0, simulator.basis_state(2, 0))
    np.testing.assert_allclose(y, simulator.basis_state(2, 0), atol=1e-12)
    assert cost == pytest.approx(1.0, abs=1e-12)
    assert readout == pytest.approx(1.0, abs=1e-12)


def test_operator_activation_uniform_readout():
    x = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    _, _, readout = cqp.operator_activation_forward(
        x, Activation.IDENTITY, 0, simulator.basis_state(1, 0))
    assert readout == pytest.approx(2.0 * (1 / np.sqrt(2.0)) ** 3, abs=1e-12)


def test_operator_activation_degenerate_reference():
    with pytest.raises(ValueError):
        cqp.operator_activation_forward(
            simulator.basis_state(1, 1), Activation.IDENTITY, 0, simulator.basis_state(1, 0))


def test_activation_ranges():
    assert Activation.CLAMP.apply(3.0) == 1.0
    assert Activation.CLAMP.apply(-3.0) == -1.0
    assert Activation.TANH.apply(50.0) <= 1.0
    assert Activation.IDENTITY.apply(0.4) == 0.4
