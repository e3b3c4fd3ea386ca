"""Perceptron encode/forward/train tests with closed-form oracles."""
import dataclasses
import math
import re

import numpy as np
import pytest

from cliffsim import cqp, linalg, simulator
from cliffsim.clifford import Blade, blade_products
from cliffsim.cqp import Activation, PerceptronConfig, TrainingSample


def _config(n, index_sets, output_indices, **kw):
    """A config over explicit blade index sets, which must pairwise anticommute."""
    return PerceptronConfig(n, tuple(Blade(n, tuple(s)) for s in index_sets),
                            Blade(n, tuple(output_indices)), **kw)


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
    config = _config(2, [(0, 3)], (0,))
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


def test_non_generator_blade_list_encode_matches_expm_i_route():
    """Blades that pairwise anticommute but are not generators take the
    closed form too."""
    config = _config(2, [(0, 1), (1, 2), (1, 3)], (0,))
    rng = np.random.default_rng(70)
    for c in [np.zeros(3), *rng.uniform(-2.0, 2.0, size=(5, 3))]:
        h = sum(cj * b.dense() for cj, b in zip(c, config.active_blades))
        want = linalg.expm_i(h) @ simulator.basis_state(2, 0)
        np.testing.assert_allclose(cqp.encode(config, c), want, atol=1e-12)


def test_config_refuses_commuting_active_blades():
    with pytest.raises(ValueError, match=re.escape(
            "active blades [(0,), (1, 2)] do not pairwise anticommute")):
        _config(2, [(0,), (1, 2)], (0,))
    with pytest.raises(ValueError, match="do not pairwise anticommute"):
        _config(2, [(0,), (1,), (0, 1, 2)], (0,))  # only (0, 1, 2) commutes with both


_STACK_CONFIGS = [
    *(PerceptronConfig.type_ii(n) for n in (1, 2, 3)),
    _config(2, [(0, 1), (1, 2), (1, 3)], (0,)),        # anticommuting grade-2 blades
    _config(2, [(0, 1, 2), (0, 1, 3), (0, 2, 3)], (0,)),  # anticommuting grade-3 blades
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


@pytest.mark.parametrize("config", _STACK_CONFIGS[:3])
def test_forward_pairs_stacked_rows_bit_for_bit(config):
    """forward pairs x (..., d) with w (..., d) row by row, broadcasting; each
    pair has the bits of its own one-row call."""
    m, d = len(config.active_blades), 2 ** config.n
    rng = np.random.default_rng(140 + m)
    xs = cqp.encode(config, rng.uniform(-1.0, 1.0, (2, 3, m)))
    ws = cqp.encode(config, rng.uniform(-1.0, 1.0, (3, m)))  # broadcasts against xs
    for x, w in ((xs, ws), (xs[0, 0], ws), (xs, ws[0])):
        phis, ys = cqp.forward(x, w, config.activation, config.output_blade)
        shape = np.broadcast_shapes(x.shape, w.shape)
        assert phis.shape == shape[:-1] and ys.shape == shape
        for idx in np.ndindex(shape[:-1]):
            phi, y = cqp.forward(np.broadcast_to(x, shape)[idx], np.broadcast_to(w, shape)[idx],
                                 config.activation, config.output_blade)
            assert phis[idx] == phi and np.array_equal(ys[idx], y)
    for bad in (np.zeros((3, 2 * d), dtype=complex), np.complex128(1.0)):
        with pytest.raises(ValueError, match="states of one length d"):
            cqp.forward(xs, bad, config.activation, config.output_blade)
        with pytest.raises(ValueError, match="states of one length d"):
            cqp.forward(bad, xs, config.activation, config.output_blade)


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
    column = sum(cj / norm * b.dense()[:, 0] for cj, b in zip(c, config.active_blades))
    want = math.cos(norm) * simulator.basis_state(1, 0) + 1j * math.sin(norm) * column
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("activation", list(Activation))
def test_nan_weight_row_fails_the_activation_guard(activation):
    x = simulator.basis_state(1, 0)
    for w in (np.array([np.nan, 0j]), np.array([x, [np.nan, 0j]])):
        with pytest.raises(ValueError, match="activation output nan is outside"):
            cqp.forward(x, w, activation, Blade(1, (0,)))


@pytest.mark.parametrize("config", [_STACK_CONFIGS[0], _STACK_CONFIGS[3]])
def test_encode_rejects_an_overflowing_norm(config):
    coeffs = np.zeros((2, len(config.active_blades)))
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


def test_non_generator_encode_equals_the_two_term_formula():
    config = _STACK_CONFIGS[3]
    e0 = simulator.basis_state(config.n, 0)
    columns = blade_products(config.n, config.active_blades)[:, :, 0]
    rng = np.random.default_rng(120)
    for norm in _ANGLES:
        unit = rng.normal(size=np.shape(norm) + (3,))
        unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
        a = np.asarray(norm)[..., None]
        want = np.cos(a) * e0 + 1j * np.sin(a) * (unit @ columns)
        got = cqp._rotate_ground(unit @ config._i_blade_columns, norm)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("config", [
    *(PerceptronConfig.type_ii(n) for n in (1, 2, 3, 4)), *_STACK_CONFIGS[3:]])
def test_blade_stack_equals_the_stacked_blade_matrices(config):
    want = np.stack([b.dense() for b in config.active_blades])
    assert np.array_equal(blade_products(config.n, config.active_blades), want)


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
    with pytest.raises(ValueError):
        _config(1, [], (0,))  # no active blades
    with pytest.raises(ValueError):
        _config(1, [()], (0,))  # identity blade
    with pytest.raises(ValueError):
        _config(1, [(0,), (0,)], (0,))  # duplicate


def test_forward_identical_states():
    # Re<x|x> = 1 gives the smallest angle, arccos(tanh 1)
    config = PerceptronConfig.type_ii(1)
    x = cqp.encode(config, [0.2, 0.1])
    phi, y = cqp.forward(x, x, Activation.TANH, config.output_blade)
    want = math.acos(math.tanh(1.0))
    assert phi == pytest.approx(want, abs=1e-12)
    np.testing.assert_allclose(y, [math.cos(want), 1j * math.sin(want)], atol=1e-12)


def test_forward_orthogonal_states():
    phi, _ = cqp.forward(simulator.basis_state(1, 0), simulator.basis_state(1, 1),
                         Activation.TANH, Blade(1, (0,)))
    assert phi == pytest.approx(np.pi / 2, abs=1e-12)


def test_forward_output_rotation_closed_form():
    # phi = pi/3 about the X generator
    w = simulator.basis_state(1, 0)
    v = math.atanh(0.5)
    x = np.array([v, math.sqrt(1.0 - v * v) * 1j])  # Re<x|w> = atanh(0.5)
    phi, y = cqp.forward(x, w, Activation.TANH, Blade(1, (0,)))
    assert phi == pytest.approx(np.pi / 3, abs=1e-12)
    np.testing.assert_allclose(
        y, [np.cos(np.pi / 3), 1j * np.sin(np.pi / 3)], atol=1e-12)
    want = linalg.expm_i(Blade(1, (0,)).dense(), phi) @ simulator.basis_state(1, 0)
    np.testing.assert_allclose(y, want, atol=1e-12)


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
    """Every record of a seeded grid of runs stays within the allowance of
    F*(beta); at beta = 0 and +-pi, where F* < 1, training reaches it."""
    for n in (1, 2):
        for beta in [*np.linspace(-4.0, 4.0, 9).tolist(), -math.pi, math.pi]:
            rng = np.random.default_rng(170 + n)
            sample = TrainingSample(rng.uniform(0.1, 0.6, 2 * n), beta)
            records = cqp.train(PerceptronConfig.type_ii(n, eta=0.5), sample,
                                rng.uniform(0.0, 0.5, 2 * n), iterations=100)
            best = cqp.max_fidelity(beta)
            top = max(rec.fidelity for rec in records)
            assert top <= best + cqp.MAX_FIDELITY_SLACK, (n, beta)
            if beta in (0.0, -math.pi, math.pi):
                assert top >= best - 1e-12, (n, beta)


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
    _config(2, [(0, 1), (1, 2), (1, 3)], (1,), activation=Activation.TANH, eta=0.5),
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


def _reference_train(config, sample, theta0, iterations, fd_step):
    """train as a loop over the public encode and forward: one (2m + 1, m)
    stack per iteration, everything else recomputed on every call."""
    m = len(config.active_blades)
    x = cqp.encode(config, sample.input_coeffs)
    ref = np.conj(cqp.target_state(config.output_blade, sample.target_angle))

    def score(thetas):
        _, y = cqp.forward(x, cqp.encode(config, thetas), config.activation,
                           config.output_blade)
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
    _config(2, [(0, 1), (1, 2), (1, 3)], (1,), eta=0.5),  # not generators
]
_TRAIN_IDS = ["ii-n1", "ii-n2", "ii-n2-out3", "ii-n3", "ii-n4-out7", "anticommuting-n2"]

# Two routes that round differently may score one row a few ulps apart; DELTA
# (about 4.5 ulps of 1) bounds that.  A central difference turns it into at
# most DELTA / h in a gradient component, so each step moves theta at most
# eta * DELTA / h off the other route, and k steps k times that.
_SCORE_DELTA = 1e-15


@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("config", _TRAIN_CONFIGS, ids=_TRAIN_IDS)
def test_train_equals_a_loop_over_encode_and_forward(config, activation):
    config = dataclasses.replace(config, activation=activation)
    m = len(config.active_blades)
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
        m = len(config.active_blades)
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


def _spoiling_scorer(spoil, spoiled_call, calls):
    """A stand-in for cqp._fidelity_scorer whose score(theta, h) records h and
    runs spoil(score, theta, h) in call number spoiled_call (from 1), and
    the real score elsewhere; an unspoiled call gives 2m + 1 scores for h > 0
    and one for h = 0."""
    def scorer(cfg, smp):
        score = _FIDELITY_SCORER(cfg, smp)

        def spoiled(theta, h):
            calls.append(h)
            if len(calls) == spoiled_call:
                return spoil(score, theta, h)
            fids = score(theta, h)
            assert len(fids) == (2 * len(theta) + 1 if h else 1)
            return fids
        return spoiled
    return scorer


@pytest.mark.parametrize("component", [0, 1])
def test_non_finite_neighbour_score_names_its_component(monkeypatch, component):
    config, sample, theta0 = _toy_task(4)

    def nan_neighbour(score, theta, h):
        fids = score(theta, h)
        fids[1 + component] = math.nan  # the score of theta + h*e_component
        return fids

    monkeypatch.setattr(cqp, "_fidelity_scorer", _spoiling_scorer(nan_neighbour, 1, []))
    with pytest.raises(ValueError, match=f"non-finite finite-difference gradient at "
                                         f"component {component} "):
        cqp.train(config, sample, theta0, iterations=2)


def _rows(theta, h):
    """The explicit rows theta, theta + h*e_j (j = 0..m-1), theta - h*e_j,
    or theta alone for h = 0."""
    if not h:
        return theta[None]
    bumps = h * np.eye(len(theta))
    return np.concatenate([theta[None], theta + bumps, theta - bumps])


@pytest.mark.parametrize("n, output_index", [(1, 0), (1, 1), (2, 0), (2, 3)])
def test_row_score_matches_the_dense_oracle(n, output_index):
    """Every one of the 2m + 1 scores of a call, against the dense oracle on
    its explicit row, at h = 0, the default step and 0.0099, the largest the
    CLI takes: theta = 0 (c = 0, and neighbours of norm h) and six random
    thetas in [-2, 2]^m at 1e-12, and a theta of norm 1e6.  One ulp of
    |c| = 1e6 is 1.2e-10, so no double-precision route, the oracle's
    eigensolve included, pins F to 1e-12 there (the gap seen is up to 3.2
    ulps); its rows are allowed 1e-12 plus 8 ulps of their norm."""
    rng = np.random.default_rng(130 + 10 * n + output_index)
    config = PerceptronConfig.type_ii(n, output_index=output_index,
                                      activation=Activation.TANH)
    m = len(config.active_blades)
    for target in (0.7, -0.4, -2.3):  # negative target angles too
        coeffs = rng.uniform(-1.0, 1.0, m)
        coeffs[0] = -abs(coeffs[0])
        sample = TrainingSample(coeffs, target)
        x_conj = np.conj(cqp.encode(config, coeffs))
        assert (config._i_blade_columns @ x_conj).real[0] < 0  # a negative b_0
        score = cqp._fidelity_scorer(config, sample)
        small = [np.zeros(m), *rng.uniform(-2.0, 2.0, (6, m))]
        big = rng.uniform(-1.0, 1.0, m)
        big *= 1e6 / np.linalg.norm(big)
        for theta, ulps in [*((t, 0) for t in small), (big, 8)]:
            for h in (0.0, 1e-5, 0.0099):
                fids = score(theta.tolist(), h)
                rows = _rows(theta, h)
                assert len(fids) == len(rows) and all(type(f) is float for f in fids)
                for row, f in zip(rows, fids):
                    tol = 1e-12 + ulps * math.ulp(float(np.linalg.norm(row)))
                    assert abs(f - _oracle_fidelity(config, sample, row)) <= tol


def test_neighbours_past_the_overflow_of_the_squared_norm_score_as_theta():
    """Past |theta| = 2^511, |theta|^2 overflows, but the h terms of a
    neighbour's squared norm are below half an ulp of it and its overlap
    rounds to theta's, so every neighbour scores as theta does."""
    config = PerceptronConfig.type_ii(2)
    score = cqp._fidelity_scorer(config, TrainingSample(np.full(4, 0.3), 0.7))
    for theta in ([1e200, 0.5, -3e199, 0.0], [0.0, 0.0, 0.0, -1.4e154]):
        assert math.isinf(math.fsum(t * t for t in theta))
        assert score(theta, 0.0099) == score(theta, 0.0) * 9


def test_configs_with_one_blade_list_share_its_invariants():
    """The blade invariants are cached per blade list, not per config: two
    configs with the same blades share one read-only column array."""
    first, second = PerceptronConfig.type_ii(2), PerceptronConfig.type_ii(2, eta=0.5)
    assert first is not second
    assert first._i_blade_columns is second._i_blade_columns
    with pytest.raises(ValueError, match="read-only"):
        first._i_blade_columns[0, 0] = 0.0
    want = 1j * blade_products(2, first.active_blades)[:, :, 0]
    assert np.array_equal(first._i_blade_columns, want)
    other = _config(2, [(0,), (1,)], (1,))  # a different list on n = 2
    assert other._i_blade_columns is not first._i_blade_columns


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
    m = len(config.active_blades)
    calls = []
    spoil = lambda score, theta, h: score([*bad, *theta[2:]], h)  # noqa: E731
    monkeypatch.setattr(cqp, "_fidelity_scorer", _spoiling_scorer(spoil, spoiled_call, calls))
    sample = TrainingSample(np.full(m, 0.3), 0.7)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cqp.train(config, sample, np.full(m, 0.2), iterations=5)
    assert calls == [1e-5] * spoiled_call


def test_train_rejects_a_nan_activation_output(monkeypatch):
    config, sample, theta0 = _toy_task(5)
    float_form = config.activation.float_form
    rows = []

    def nan_in_row_two(u):  # row 2 of the first iteration
        rows.append(u)
        return math.nan if len(rows) == 3 else float_form(u)

    monkeypatch.setattr(Activation, "float_form", property(lambda self: nan_in_row_two))
    with pytest.raises(ValueError, match=r"^activation output nan is outside \[-1, 1\]; "
                                         r"arccos undefined$"):
        cqp.train(config, sample, theta0, iterations=2)
    assert len(rows) == 3


_TRAIN_GUARDS = {  # guard: (what the spoiled scorer call returns, the message)
    "finite-coefficients": (lambda score, theta, h: score([math.nan, *theta[1:]], h),
                            "coefficients must be finite"),
    "finite-norm": (lambda score, theta, h: score([1.5e308, 1.5e308, *theta[2:]], h),
                    "coefficient norm overflows float64"),
    "activation-range": (None, r"activation output nan is outside \[-1, 1\]; arccos undefined"),
    "record-fidelity": (lambda score, theta, h: [math.nan, *score(theta, h)[1:]],
                        r"fidelity nan outside \[0, 1\]"),
    "finite-gradient": (lambda score, theta, h: [*score(theta, h)[:-1], math.nan],
                        r"non-finite finite-difference gradient at component {last} "
                        r"\(activation kink or overflow\)"),
}


@pytest.mark.parametrize("guard", list(_TRAIN_GUARDS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("activation", list(Activation))
def test_every_training_guard_fires_at_every_iteration(monkeypatch, activation, n, guard):
    """One scorer call at a time is spoiled: calls 1..4 are the iterations and
    call 5 scores the final theta, which has no gradient.  The guard raises its
    message in the spoiled call, before the next one."""
    config = PerceptronConfig.type_ii(n, activation=activation)
    m = len(config.active_blades)
    sample = TrainingSample(np.full(m, 0.3), 0.7)
    spoil, message = _TRAIN_GUARDS[guard]
    float_form = activation.float_form
    nan_activation = []  # non-empty while a call spoiled by the activation runs
    monkeypatch.setattr(Activation, "float_form", property(
        lambda self: lambda u: math.nan if nan_activation else float_form(u)))
    if spoil is None:
        def spoil(score, theta, h):
            nan_activation.append(True)
            try:
                return score(theta, h)
            finally:
                nan_activation.clear()

    for spoiled_call in range(1, 6) if guard != "finite-gradient" else range(1, 5):
        calls = []
        monkeypatch.setattr(cqp, "_fidelity_scorer",
                            _spoiling_scorer(spoil, spoiled_call, calls))
        with pytest.raises(ValueError, match=f"^{message.format(last=m - 1)}$"):
            cqp.train(config, sample, np.full(m, 0.2), iterations=4)
        assert calls == [1e-5] * min(spoiled_call, 4) + [0.0] * (spoiled_call == 5)


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


def test_activation_ranges():
    assert Activation.TANH.apply(50.0) <= 1.0
    assert list(Activation) == [Activation.TANH]
