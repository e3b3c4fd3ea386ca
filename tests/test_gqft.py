"""Generalized Fourier transform: dense vs factored paths, distance bound."""
import numpy as np
import pytest

from cliffsim import gqft, linalg
from cliffsim.gqft import GqftParams
from cliffsim.simulator import basis_state

THETAS = (0.01, 0.1, 0.5, 1.0, 2.0)


def test_standard_qft_single_qubit_is_hadamard():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    np.testing.assert_allclose(gqft.standard_qft(1), h, atol=1e-12)


def test_standard_qft_two_qubits_roots_of_unity():
    f = gqft.standard_qft(2)
    grid = np.outer(np.arange(4), np.arange(4))
    np.testing.assert_allclose(f, (1j ** grid) / 2.0, atol=1e-12)
    assert linalg.unitarity_defect(f) <= 1e-12


def test_gamma_k_z_axes():
    params = GqftParams(1, 0.3, gqft.z_axes(1))
    z = np.diag([1.0, -1.0])
    gammas = gqft.gamma_stack(params)
    assert gammas.shape == (2, 2, 2)
    np.testing.assert_allclose(gammas[0], z, atol=1e-15)
    np.testing.assert_allclose(gammas[1], z, atol=1e-15)


def test_gamma_k_uniform_x_axes():
    ax = np.zeros((2, 2, 3))
    ax[:, :, 0] = 1.0
    params = GqftParams(2, 0.3, ax)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    want = np.kron(x, np.eye(2)) + np.kron(np.eye(2), x)
    for g in gqft.gamma_stack(params):
        np.testing.assert_allclose(g, want, atol=1e-15)


def test_gamma_k_spectrum_and_hermiticity():
    rng = np.random.default_rng(2)
    params = GqftParams(2, 0.4, gqft.random_bit_axes(2, rng))
    for g in gqft.gamma_stack(params):
        assert linalg.hermiticity_defect(g) <= 1e-12
        np.testing.assert_allclose(
            linalg.hermitian_eigen(g).eigenvalues, [-2.0, 0.0, 0.0, 2.0], atol=1e-10)


def _gamma_k_by_kron(params, k):
    """Gamma_k as an explicit sum of Kronecker chains, one per qubit."""
    n = params.n
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for l in range(n):
        bit = (k >> (n - 1 - l)) & 1
        out += np.kron(np.kron(np.eye(2 ** l), gqft.axis_dot_sigma(params.axes[l][bit])),
                       np.eye(2 ** (n - 1 - l)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_dense_transform_matches_a_per_k_loop(n):
    """Distinct bit axes make every Gamma_k differ, so a wrong k index in the
    stacked build or in the column pick cannot pass."""
    params = GqftParams(n, 0.7, gqft.random_bit_axes(n, np.random.default_rng(30 + n)))
    gammas = gqft.gamma_stack(params)
    cols = np.empty((2 ** n, 2 ** n), dtype=complex)
    for k in range(2 ** n):
        gamma = _gamma_k_by_kron(params, k)
        np.testing.assert_allclose(gammas[k], gamma, atol=1e-15)
        cols[:, k] = linalg.expm_i(gamma, params.theta) @ basis_state(n, k)
    np.testing.assert_allclose(
        gqft.gqft_dense(params), cols @ gqft.standard_qft(n), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factored_columns_match_kron_chains(n):
    theta = 0.7
    params = GqftParams(n, theta, gqft.random_bit_axes(n, np.random.default_rng(40 + n)))
    cols = gqft.gqft_column_factored(params)
    assert cols.shape == (2 ** n, 2 ** n)
    for j in range(2 ** n):
        col = np.ones(1, dtype=complex)
        for l in range(1, n + 1):
            r0 = gqft.axis_rotation(params.axes[l - 1][0], theta)
            r1 = gqft.axis_rotation(params.axes[l - 1][1], theta)
            phase = np.exp(2j * np.pi * j / 2 ** l)
            col = np.kron(col, (r0 @ [1, 0] + phase * (r1 @ [0, 1])) / np.sqrt(2.0))
        np.testing.assert_allclose(cols[:, j], col, atol=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        GqftParams(1, 0.1, np.zeros((1, 2, 3)))  # not unit vectors
    with pytest.raises(ValueError):
        GqftParams(1, -0.5, gqft.z_axes(1))
    with pytest.raises(ValueError):
        GqftParams(5, 0.1, gqft.z_axes(5))


@pytest.mark.parametrize("theta", [np.nan, np.inf])
def test_params_reject_a_non_finite_theta(theta):
    with pytest.raises(ValueError, match="finite theta"):
        GqftParams(1, theta, gqft.z_axes(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_params_reject_a_non_finite_axis(bad):
    axes = gqft.z_axes(2)
    axes[1, 0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        GqftParams(2, 0.3, axes)


def test_gqft_theta_zero_is_standard():
    for n in (1, 2, 3):
        rng = np.random.default_rng(n)
        params = GqftParams(n, 0.0, gqft.random_axes(n, rng))
        np.testing.assert_allclose(
            gqft.gqft_dense(params), gqft.standard_qft(n), atol=1e-12)


def test_gqft_z_axis_columns_closed_form():
    theta = 0.62
    params = GqftParams(1, theta, gqft.z_axes(1))
    f = gqft.gqft_dense(params)
    ep, em = np.exp(1j * theta), np.exp(-1j * theta)
    np.testing.assert_allclose(f[:, 0], np.array([ep, em]) / np.sqrt(2.0), atol=1e-12)
    np.testing.assert_allclose(f[:, 1], np.array([ep, -em]) / np.sqrt(2.0), atol=1e-12)
    np.testing.assert_allclose(gqft.gqft_column_factored(params), f, atol=1e-12)


def test_gqft_unitary_for_shared_axes():
    for n in (1, 2, 3):
        for i, theta in enumerate(THETAS):
            for s in range(5):
                rng = np.random.default_rng(1000 * n + 10 * i + s)
                params = GqftParams(n, theta, gqft.random_axes(n, rng))
                assert linalg.unitarity_defect(gqft.gqft_dense(params)) <= 1e-10


def test_unitarity_requires_shared_axes_per_qubit():
    """Distinct bit axes rotate |0> and |1> onto non-orthogonal vectors, so
    the column set cannot resolve the identity; this pins the behavior so the
    unitarity checks keep drawing one axis per qubit."""
    rng = np.random.default_rng(7)
    params = GqftParams(3, 0.9, gqft.random_bit_axes(3, rng))
    assert linalg.unitarity_defect(gqft.gqft_dense(params)) > 0.1


def test_factored_columns_match_dense():
    for n in (1, 2, 3):
        for seed, draw in ((0, gqft.random_axes), (1, gqft.random_bit_axes)):
            rng = np.random.default_rng(50 * n + seed)
            params = GqftParams(n, 0.8, draw(n, rng))
            err = np.linalg.norm(gqft.gqft_dense(params) - gqft.gqft_column_factored(params),
                                 axis=0)
            assert err.max() <= 1e-10


def test_rotation_resolution_check():
    assert gqft.rotation_resolution_check(np.eye(2))
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    assert gqft.rotation_resolution_check(h)
    axis = np.array([0.6, 0.0, 0.8])
    assert gqft.rotation_resolution_check(gqft.axis_rotation(axis, 0.37))
    with pytest.raises(ValueError, match="not unitary"):
        gqft.rotation_resolution_check(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_distance_report_theta_zero():
    params = GqftParams(2, 0.0, gqft.z_axes(2))
    rep = gqft.distance_report(params)
    assert rep.distance_to_qft <= 1e-12
    assert rep.bound == 0.0


def test_distance_z_axis_closed_form():
    for theta in (0.1, 0.5, 1.0):
        params = GqftParams(1, theta, gqft.z_axes(1))
        rep = gqft.distance_report(params)
        want = np.sqrt(4.0 * (1.0 - np.cos(theta)))
        assert rep.distance_to_qft == pytest.approx(want, abs=1e-12)
        assert rep.distance_to_qft <= rep.bound


def test_distance_bound_on_grid():
    for n in (1, 2, 3):
        for i, theta in enumerate((0.01, 0.1, 0.5, 1.0)):
            for s in range(5):
                rng = np.random.default_rng(2000 * n + 10 * i + s)
                params = GqftParams(n, theta, gqft.random_axes(n, rng))
                rep = gqft.distance_report(params)
                assert rep.distance_to_qft <= rep.bound
                assert rep.max_column_factorization_error <= 1e-10


def test_distance_scales_linearly_for_small_theta():
    rng = np.random.default_rng(13)
    axes = gqft.random_axes(2, rng)
    ratios = []
    for theta in (1e-3, 1e-2):
        rep = gqft.distance_report(GqftParams(2, theta, axes))
        ratios.append(rep.distance_to_qft / theta)
    assert abs(ratios[1] - ratios[0]) <= 0.05 * ratios[0]
