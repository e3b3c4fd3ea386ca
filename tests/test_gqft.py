"""Generalized Fourier transform: dense vs factored paths, distance bound."""
import numpy as np
import pytest

from cliffsim import gqft, linalg
from cliffsim.gqft import GqftParams

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
    np.testing.assert_allclose(gqft.gamma_k(params, 0), z, atol=1e-15)
    np.testing.assert_allclose(gqft.gamma_k(params, 1), z, atol=1e-15)


def test_gamma_k_uniform_x_axes():
    ax = np.zeros((2, 2, 3))
    ax[:, :, 0] = 1.0
    params = GqftParams(2, 0.3, ax)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    want = np.kron(x, np.eye(2)) + np.kron(np.eye(2), x)
    for k in range(4):
        np.testing.assert_allclose(gqft.gamma_k(params, k), want, atol=1e-15)


def test_gamma_k_spectrum_and_hermiticity():
    rng = np.random.default_rng(2)
    params = GqftParams(2, 0.4, gqft.random_bit_axes(2, rng))
    for k in range(4):
        g = gqft.gamma_k(params, k)
        assert linalg.hermiticity_defect(g) <= 1e-12
        np.testing.assert_allclose(
            linalg.hermitian_eigen(g).eigenvalues, [-2.0, 0.0, 0.0, 2.0], atol=1e-10)


def test_gamma_k_index_range():
    params = GqftParams(1, 0.1, gqft.z_axes(1))
    with pytest.raises(ValueError):
        gqft.gamma_k(params, 2)


def test_params_validation():
    with pytest.raises(ValueError):
        GqftParams(1, 0.1, np.zeros((1, 2, 3)))  # not unit vectors
    with pytest.raises(ValueError):
        GqftParams(1, -0.5, gqft.z_axes(1))
    with pytest.raises(ValueError):
        GqftParams(5, 0.1, gqft.z_axes(5))


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
    np.testing.assert_allclose(
        gqft.gqft_column_factored(params, 0), f[:, 0], atol=1e-12)


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
            f = gqft.gqft_dense(params)
            for j in range(2 ** n):
                err = np.linalg.norm(f[:, j] - gqft.gqft_column_factored(params, j))
                assert err <= 1e-10


def test_column_index_range():
    params = GqftParams(1, 0.1, gqft.z_axes(1))
    with pytest.raises(ValueError):
        gqft.gqft_column_factored(params, 2)


def test_rotation_resolution_check():
    assert gqft.rotation_resolution_check(np.eye(2))
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    assert gqft.rotation_resolution_check(h)
    axis = np.array([0.6, 0.0, 0.8])
    assert gqft.rotation_resolution_check(gqft.axis_rotation(axis, 0.37))
    with pytest.raises(ValueError):
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
