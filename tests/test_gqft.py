"""Generalized Fourier transform: dense vs factored paths, distance bound."""
import numpy as np
import pytest

from cliffsim import gqft, linalg
from cliffsim.gqft import GqftParams
from cliffsim.simulator import basis_state

THETAS = (0.01, 0.1, 0.5, 1.0, 2.0)


def z_axes(n):
    """Every axis along z: Gamma_k is then diagonal."""
    ax = np.zeros((n, 2, 3))
    ax[:, :, 2] = 1.0
    return ax


def axis_rotation(axis, theta):
    """exp(i theta n.sigma) as a whole 2x2 matrix, by the closed form
    cos(theta) I + i sin(theta) n.sigma written out here: the per-theta,
    per-axis oracle of the factored route, sharing none of its code."""
    x, y, z = axis
    n_sigma = np.array([[z, x - 1j * y], [x + 1j * y, -z]])
    return np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * n_sigma


def test_axis_dot_sigma_of_a_stack_is_per_axis():
    axes = gqft.random_bit_axes(3, np.random.default_rng(5))
    sigma = gqft.axis_dot_sigma(axes)
    assert sigma.shape == (3, 2, 2, 2)
    for l in range(3):
        for b in range(2):
            assert np.array_equal(sigma[l, b], gqft.axis_dot_sigma(axes[l, b]))


def test_axis_dot_sigma_rejects_a_wrong_component_count():
    for axis in ([0.0, 0.0, 1.0, 5.0], [0.0, 1.0], np.zeros((2, 2, 4)), 1.0):
        with pytest.raises(ValueError, match="3 components"):
            gqft.axis_dot_sigma(axis)


def test_standard_qft_single_qubit_is_hadamard():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    np.testing.assert_allclose(gqft.standard_qft(1), h, atol=1e-12)


def test_standard_qft_two_qubits_roots_of_unity():
    f = gqft.standard_qft(2)
    grid = np.outer(np.arange(4), np.arange(4))
    np.testing.assert_allclose(f, (1j ** grid) / 2.0, atol=1e-12)
    assert linalg.unitarity_defect(f) <= 1e-12


def test_gamma_k_z_axes():
    z = np.diag([1.0, -1.0])
    gammas = gqft.gamma_stack(z_axes(1))
    assert gammas.shape == (2, 2, 2)
    np.testing.assert_allclose(gammas[0], z, atol=1e-15)
    np.testing.assert_allclose(gammas[1], z, atol=1e-15)


def test_gamma_k_uniform_x_axes():
    ax = np.zeros((2, 2, 3))
    ax[:, :, 0] = 1.0
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    want = np.kron(x, np.eye(2)) + np.kron(np.eye(2), x)
    for g in gqft.gamma_stack(ax):
        np.testing.assert_allclose(g, want, atol=1e-15)


def test_gamma_k_spectrum_and_hermiticity():
    rng = np.random.default_rng(2)
    for g in gqft.gamma_stack(gqft.random_bit_axes(2, rng)):
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
    gammas = gqft.gamma_stack(params.axes)
    cols = np.empty((2 ** n, 2 ** n), dtype=complex)
    for k in range(2 ** n):
        gamma = _gamma_k_by_kron(params, k)
        np.testing.assert_allclose(gammas[k], gamma, atol=1e-15)
        cols[:, k] = linalg.expm_i(gamma, params.theta) @ basis_state(n, k)
    np.testing.assert_allclose(gqft.gqft_dense_grid(params.axes, [params.theta])[0],
                               cols @ gqft.standard_qft(n), atol=1e-12)


def _mixed_axes():
    """n = 3 axes where exactly one qubit has two equal axes: qubit 3, the
    least significant bit, so the distinct Gamma_k are the even k."""
    axes = gqft.random_bit_axes(3, np.random.default_rng(90))
    axes[2, 1] = axes[2, 0]
    return axes


# (axes, number of distinct Gamma_k)
DRAWS = {
    "shared-n4": (lambda: gqft.random_axes(4, np.random.default_rng(91)), 1),
    "bit-n4": (lambda: gqft.random_bit_axes(4, np.random.default_rng(92)), 16),
    "mixed-n3": (_mixed_axes, 4),
}


@pytest.mark.parametrize("draw", DRAWS)
def test_dense_grid_matches_a_per_k_loop_for_each_draw(draw):
    """Solving each distinct Gamma_k once must give the columns of solving
    every Gamma_k from its own Kronecker chains."""
    axes = DRAWS[draw][0]()
    n = axes.shape[0]
    thetas = (0.0, 1e-9, 0.7, 2.0)
    grid = [GqftParams(n, theta, axes) for theta in thetas]
    dense = gqft.gqft_dense_grid(axes, thetas)
    for params, f_g in zip(grid, dense):
        cols = np.empty((2 ** n, 2 ** n), dtype=complex)
        for k in range(2 ** n):
            cols[:, k] = linalg.expm_i(_gamma_k_by_kron(params, k), params.theta)[:, k]
        np.testing.assert_allclose(f_g, cols @ gqft.standard_qft(n), rtol=0, atol=1e-15)


def test_gamma_stack_rejects_malformed_axes():
    axes = gqft.random_bit_axes(2, np.random.default_rng(6))
    assert gqft.gamma_stack(axes).shape == (4, 4, 4)
    non_finite = axes.copy()
    non_finite[0, 1, 2] = np.inf
    for bad_axes, message in ((axes[:, 0], r"shape \(n, 2, 3\)"),
                              (axes[:, :, :2], r"shape \(n, 2, 3\)"),
                              (2 * axes, "unit vectors"),
                              (non_finite, "non-finite"),
                              (z_axes(5), "1 <= n <= 4")):
        with pytest.raises(ValueError, match=message):
            gqft.gamma_stack(bad_axes)


@pytest.mark.parametrize("draw", DRAWS)
def test_dense_grid_solves_each_distinct_gamma_once(draw, monkeypatch):
    axes, distinct = DRAWS[draw][0](), DRAWS[draw][1]
    sizes = []
    real = linalg.hermitian_eigen
    monkeypatch.setattr(linalg, "hermitian_eigen",
                        lambda h: sizes.append(np.shape(h)[:-2]) or real(h))
    n = axes.shape[0]
    gqft.gqft_dense_grid(axes, (0.1, 0.5, 2.0))
    assert sizes == [(distinct,)]


def _factored_by_kron(params):
    """Every column as an explicit Kronecker chain of whole 2x2 rotations."""
    n, theta = params.n, params.theta
    cols = np.empty((2 ** n, 2 ** n), dtype=complex)
    for j in range(2 ** n):
        col = np.ones(1, dtype=complex)
        for l in range(1, n + 1):
            r0 = axis_rotation(params.axes[l - 1][0], theta)
            r1 = axis_rotation(params.axes[l - 1][1], theta)
            phase = np.exp(2j * np.pi * j / 2 ** l)
            col = np.kron(col, (r0 @ [1, 0] + phase * (r1 @ [0, 1])) / np.sqrt(2.0))
        cols[:, j] = col
    return cols


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factored_columns_match_kron_chains(n):
    params = GqftParams(n, 0.7, gqft.random_bit_axes(n, np.random.default_rng(40 + n)))
    cols = gqft.gqft_column_factored_grid(params.axes, [params.theta])[0]
    assert cols.shape == (2 ** n, 2 ** n)
    np.testing.assert_allclose(cols, _factored_by_kron(params), atol=1e-15)


@pytest.mark.parametrize("draw", [gqft.random_axes, gqft.random_bit_axes])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factored_grid_matches_per_theta_columns(n, draw):
    """T = 2^n thetas: a theta applied along the column or qubit axis would
    still broadcast.  Each theta slice is the one-theta grid at that theta."""
    axes = draw(n, np.random.default_rng(60 + n))
    thetas = [0.0, 1e-9, *np.linspace(0.3, 2.5, 2 ** n - 2)]
    grid = [GqftParams(n, theta, axes) for theta in thetas]
    cols = gqft.gqft_column_factored_grid(axes, thetas)
    assert cols.shape == (2 ** n, 2 ** n, 2 ** n)
    for params, c in zip(grid, cols):
        np.testing.assert_allclose(
            c, gqft.gqft_column_factored_grid(axes, [params.theta])[0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(c, _factored_by_kron(params), rtol=0, atol=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        GqftParams(1, 0.1, np.zeros((1, 2, 3)))  # not unit vectors
    with pytest.raises(ValueError):
        GqftParams(1, -0.5, z_axes(1))
    with pytest.raises(ValueError):
        GqftParams(5, 0.1, z_axes(5))


@pytest.mark.parametrize("theta", [np.nan, np.inf])
def test_params_reject_a_non_finite_theta(theta):
    with pytest.raises(ValueError, match="finite theta"):
        GqftParams(1, theta, z_axes(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_params_reject_a_non_finite_axis(bad):
    axes = z_axes(2)
    axes[1, 0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        GqftParams(2, 0.3, axes)


def test_gqft_theta_zero_is_standard():
    for n in (1, 2, 3):
        rng = np.random.default_rng(n)
        params = GqftParams(n, 0.0, gqft.random_axes(n, rng))
        np.testing.assert_allclose(gqft.gqft_dense_grid(params.axes, [params.theta])[0],
                                   gqft.standard_qft(n), atol=1e-12)


def test_gqft_z_axis_columns_closed_form():
    theta = 0.62
    params = GqftParams(1, theta, z_axes(1))
    f = gqft.gqft_dense_grid(params.axes, [theta])[0]
    ep, em = np.exp(1j * theta), np.exp(-1j * theta)
    np.testing.assert_allclose(f[:, 0], np.array([ep, em]) / np.sqrt(2.0), atol=1e-12)
    np.testing.assert_allclose(f[:, 1], np.array([ep, -em]) / np.sqrt(2.0), atol=1e-12)
    np.testing.assert_allclose(gqft.gqft_column_factored_grid(params.axes, [theta])[0], f,
                               atol=1e-12)


def test_gqft_unitary_for_shared_axes():
    for n in (1, 2, 3):
        for i, theta in enumerate(THETAS):
            for s in range(5):
                rng = np.random.default_rng(1000 * n + 10 * i + s)
                params = GqftParams(n, theta, gqft.random_axes(n, rng))
                dense = gqft.gqft_dense_grid(params.axes, [params.theta])[0]
                assert linalg.unitarity_defect(dense) <= 1e-10


def test_unitarity_requires_shared_axes_per_qubit():
    """Distinct bit axes rotate |0> and |1> onto non-orthogonal vectors, so
    the column set cannot resolve the identity; this pins the behavior so the
    unitarity checks keep drawing one axis per qubit."""
    rng = np.random.default_rng(7)
    params = GqftParams(3, 0.9, gqft.random_bit_axes(3, rng))
    assert linalg.unitarity_defect(gqft.gqft_dense_grid(params.axes, [params.theta])[0]) > 0.1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_theta_grid_matches_per_theta_transforms(n):
    """T = 2^n thetas: a theta applied along the k axis would still broadcast.
    Each theta slice is the one-theta grid at that theta."""
    axes = gqft.random_bit_axes(n, np.random.default_rng(80 + n))
    thetas = np.linspace(0.05, 2.0, 2 ** n)
    grid = [GqftParams(n, theta, axes) for theta in thetas]
    dense = gqft.gqft_dense_grid(axes, thetas)
    assert dense.shape == (2 ** n, 2 ** n, 2 ** n)
    unitarity, distances = gqft.unitarity_grid(axes, thetas), gqft.distance_grid(axes, thetas)
    assert len(unitarity) == len(distances) == len(thetas)
    for params, f_g, (defect, col_err), (distance, bound) in zip(grid, dense, unitarity,
                                                                distances):
        np.testing.assert_allclose(
            f_g, gqft.gqft_dense_grid(axes, [params.theta])[0], rtol=0, atol=1e-14)
        one = gqft.distance_report(params)
        assert one.theta == params.theta
        np.testing.assert_allclose(
            [defect, col_err, distance],
            [one.unitarity_defect, one.max_column_factorization_error, one.distance_to_qft],
            rtol=0, atol=1e-14)
        assert bound == one.bound == gqft.distance_bound(n, params.theta)
        # each stacked reduction gives the bits of its own per-theta form
        assert col_err == np.linalg.norm(
            f_g - gqft.gqft_column_factored_grid(axes, [params.theta])[0], axis=0).max()
        assert defect == linalg.unitarity_defect(f_g)
        assert distance == linalg.frobenius_norm(f_g - gqft.standard_qft(n))


def test_theta_grid_routes_reject_a_bad_draw():
    """Each grid route checks its axes and thetas as GqftParams does: the
    public routes in front of their kernels, unitarity_grid once for both."""
    axes = gqft.random_axes(2, np.random.default_rng(4))
    non_finite = axes.copy()
    non_finite[1, 0, 0] = np.nan
    for route in (gqft.gqft_dense_grid, gqft.gqft_column_factored_grid, gqft.unitarity_grid,
                  gqft.distance_grid):
        for bad_axes, thetas, message in ((axes, [], "finite theta"),
                                          (axes, [0.1, -0.5], "finite theta"),
                                          (axes, [np.nan, 0.1], "finite theta"),
                                          (axes, [0.1, np.inf], "finite theta"),
                                          (axes, [[0.1, 0.5]], "finite theta"),
                                          (axes, 0.1, "finite theta"),
                                          (2 * axes, [0.1], "unit vectors"),
                                          (non_finite, [0.1], "non-finite"),
                                          (axes[None], [0.1], r"shape \(n, 2, 3\)"),
                                          (axes[:, :, :2], [0.1], r"shape \(n, 2, 3\)"),
                                          (z_axes(5), [0.1], "1 <= n <= 4")):
            with pytest.raises(ValueError, match=message):
                route(bad_axes, thetas)


@pytest.mark.parametrize("draw", DRAWS)
def test_each_route_checks_its_axes_once(draw, monkeypatch):
    """unitarity_grid checks its grid once and runs both kernels on it; each
    public route, and GqftParams, checks its axes once in front of its kernel."""
    axes = DRAWS[draw][0]()
    n = axes.shape[0]
    calls = []
    real = gqft._checked_axes
    monkeypatch.setattr(gqft, "_checked_axes", lambda ax: calls.append(1) or real(ax))
    for call in (lambda: gqft.unitarity_grid(axes, (0.1, 0.5, 2.0)),
                 lambda: gqft.distance_grid(axes, (0.1, 0.5, 2.0)),
                 lambda: gqft.gqft_dense_grid(axes, (0.1, 0.5)),
                 lambda: gqft.gqft_column_factored_grid(axes, (0.1, 0.5)),
                 lambda: gqft.gamma_stack(axes),
                 lambda: gqft.GqftParams(n, 0.5, axes)):
        calls.clear()
        call()
        assert len(calls) == 1


def test_factored_columns_match_dense():
    for n in (1, 2, 3):
        for seed, draw in ((0, gqft.random_axes), (1, gqft.random_bit_axes)):
            rng = np.random.default_rng(50 * n + seed)
            params = GqftParams(n, 0.8, draw(n, rng))
            dense = gqft.gqft_dense_grid(params.axes, [params.theta])[0]
            factored = gqft.gqft_column_factored_grid(params.axes, [params.theta])[0]
            err = np.linalg.norm(dense - factored, axis=0)
            assert err.max() <= 1e-10


def test_rotation_resolution_check():
    assert gqft.rotation_resolution_check(np.eye(2))
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    assert gqft.rotation_resolution_check(h)
    axis = np.array([0.6, 0.0, 0.8])
    assert gqft.rotation_resolution_check(axis_rotation(axis, 0.37))
    with pytest.raises(ValueError, match="not unitary"):
        gqft.rotation_resolution_check(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_distance_report_theta_zero():
    params = GqftParams(2, 0.0, z_axes(2))
    rep = gqft.distance_report(params)
    assert rep.distance_to_qft <= 1e-12
    assert rep.bound == 0.0


def test_distance_z_axis_closed_form():
    for theta in (0.1, 0.5, 1.0):
        params = GqftParams(1, theta, z_axes(1))
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
