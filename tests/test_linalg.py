"""Dense kernel tests: eigendecomposition, exponentials, norms, tensors."""
import numpy as np
import pytest

from cliffsim import clifford, linalg

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_expm_i_zero_matrix_is_identity():
    np.testing.assert_allclose(linalg.expm_i(np.zeros((2, 2)), 1.0), np.eye(2), atol=1e-14)


def test_expm_i_sigma_z_is_diagonal_phase():
    theta = 0.731
    got = linalg.expm_i(Z, theta)
    want = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_expm_i_sigma_x_quarter_turn():
    got = linalg.expm_i(X, np.pi / 2)
    np.testing.assert_allclose(got, 1j * X, atol=1e-12)


def test_expm_i_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.expm_i(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_expm_i_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.expm_i(np.zeros((2, 3)), 1.0)


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_expm_i_inverse_and_additivity(dim):
    rng = np.random.default_rng(41 + dim)
    h = linalg.random_hermitian(dim, rng)
    u = linalg.expm_i(h, 0.63)
    np.testing.assert_allclose(u @ linalg.expm_i(h, -0.63), np.eye(dim), atol=1e-10)
    np.testing.assert_allclose(
        linalg.expm_i(h, 0.63 + 0.29), u @ linalg.expm_i(h, 0.29), atol=1e-10)
    assert linalg.unitarity_defect(u) <= 1e-10
    assert abs(linalg.spectral_norm(u) - 1.0) <= 1e-10


def test_hermitian_eigen_reconstructs_and_orders():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 5, 8, 16):
        h = linalg.random_hermitian(dim, rng)
        eig = linalg.hermitian_eigen(h)
        v = eig.eigenvectors
        assert np.all(np.diff(eig.eigenvalues) >= 0)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)
        np.testing.assert_allclose(
            (v * eig.eigenvalues) @ v.conj().T, h, atol=1e-10)


def _corrupt(lam, v, fault):
    if fault == "non-orthonormal basis":
        v[..., :, 0] *= 1.0 + 1e-6  # still an eigenvector, so only orthonormality fails
    else:
        lam[..., 0] += 1e-6


@pytest.mark.parametrize("fault", ["non-orthonormal basis", "wrong eigenvalue"])
def test_hermitian_eigen_rejects_a_bad_lapack_result(monkeypatch, fault):
    rng = np.random.default_rng(19)
    h = linalg.random_hermitian(4, rng)
    # in a stack, a fault in one slice alone is caught; slice 0 has the
    # largest eigenvalues, so a check against the stack's largest scale
    # would let the fault in slice 1 through
    stack = np.stack([1e5 * linalg.random_hermitian(4, rng), h, linalg.random_hermitian(4, rng)])
    lam, v = np.linalg.eigh(h)
    lam_s, v_s = np.linalg.eigh(stack)
    _corrupt(lam, v, fault)
    _corrupt(lam_s[1], v_s[1], fault)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (lam, v))
    with pytest.raises(np.linalg.LinAlgError):
        linalg.hermitian_eigen(h)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (lam_s, v_s))
    with pytest.raises(np.linalg.LinAlgError):
        linalg.hermitian_eigen(stack)


@pytest.mark.parametrize("dim", [2, 8, 16])
def test_stacked_eigen_and_expm_i_match_per_matrix_calls(dim):
    rng = np.random.default_rng(60 + dim)
    stack = np.stack([linalg.random_hermitian(dim, rng) for _ in range(3)])
    lam, v = linalg.hermitian_eigen(stack)
    u = linalg.expm_i(stack, 0.47)
    assert lam.shape == (3, dim) and v.shape == u.shape == (3, dim, dim)
    for i, h in enumerate(stack):
        one = linalg.hermitian_eigen(h)
        np.testing.assert_allclose(lam[i], one.eigenvalues, rtol=0, atol=1e-14)
        np.testing.assert_allclose(v[i], one.eigenvectors, rtol=0, atol=1e-14)
        np.testing.assert_allclose(u[i], linalg.expm_i(h, 0.47), rtol=0, atol=1e-14)


def test_stack_with_one_non_hermitian_slice_is_rejected():
    rng = np.random.default_rng(5)
    stack = np.stack([linalg.random_hermitian(4, rng) for _ in range(3)])
    stack[2, 0, 1] += 1e-6
    for kernel in (linalg.hermitian_eigen, linalg.expm_i):
        with pytest.raises(ValueError, match="not Hermitian"):
            kernel(stack)
    with pytest.raises(ValueError):
        linalg.expm_i(np.zeros((3, 2, 4)))


@pytest.mark.parametrize("s", [0.0, 0.3, -0.3, np.pi / 2, -np.pi / 2, 2.7])
def test_involution_closed_form_matches_expm_i(s):
    for n in (1, 2, 3):
        for blade in clifford.hermitian_basis(n):
            b = blade.dense()
            np.testing.assert_allclose(
                linalg.expm_i_involution(b, s), linalg.expm_i(b, s), atol=1e-12,
                err_msg=f"n={n} indices={blade.indices}")


def test_spectral_norm_examples():
    assert linalg.spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert linalg.spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)
    assert linalg.spectral_norm(2.0 * np.kron(X, Y)) == pytest.approx(2.0, abs=1e-10)


def test_frobenius_norm_examples():
    assert linalg.frobenius_norm(np.eye(7)) == pytest.approx(np.sqrt(7.0), abs=1e-12)
    assert linalg.frobenius_norm(np.kron(X, Y)) == pytest.approx(2.0, abs=1e-12)


def test_frobenius_dominates_spectral():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert linalg.frobenius_norm(a) >= linalg.spectral_norm(a) - 1e-12


def test_tensor_mixed_product_rule():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                      for _ in range(4))
        np.testing.assert_allclose(
            linalg.tensor(a, b) @ linalg.tensor(c, d),
            linalg.tensor(a @ c, b @ d), atol=1e-12)


def test_embed_qubit_operator_positions():
    # qubit 1 is the most significant bit
    np.testing.assert_allclose(linalg.embed_qubit_operator(X, 1, 2), np.kron(X, np.eye(2)))
    np.testing.assert_allclose(linalg.embed_qubit_operator(X, 2, 2), np.kron(np.eye(2), X))
    np.testing.assert_allclose(
        linalg.embed_qubit_operator(Z, 2, 3), np.kron(np.kron(np.eye(2), Z), np.eye(2)))


def test_adjoint_and_defects():
    a = np.array([[1.0, 2.0 + 1j], [0.0, 1j]])
    np.testing.assert_allclose(linalg.adjoint(a), a.conj().T)
    assert linalg.hermiticity_defect(X) == pytest.approx(0.0, abs=1e-15)
    assert linalg.hermiticity_defect(Y) == pytest.approx(0.0, abs=1e-15)
    assert linalg.unitarity_defect(np.eye(3)) == 0.0
    assert linalg.unitarity_defect(2 * np.eye(3)) == pytest.approx(3.0 * np.sqrt(3.0))


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_unitarity_defect_is_the_larger_of_both_gram_defects(dim):
    # one Gram product suffices: for square M both defects are ||Sigma^2 - I||
    rng = np.random.default_rng(90 + dim)
    eye = np.eye(dim)
    for _ in range(5):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        both = max(np.linalg.norm(m @ m.conj().T - eye), np.linalg.norm(m.conj().T @ m - eye))
        assert linalg.unitarity_defect(m) == pytest.approx(both, rel=1e-12, abs=0)
        with pytest.raises(ValueError, match="here: input is not unitary"):
            linalg.require_unitary(m, "here")


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(23)
    u = linalg.random_unitary(8, rng)
    assert linalg.unitarity_defect(u) <= 1e-10
