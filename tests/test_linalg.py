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


@pytest.mark.parametrize("dim", [2, 16])
def test_expm_i_of_an_array_of_s_matches_per_s_calls(dim):
    rng = np.random.default_rng(70 + dim)
    stack = np.stack([linalg.random_hermitian(dim, rng) for _ in range(3)])
    s = np.array([0.05, -0.8, 2.0, 0.3])  # T = 4 != K = 3: a swapped axis cannot broadcast
    u = linalg.expm_i(stack, s)
    assert u.shape == (4, 3, dim, dim)
    for t, s_t in enumerate(s):
        np.testing.assert_allclose(u[t], linalg.expm_i(stack, s_t), rtol=0, atol=1e-14)
        for k, h in enumerate(stack):
            np.testing.assert_allclose(u[t, k], linalg.expm_i(h, s_t), rtol=0, atol=1e-14)
    # T = K: one s per matrix would also broadcast, so it must be caught by value
    square = linalg.expm_i(stack, s[:3])
    for t in range(3):
        np.testing.assert_allclose(square[t], u[t], rtol=0, atol=1e-14)


FLOAT_MAX = np.finfo(float).max


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h, s", [
    (np.diag([1.0, 2.0]), float("nan")),
    (np.diag([1.0, 2.0]), float("inf")),
    (np.diag([1e300, 2.0]), 1e10),  # s * lambda overflows
    (np.diag([1.0, 2.0]), np.array([0.5, np.nan])),
    (np.stack([np.diag([1e300, 2.0]), np.eye(2)]), np.array([1.0, 1e10])),
    (np.diag([1.0, 2.0]), float("-inf")),
    # H = 0: s * lambda is inf * 0 = nan, or nan * 0
    (np.zeros((2, 2)), float("inf")),
    (np.zeros((2, 2)), float("-inf")),
    (np.zeros((2, 2)), float("nan")),
    # lambda = 2 and the next float above FLOAT_MAX / 2: 2s is one ulp past FLOAT_MAX
    (np.diag([2.0, 0.0]), np.nextafter(FLOAT_MAX / 2, np.inf)),
    (np.diag([2.0, 0.0]), np.array([0.0, -np.nextafter(FLOAT_MAX / 2, np.inf)])),
])
def test_expm_i_rejects_a_non_finite_phase(h, s):
    """Each s * lambda that is not finite raises, without a numpy warning."""
    with pytest.raises(ValueError, match="expm_i: s \\* eigenvalue is not finite"):
        linalg.expm_i(h, s)


@pytest.mark.filterwarnings("error")
def test_expm_i_takes_the_largest_finite_phase_and_an_empty_s():
    """s * lambda = FLOAT_MAX is finite, and an empty s has no phase at all;
    neither raises nor warns."""
    h = np.diag([2.0, 0.0])
    assert linalg.hermitian_eigen(h).eigenvalues.tolist() == [0.0, 2.0]
    u = linalg.expm_i(h, np.array([FLOAT_MAX / 2, -FLOAT_MAX / 2]))
    assert np.isfinite(u).all()
    assert linalg.unitarity_defect(u).max() <= 1e-15
    assert linalg.expm_i(h, np.array([])).shape == (0, 2, 2)
    assert linalg.expm_i(np.zeros((2, 2)), FLOAT_MAX).tolist() == np.eye(2).tolist()


@pytest.mark.parametrize("h, s", [
    (np.eye(2), 1j),  # exp(i * 1j * I) = e^-1 I: unitarity defect 1.22
    (np.diag([1.0, 2.0]), np.array([0.5, 0.2 + 1e-3j])),
    (np.stack([X, Z]), np.array([[0.1], [complex(0.0, -2.0)]])),
])
def test_expm_i_rejects_an_s_with_an_imaginary_part(h, s):
    with pytest.raises(ValueError, match="expm_i: s has a nonzero imaginary part"):
        linalg.expm_i(h, s)


def test_expm_i_takes_a_complex_s_with_zero_imaginary_part():
    s = np.array([0.5, -2.0])
    np.testing.assert_array_equal(linalg.expm_i(X, s + 0j), linalg.expm_i(X, s))
    np.testing.assert_array_equal(linalg.expm_i(Z, 0.3 + 0j), linalg.expm_i(Z, 0.3))


@pytest.mark.parametrize("s", [0.0, 0.3, -0.3, np.pi / 2, -np.pi / 2, 2.7])
def test_involution_closed_form_matches_expm_i(s):
    for n in (1, 2, 3):
        for blade in clifford.hermitian_basis(n):
            b = blade.dense()
            np.testing.assert_allclose(
                linalg.expm_i_involution(b, s), linalg.expm_i(b, s), atol=1e-12,
                err_msg=f"n={n} indices={blade.indices}")


@pytest.mark.parametrize("n", [1, 2])
def test_involution_on_a_blade_stack_matches_per_matrix_calls(n):
    """A stack (L, d, d) with an (R, L) grid of s gives every exp(i s H) at
    once, each with the bits of the call on one matrix and one number."""
    blades = clifford.blade_products(n, clifford.hermitian_basis(n)[1:])
    rng = np.random.default_rng(80 + n)
    s = rng.uniform(-4.0, 4.0, size=(3, len(blades)))
    s[0, :3] = [0.0, -0.0, np.pi / 2]
    got = linalg.expm_i_involution(blades, s)
    assert got.shape == (3, len(blades), 2 ** n, 2 ** n)
    for r in range(3):
        for j, b in enumerate(blades):
            assert got[r, j].tobytes() == linalg.expm_i_involution(b, float(s[r, j])).tobytes()
    # one s for the whole stack broadcasts too, and memory order does not matter
    for j, b in enumerate(blades):
        assert (linalg.expm_i_involution(blades, 0.7)[j].tobytes()
                == linalg.expm_i_involution(b, 0.7).tobytes())
        assert np.array_equal(linalg.expm_i_involution(np.asfortranarray(b), 0.7),
                              linalg.expm_i_involution(b, 0.7))


@pytest.mark.parametrize("s", [np.inf, np.nan, 0.5 + 0.1j, np.array([0.1, np.inf])])
def test_involution_rejects_a_non_real_or_non_finite_s(s):
    with pytest.raises(ValueError, match="expm_i_involution"):
        linalg.expm_i_involution(X, s)


@pytest.mark.parametrize("dtype", [bool, np.int8, np.int16, np.float16, np.float32])
def test_involution_takes_s_of_any_real_dtype_in_float64(dtype):
    """numpy would take sin and cos of these dtypes in float16 or float32."""
    for value in (True, 1, 3, -7, 0.5):
        s = np.array(value, dtype=dtype)
        want = linalg.expm_i_involution(X, float(s))
        assert linalg.expm_i_involution(X, s).tobytes() == want.tobytes()
        stack = linalg.expm_i_involution(np.array([X, X]), np.array([s, s]))
        assert stack.tobytes() == np.array([want, want]).tobytes()


@pytest.mark.parametrize("a", [np.zeros((3, 2, 4)), np.zeros(4),
                               np.array([np.eye(2), np.full((2, 2), np.nan)])])
def test_spectral_norm_rejects_a_non_square_or_non_finite_stack(a):
    with pytest.raises(ValueError, match="spectral_norm"):
        linalg.spectral_norm(a)


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


def test_tensor_equals_a_kron_chain_exactly():
    rng = np.random.default_rng(12)
    shapes = [[(2, 2), (2, 2), (2, 2)], [(4, 4), (2, 2)], [(2, 3), (1, 4), (3, 2)], [(3, 1)]]
    for dims in shapes:
        factors = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
        want = np.eye(1, dtype=complex)
        for f in factors:
            want = np.kron(want, f)
        assert np.array_equal(linalg.tensor(*factors), want), dims
    assert np.array_equal(linalg.tensor(), np.eye(1))


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


def test_hermiticity_defect_of_a_stack_is_its_largest_slice():
    rng = np.random.default_rng(31)
    stack = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
    per_slice = [linalg.frobenius_norm(m - m.conj().T) for m in stack.reshape(6, 4, 4)]
    assert linalg.hermiticity_defect(stack) == pytest.approx(max(per_slice), rel=1e-14)
    a = stack[0, 0]
    assert linalg.hermiticity_defect(a) == linalg.hermiticity_defect(a[None])
    assert linalg.hermiticity_defect(np.stack([X, Y, a[:2, :2]])) == pytest.approx(
        linalg.frobenius_norm(a[:2, :2] - a[:2, :2].conj().T), rel=1e-14)
    for bad, message in ((np.zeros(4), "square"), (np.zeros((3, 2, 3)), "square"),
                         (np.full((2, 2, 2), np.nan), "non-finite")):
        with pytest.raises(ValueError, match=message):
            linalg.hermiticity_defect(bad)


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


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_stacked_norms_are_per_slice_norms(dim):
    """A stack gives each matrix's own value, bit for bit, and one matrix
    still gives a float, the same bits as the sum over all its entries."""
    rng = np.random.default_rng(70 + dim)
    stack = rng.normal(size=(2, 3, dim, dim)) + 1j * rng.normal(size=(2, 3, dim, dim))
    for f in (linalg.frobenius_norm, linalg.unitarity_defect, linalg.spectral_norm):
        values = f(stack)
        assert values.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                one = f(stack[i, j])
                assert type(one) is float
                assert values[i, j] == one
    for m in stack.reshape(6, dim, dim):
        assert linalg.frobenius_norm(m) == float(np.sqrt(np.sum(np.abs(m) ** 2)))


@pytest.mark.parametrize("dim", range(1, 17))
def test_norms_keep_the_bits_of_their_np_sum_and_np_max_forms(dim):
    """frobenius_norm and hermiticity_defect, on one matrix and on stacks,
    give the bits of np.sqrt(np.sum(|a|^2)) and of np.max over it."""
    rng = np.random.default_rng(200 + dim)
    for lead in ((), (3,), (2, 3), (0,)):
        a = rng.normal(size=(*lead, dim, dim)) + 1j * rng.normal(size=(*lead, dim, dim))
        norms = np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))
        got = linalg.frobenius_norm(a)
        assert type(got) is (float if not lead else np.ndarray)
        assert np.asarray(got).tobytes() == norms.tobytes()
        defect = float(np.max(np.sqrt(np.sum(np.abs(a - a.conj().swapaxes(-1, -2)) ** 2,
                                             axis=(-2, -1))), initial=0.0))
        assert linalg.hermiticity_defect(a).hex() == defect.hex()


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(23)
    u = linalg.random_unitary(8, rng)
    assert linalg.unitarity_defect(u) <= 1e-10


def test_random_hermitian_draws_real_then_imaginary_parts():
    """(M + M^dag) / 2 with M's real, then imaginary parts drawn from rng, and
    nothing else drawn: a stack of one-generator calls is what equivalence
    blocks stack."""
    for dim in (2, 4, 8):
        for s in range(3):
            rng = np.random.default_rng(s)
            h = linalg.random_hermitian(dim, rng)
            ref = np.random.default_rng(s)
            re = ref.normal(size=(dim, dim))
            m = re + 1j * ref.normal(size=(dim, dim))
            assert np.array_equal(h, (m + linalg.adjoint(m)) / 2.0)
            assert rng.normal() == ref.normal()  # both generators are at the same state
