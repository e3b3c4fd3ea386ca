"""Clifford/Pauli algebra tests: generators, blades built as exact dense
generator products, and the parity rules, cross-checked against
independent dense oracles (Kronecker-built Pauli words, dense commutators)."""
import itertools

import numpy as np
import pytest

from cliffsim import clifford, linalg
from cliffsim.clifford import Blade, gamma

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_gamma_single_qubit():
    assert gamma(1, 0).letters == ("X",)
    assert gamma(1, 1).letters == ("Y",)
    np.testing.assert_allclose(gamma(1, 0).dense(), X)
    np.testing.assert_allclose(gamma(1, 1).dense(), Y)


def test_gamma_two_qubits():
    assert gamma(2, 0).letters == ("I", "X")
    assert gamma(2, 1).letters == ("I", "Y")
    assert gamma(2, 2).letters == ("X", "Z")
    assert gamma(2, 3).letters == ("Y", "Z")
    np.testing.assert_allclose(gamma(2, 2).dense(), np.kron(X, Z))


def test_gamma_rejects_bad_index():
    with pytest.raises(ValueError):
        gamma(2, 4)
    with pytest.raises(ValueError):
        gamma(2, -1)


def test_generator_relations():
    """gamma_a gamma_b + gamma_b gamma_a = 2 delta_ab I for n up to 4."""
    for n in range(1, 5):
        mats = [gamma(n, a).dense() for a in range(2 * n)]
        eye = np.eye(2 ** n)
        for a, b in itertools.combinations_with_replacement(range(2 * n), 2):
            anti = mats[a] @ mats[b] + mats[b] @ mats[a]
            want = 2.0 * eye if a == b else np.zeros_like(eye)
            np.testing.assert_allclose(anti, want, atol=1e-12)


def test_blade_omega_rule():
    # omega = i exactly for grades 2, 3, 6, 7, ... (zeta(zeta-1)/2 odd)
    assert Blade(1, ()).omega == 1
    assert Blade(1, (0,)).omega == 1
    assert Blade(1, (0, 1)).omega == 1j
    assert Blade(2, (0, 1, 2)).omega == 1j
    assert Blade(2, (0, 1, 2, 3)).omega == 1


def test_blade_dense_examples():
    np.testing.assert_allclose(Blade(1, ()).dense(), I2)
    # i * X @ Y = i * iZ = -Z
    np.testing.assert_allclose(Blade(1, (0, 1)).dense(), -Z, atol=1e-15)
    want = np.kron(X @ Y, X @ Y)
    np.testing.assert_allclose(Blade(2, (0, 1, 2, 3)).dense(), want, atol=1e-15)


def test_blade_dense_equals_generator_product():
    for n in (1, 2):
        for grade in range(2 * n + 1):
            for subset in itertools.combinations(range(2 * n), grade):
                b = Blade(n, subset)
                prod = np.eye(2 ** n, dtype=complex)
                for a in subset:
                    prod = prod @ gamma(n, a).dense()
                np.testing.assert_allclose(b.dense(), b.omega * prod, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_blades_are_exactly_hermitian_involutions(n):
    eye = np.eye(2 ** n)
    for b in clifford.hermitian_basis(n):
        m = b.dense()
        assert np.array_equal(m, m.conj().T), b.indices
        assert np.array_equal(m @ m, eye), b.indices
        assert not m.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_blades_are_signed_distinct_pauli_words(n):
    """Each blade is +-1 times a Kronecker-built Pauli word, and the 4^n
    blades hit the 4^n words one to one."""
    def key(m):
        return (m + 0j).tobytes()  # adding +0 clears the signs of zeros

    words = {key(w.dense()): w.letters for w in clifford.pauli_word_basis(n)}
    hit = set()
    for b in clifford.hermitian_basis(n):
        matches = [words.get(key(sign * b.dense())) for sign in (1.0, -1.0)]
        letters = [w for w in matches if w is not None]
        assert len(letters) == 1, b.indices
        hit.add(letters[0])
    assert len(hit) == 4 ** n


def test_wrong_omega_aborts_construction(monkeypatch):
    # grade 2 needs omega = i; forcing 1 leaves an anti-Hermitian product
    monkeypatch.setattr(Blade, "omega", property(lambda self: 1.0 + 0j))
    with pytest.raises(ValueError, match="refusing to flip omega"):
        Blade(2, (0, 1)).dense()


def test_generator_matrices_are_shared_and_read_only():
    for n in range(1, 5):
        mats = clifford._GENERATORS[n]
        assert len(mats) == 2 * n and not any(m.flags.writeable for m in mats)
        for a, m in enumerate(mats):
            assert np.array_equal(m, gamma(n, a).dense())
    with pytest.raises(ValueError):
        Blade(5, ())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_report(n):
    rep = clifford.basis_report(n)
    assert (rep.n, rep.blade_count, rep.gram_rank) == (n, 4 ** n, 4 ** n)
    assert rep.max_hermiticity_defect == 0.0
    assert rep.max_generator_relation_defect == 0.0


def test_hermitian_basis_shape_and_order():
    for n in (1, 2, 3):
        basis = clifford.hermitian_basis(n)
        assert len(basis) == 4 ** n
        assert basis[0].indices == ()
        grades = [b.grade for b in basis]
        assert grades == sorted(grades)  # grade-major ordering
    n2 = clifford.hermitian_basis(2)
    assert [b.indices for b in n2[1:5]] == [(0,), (1,), (2,), (3,)]
    assert n2[5].indices == (0, 1)


def test_hermitian_basis_is_hermitian_and_trace_orthogonal():
    for n in (1, 2):
        basis = clifford.hermitian_basis(n)
        mats = [b.dense() for b in basis]
        for m in mats:
            assert linalg.hermiticity_defect(m) <= 1e-12
        for a, b in itertools.combinations_with_replacement(range(len(mats)), 2):
            tr = np.trace(mats[a].conj().T @ mats[b])
            want = 2 ** n if a == b else 0.0
            assert abs(tr - want) <= 1e-12


def test_hermitian_basis_gram_rank_full():
    for n in (1, 2):
        mats = [b.dense() for b in clifford.hermitian_basis(n)]
        assert clifford.gram_rank(mats) == 4 ** n


def test_anticommutes_examples():
    assert clifford.anticommutes((0,), (1,))
    assert not clifford.anticommutes((0,), (0,))
    assert clifford.anticommutes((0, 1), (1, 2))


def test_anticommutes_matches_dense_on_all_pairs():
    basis = clifford.hermitian_basis(2)
    mats = [b.dense() for b in basis]
    for (i, bi), (j, bj) in itertools.combinations(enumerate(basis), 2):
        anti = mats[i] @ mats[j] + mats[j] @ mats[i]
        dense_anti = linalg.frobenius_norm(anti) <= 1e-9
        assert clifford.anticommutes(bi.indices, bj.indices) == dense_anti


def test_noncommuting_pair_class_parity():
    """Counted pairs share an odd number of generators unless both grades are
    odd, in which case the shared count is even."""
    basis = clifford.hermitian_basis(2)
    for bi, bj in itertools.combinations(basis, 2):
        if not clifford.anticommutes(bi.indices, bj.indices):
            continue
        shared = len(set(bi.indices) & set(bj.indices))
        if bi.grade % 2 == 1 and bj.grade % 2 == 1:
            assert shared % 2 == 0
        else:
            assert shared % 2 == 1


def test_omega_count_single_qubit():
    assert clifford.omega_count(1) == 3
    assert clifford.omega_count_dense(1) == 3


def test_omega_count_matches_dense():
    for n in (1, 2):
        assert clifford.omega_count(n) == clifford.omega_count_dense(n)


def test_pauli_word_basis():
    words = clifford.pauli_word_basis(1)
    assert [w.letters for w in words] == [("I",), ("X",), ("Y",), ("Z",)]
    for n in (1, 2):
        words = clifford.pauli_word_basis(n)
        assert len(words) == 4 ** n
        eye = np.eye(2 ** n)
        for w in words:
            m = w.dense()
            assert linalg.hermiticity_defect(m) <= 1e-13
            np.testing.assert_allclose(m @ m, eye, atol=1e-13)
    assert clifford.gram_rank([w.dense() for w in clifford.pauli_word_basis(2)]) == 16


def test_pauli_coefficients_reconstruct_hermitian():
    for n in (1, 2, 3):
        rng = np.random.default_rng(100 + n)
        h = linalg.random_hermitian(2 ** n, rng)
        coeffs = clifford.pauli_coefficients(h, n)
        words = clifford.pauli_word_basis(n)
        rebuilt = sum(c * w.dense() for c, w in zip(coeffs, words))
        np.testing.assert_allclose(rebuilt, h, atol=1e-10)
    with pytest.raises(ValueError, match="not Hermitian"):
        clifford.pauli_coefficients(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_lie_embedding_check_trivial_cases():
    rng = np.random.default_rng(5)
    b = clifford.random_su2_components(2, rng)
    assert clifford.lie_embedding_check(b, b)
    c1 = clifford.random_su2_components(1, rng)
    c2 = clifford.random_su2_components(1, rng)
    assert clifford.lie_embedding_check(c1, c2)


def test_lie_embedding_check_seeded_tuples():
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        first = clifford.random_su2_components(2, rng)
        second = clifford.random_su2_components(2, rng)
        assert clifford.lie_embedding_check(first, second)


def test_lie_embedding_check_shape_mismatch():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        clifford.lie_embedding_check(
            clifford.random_su2_components(2, rng),
            clifford.random_su2_components(3, rng))
    good = clifford.random_su2_components(2, rng)
    for bad, message in ((np.zeros((3, 3)), "2x2"), (np.full((2, 2), np.nan), "non-finite")):
        with pytest.raises(ValueError, match=message):
            clifford.lie_embedding_check(good, [good[0], bad])
