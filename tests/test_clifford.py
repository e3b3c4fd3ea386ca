"""Clifford/Pauli algebra tests: generators, blades built as exact dense
generator products, and the parity rules, cross-checked against
independent dense oracles (Kronecker-built Pauli words, dense commutators)."""
import itertools
import tracemalloc

import numpy as np
import pytest

from cliffsim import cli, clifford, linalg
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


def _generator_product(n, b):
    """omega * gamma_{j1} ... gamma_{jz}, from Kronecker-built generators."""
    prod = np.eye(2 ** n, dtype=complex)
    for a in b.indices:
        prod = prod @ gamma(n, a).dense()
    return b.omega * prod


def test_blade_dense_equals_generator_product():
    for n in (1, 2):
        for grade in range(2 * n + 1):
            for subset in itertools.combinations(range(2 * n), grade):
                b = Blade(n, subset)
                np.testing.assert_allclose(b.dense(), _generator_product(n, b), atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_stack_equals_the_blades_exactly(n):
    stack = clifford._basis_stack(n)
    blades = clifford.hermitian_basis(n)
    assert np.array_equal(stack, [b.dense() for b in blades])
    for b, m in zip(blades, stack):
        assert np.array_equal(m, _generator_product(n, b)), b.indices


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_stack_is_built_once_and_read_only(n):
    stack = clifford._basis_stack(n)
    assert clifford._basis_stack(n) is stack
    assert not stack.flags.writeable
    assert stack.shape == (4 ** n, 2 ** n, 2 ** n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_blades_are_rows_of_the_basis_stack(n):
    """blade_products gathers a new stack for any list of blades, in its
    order; Blade.dense() is a read-only view of its row of the basis stack."""
    top = 2 * n - 1
    lists = [[], [Blade(n, (top,)), Blade(n, ())],
             [Blade(n, (0, top)), Blade(n, (0, top)), Blade(n, (1,))],
             [Blade(n, tuple(range(2 * n))), Blade(n, (0,)),
              Blade(n, tuple(range(1, top + 1, 2)))]]
    for blades in lists:
        got = clifford.blade_products(n, blades)
        assert got.shape == (len(blades), 2 ** n, 2 ** n) and got.flags.writeable
        assert not np.shares_memory(got, clifford._basis_stack(n))
        for m, b in zip(got, blades):
            assert np.array_equal(m, _generator_product(n, b)), b.indices
    for b in clifford.hermitian_basis(n):
        m = b.dense()
        assert not m.flags.writeable and np.shares_memory(m, clifford._basis_stack(n))


def test_blade_products_rejects_a_blade_of_another_register_size():
    for n, blades in ((2, [Blade(1, (1,))]), (1, [Blade(2, (0,))]),
                      (2, [Blade(2, (0,)), Blade(3, (0,))])):
        with pytest.raises(ValueError, match=f"every blade must be on n={n}"):
            clifford.blade_products(n, blades)


def test_basis_commands_build_no_blades(monkeypatch, tmp_path):
    """Jobs read the stacks built at import: no job calls hermitian_basis,
    the builder's first step, and none goes through clifford.blade_products."""
    calls = []

    def counted(name):
        real = getattr(clifford, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("blade_products", "hermitian_basis"):
        monkeypatch.setattr(clifford, name, counted(name))
    for argv in (["verify-basis", "--n", "3"], ["omega-count", "--n", "3"],
                 ["equivalence", "--n", "3"], ["train-cqp", "--n", "2"],
                 ["trotter-sweep", "--n", "2", "--terms", "15"]):
        assert cli.main([*argv, "--out", str(tmp_path / f"{argv[0]}.csv")]) == 0
    assert calls == []


@pytest.mark.parametrize("n", [0, 5])
def test_basis_report_rejects_bad_n_on_every_call(n):
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(ValueError, match="1 <= n <= 4"):
            clifford.basis_report(n)


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
        clifford._basis_stack.__wrapped__(2)


def test_generator_matrices_are_shared_and_read_only():
    for n in range(1, 5):
        mats = clifford._GENERATORS[n]
        assert len(mats) == 2 * n and not any(m.flags.writeable for m in mats)
        for a, m in enumerate(mats):
            assert np.array_equal(m, gamma(n, a).dense())
    with pytest.raises(ValueError):
        Blade(5, ())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
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
    # closed form: a non-identity blade anticommutes with half of the 4^n blades
    for n, want in ((1, 3), (2, 60), (3, 1008)):
        assert want == 4 ** n * (4 ** n - 1) // 4
        assert clifford.omega_count(n) == clifford.omega_count_dense(n) == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_omega_count_dense_matches_per_pair_loop(n):
    mats = [b.dense() for b in clifford.hermitian_basis(n)]
    want = sum(1 for a, b in itertools.combinations(mats, 2)
               if np.linalg.norm(a @ b - b @ a) > 1e-9)
    assert clifford.omega_count_dense(n) == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_anticommutation_matrix_matches_set_arithmetic(n):
    sets = [b.indices for b in clifford.hermitian_basis(n)]
    anti = clifford.anticommutation_matrix(sets)
    assert anti.shape == (4 ** n, 4 ** n) and anti.dtype == bool
    assert np.array_equal(anti, anti.T)
    assert not anti.diagonal().any()
    for (i, si), (j, sj) in itertools.product(enumerate(sets), repeat=2):
        a, b = set(si), set(sj)
        assert anti[i, j] == ((len(a) * len(b) - len(a & b)) % 2 == 1), (si, sj)


def test_anticommutation_matrix_edge_cases():
    assert clifford.anticommutation_matrix([]).shape == (0, 0)
    assert not clifford.anticommutation_matrix([()]).any()
    # labels are set members, not column positions
    assert clifford.anticommutes((-1,), (7,))
    assert not clifford.anticommutes(iter((0, 1)), iter((2, 3)))


def test_omega_count_dense_working_memory():
    """The dense route stays O(4^n d^2): one (4^n, 4^n, 8, 8) complex
    product tensor alone would be 4 MB at n = 3."""
    tracemalloc.start()
    try:
        assert clifford.omega_count_dense(3) == 1008
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


@pytest.mark.parametrize("tile", [clifford._TILE, 3, None])
@pytest.mark.parametrize("k, d", [(7, 2), (7, 8), (13, 2), (13, 8)])
def test_pair_products_match_a_double_loop(k, d, tile):
    """Every yielded A_i A_j and A_j A_i of a non-Hermitian stack whose
    length is not a multiple of the tile, against explicit products: a
    BA = (AB)^dag shortcut or an off-by-one at a tile edge fails here."""
    rng = np.random.default_rng(31 * k + d)
    mats = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    tile = k if tile is None else tile
    tiles = list(clifford._pair_products(mats, tile))
    assert len(tiles) == -(-k // tile)
    for i, (ab, ba) in zip(range(0, k, tile), tiles):
        t = min(tile, k - i)
        assert ab.shape == ba.shape == (t, d, k - i, d)
        for r, j in itertools.product(range(t), range(k - i)):
            a, b = mats[i + r], mats[i + j]
            np.testing.assert_allclose(ab[r, :, j, :], a @ b, rtol=0, atol=1e-13)
            np.testing.assert_allclose(ba[r, :, j, :], b @ a, rtol=0, atol=1e-13)


def test_omega_count_dense_on_a_mixed_stack(monkeypatch):
    """Diagonal matrices and Pauli words, interleaved so that commuting and
    non-commuting pairs straddle tile boundaries, against the per-pair loop."""
    rng = np.random.default_rng(12)
    words = [w.dense() for w in clifford.pauli_word_basis(2)]
    mats = []
    for w in words[1:12]:
        mats += [np.diag(rng.normal(size=4) + 0j), w]
    mats = np.array(mats[:-1])  # 21 matrices: odd, so the last tile is short
    monkeypatch.setattr(clifford, "_basis_stack", lambda n: mats)
    want = sum(1 for a, b in itertools.combinations(mats, 2)
               if np.linalg.norm(a @ b - b @ a) > 1e-9)
    assert 0 < want < len(mats) * (len(mats) - 1) // 2
    assert clifford.omega_count_dense(2) == want


def _scaled(gens):
    return gens[:-1] + (1.5 * gens[-1],)


def _rotated(gens):
    return (np.cos(0.1) * gens[0] + np.sin(0.1) * gens[1],) + gens[1:]


def _noisy(gens):
    rng = np.random.default_rng(4)
    d = len(gens[0])
    noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (gens[0], gens[1] + 1e-3 * noise, *gens[2:])


@pytest.mark.parametrize("perturb", [_scaled, _rotated, _noisy])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_relation_defect_matches_the_pair_loop(monkeypatch, n, perturb):
    """Scaling moves only the a == b relations and a rotation only the
    a < b ones, so dropping either half of the triangle fails here."""
    stack = clifford._basis_stack(n)
    gens = perturb(clifford._GENERATORS[n])
    monkeypatch.setitem(clifford._GENERATORS, n, gens)
    monkeypatch.setattr(clifford, "_basis_stack", lambda n: stack)
    eye = np.eye(2 ** n)
    want = max(linalg.frobenius_norm(ga @ gb + gb @ ga - (2.0 * eye if a == b else 0.0))
               for (a, ga), (b, gb) in itertools.combinations_with_replacement(
                   enumerate(gens), 2))
    assert want > 1e-3
    got = clifford.basis_report(n).max_generator_relation_defect
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_gram_rank_takes_a_list_or_a_stack_and_rejects_ragged_input():
    mats = [w.dense() for w in clifford.pauli_word_basis(1)]
    assert clifford.gram_rank(mats) == clifford.gram_rank(np.array(mats)) == 4
    assert clifford.gram_rank(mats + [mats[1] + mats[2]]) == 4
    with pytest.raises(ValueError):
        clifford.gram_rank([np.eye(2), np.eye(3)])
    assert clifford.gram_rank([]) == 0  # no vectors


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
