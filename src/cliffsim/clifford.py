"""Pauli-word generators and Hermitian Clifford generator products.

A register of n qubits, n in REGISTER_SIZES (1..4, the one range every
module and the CLI take from here), carries 2n anticommuting generators,
each realized as a Pauli string with a single X or Y letter followed by
a Z tail:

    gamma(n, 2k)   = I^(n-k-1) (x) X (x) Z^k
    gamma(n, 2k+1) = I^(n-k-1) (x) Y (x) Z^k      for k = 0..n-1.

Products of distinct generators ("blades") are made Hermitian by a phase
factor omega in {1, i} chosen from the grade: omega = i exactly when
zeta*(zeta-1)/2 is odd (zeta = number of factors), i.e. zeta = 2, 3 mod 4.
A blade's matrix is omega times the dense product of its generator
matrices, which are built once at import.  Only _basis_stack(n) builds blade
matrices: all 4^n of a register at once, by a masked stacked product per
generator, once per process (at import for n <= 3, on first use for n = 4).
Pauli-word matrices are monomial with entries in {0, +-1, +-i}, so every
such product is exact in floating point: the build certifies B = B^dag by
exact equality and aborts otherwise rather than flipping the factor.  Every
other blade matrix is a row of that read-only stack: Blade.dense() is a
view of its row and blade_products gathers a copy of the rows of a list.
Matrices put qubit 1 on the most significant bit.  The basis report and the
dense commutator count read the stack and run every check again in every
call.

Each blade is c * R with c in {1, i} and R a real signed permutation matrix,
entries -1, 0 or 1.  Both basis checks run on the float32 stack of the R,
which _real_stack certifies afresh in every call: every real and imaginary
part of the stack is -1, 0 or 1 and every matrix is purely real or purely
imaginary.  Then every product, commutator, squared norm and Gram entry
they form is an integer far below 2^24, which float32 holds exactly.

Two blades commute or anticommute.  Anticommuting basis pairs are counted
two ways that share no code: the parity rule on index sets, for all pairs
at once (anticommutation_matrix), and dense commutators of the real parts,
two float32 GEMMs per tile of _TILE rows (_pair_products), so the working
memory is O(_TILE * 4^n * d^2) and no (4^n, 4^n, d, d) tensor is built
(omega_count_dense).  Since |c| = 1, the Gram matrix G = R R^T of the
vectorized real parts is 2^n * I exactly when Tr(B_i B_j) = 2^n delta_ij,
which certifies the basis orthogonal, and so independent, without an SVD
(basis_report).
"""
from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .linalg import _read_only

# read-only: every routing gate of a compiled circuit holds PAULI["X"] itself
PAULI = {
    "I": _read_only(np.eye(2, dtype=complex)),
    "X": _read_only(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": _read_only(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": _read_only(np.array([[1, 0], [0, -1]], dtype=complex)),
}


class PauliString(namedtuple("PauliString", "n letters")):
    """A phase-free tensor word over {I, X, Y, Z}."""
    __slots__ = ()

    def __new__(cls, n: int, letters: tuple[str, ...]):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if len(letters) != n:
            raise ValueError(f"expected {n} letters, got {len(letters)}")
        bad = [c for c in letters if c not in PAULI]
        if bad:
            raise ValueError(f"invalid Pauli letters: {bad}")
        return super().__new__(cls, n, letters)

    def dense(self) -> np.ndarray:
        return linalg.tensor(*(PAULI[c] for c in self.letters))


# The register sizes, in qubits, of every generator, blade and command.
REGISTER_SIZES = range(1, 5)


def _check_register_size(n: int) -> None:
    if n not in REGISTER_SIZES:
        raise ValueError(f"need {REGISTER_SIZES[0]} <= n <= {REGISTER_SIZES[-1]}, got n={n}")


def gamma(n: int, a: int) -> PauliString:
    """Generator a of the 2n-generator set on n qubits (phase-free word)."""
    _check_register_size(n)
    if not 0 <= a <= 2 * n - 1:
        raise ValueError(f"generator index {a} out of range 0..{2 * n - 1}")
    k = a // 2
    head = "X" if a % 2 == 0 else "Y"
    letters = ["I"] * (n - k - 1) + [head] + ["Z"] * k
    return PauliString(n, tuple(letters))


# The 2n generator matrices of every register size, built once at import so
# that blades share them and no job pays (or traces) their construction.
_GENERATORS = {n: tuple(_read_only(gamma(n, a).dense()) for a in range(2 * n))
               for n in REGISTER_SIZES}


class Blade(namedtuple("Blade", "n indices")):
    """Hermitian product omega * gamma_{j1} ... gamma_{jz}, indices ascending."""
    __slots__ = ()

    def __new__(cls, n: int, indices: Iterable[int]):
        _check_register_size(n)
        idx = tuple(indices)
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"indices must be strictly ascending, got {idx}")
        if idx and not (0 <= idx[0] and idx[-1] <= 2 * n - 1):
            raise ValueError(f"indices {idx} out of range for n={n}")
        return super().__new__(cls, n, idx)

    @property
    def grade(self) -> int:
        return len(self.indices)

    @property
    def omega(self) -> complex:
        z = self.grade
        return 1j if (z * (z - 1) // 2) % 2 else 1.0 + 0j

    def dense(self) -> np.ndarray:
        """Its row of _basis_stack(n): a read-only view."""
        return _basis_stack(self.n)[_BASIS_ROW[self.n][self.indices]]


def blade_products(n: int, blades: Sequence[Blade]) -> np.ndarray:
    """The matrices of blades on n qubits, stacked (k, d, d): a new array
    gathered from the rows of _basis_stack(n)."""
    if any(b.n != n for b in blades):
        raise ValueError(f"every blade must be on n={n}, got n in {sorted({b.n for b in blades})}")
    return _basis_stack(n)[[_BASIS_ROW[n][b.indices] for b in blades]]


def _basis_indices(n: int) -> list[tuple[int, ...]]:
    """The index sets of hermitian_basis(n), in its order."""
    _check_register_size(n)
    return [idx for grade in range(2 * n + 1)
            for idx in itertools.combinations(range(2 * n), grade)]


def hermitian_basis(n: int) -> list[Blade]:
    """All 4^n blades, grade-major, index-lexicographic inside each grade."""
    return list(_basis_blades(n))


@functools.cache
def _basis_blades(n: int) -> tuple[Blade, ...]:
    """hermitian_basis(n) as a tuple, built once per n (at import for n <= 3,
    by _basis_stack) and shared by every caller."""
    return tuple(Blade(n, idx) for idx in _basis_indices(n))


def pauli_word_basis(n: int) -> list[PauliString]:
    """All 4^n phase-free words, in lexicographic I < X < Y < Z order."""
    _check_register_size(n)
    return [PauliString(n, letters)
            for letters in itertools.product("IXYZ", repeat=n)]


class BasisReport(NamedTuple):
    n: int
    blade_count: int
    max_hermiticity_defect: float
    max_generator_relation_defect: float
    gram_rank: int
    # None when the blades are certified orthogonal, Tr(B_i B_j) = 2^n delta_ij
    # exactly; otherwise why not
    orthogonality_failure: str | None


@functools.cache
def _basis_stack(n: int) -> np.ndarray:
    """The matrices of hermitian_basis(n), stacked in its order: (4^n, d, d).

    The one construction of blade matrices.  Every product starts from the
    identity and takes one masked stacked product per generator, in
    ascending index order, so each matrix is the left-to-right product of
    its own generators; then it is scaled by its omega and the whole stack
    is certified Hermitian by exact equality.  A constant of n, built once
    per process and read-only; every caller shares it.  A bad n raises on
    every call, since exceptions are not cached."""
    blades = _basis_blades(n)
    m = np.empty((len(blades), 2 ** n, 2 ** n), dtype=complex)
    m[:] = np.eye(2 ** n)
    for a, gen in enumerate(_GENERATORS[n]):
        rows = [i for i, b in enumerate(blades) if a in b.indices]
        m[rows] = m[rows] @ gen
    m *= np.array([b.omega for b in blades])[:, None, None]
    if not (m == linalg.adjoint(m)).all():
        # the omega rule guarantees Hermiticity and the product is exact,
        # so reaching this means the construction itself is broken
        bad = next(b for b, x in zip(blades, m) if not np.array_equal(x, linalg.adjoint(x)))
        raise ValueError(f"blade {bad.indices} on n={n} is not Hermitian; "
                         "refusing to flip omega")
    return _read_only(m)


# The row of each blade in _basis_stack(n), by index set.
_BASIS_ROW = {n: {idx: i for i, idx in enumerate(_basis_indices(n))} for n in REGISTER_SIZES}

# Built at import for n = 1..3, as _GENERATORS is, so no job pays (or traces) them; n = 4
# stays lazy: ~6.6 ms and ~1 MB per process, which no benchmark workload reads.
for _n in REGISTER_SIZES[:-1]:
    _basis_stack(_n)


def basis_report(n: int) -> BasisReport:
    """Hermiticity of every blade, the generator relations
    gamma_a gamma_b + gamma_b gamma_a = 2 delta_ab I, the exact orthogonality
    certificate G = R R^T == 2^n I of the blades' real parts (one float32 GEMM,
    see _real_stack) and the Gram rank of the basis; asserts none of them, the
    thresholds are the caller's.  The certificate implies full rank, so the
    rank is the blade count when it holds, and gram_rank's SVD names it only
    when it fails."""
    mats = _basis_stack(n)
    gens = np.stack(_GENERATORS[n])
    ab, ba = next(_pair_products(gens, len(gens)))
    anti = (ab + ba).transpose(0, 2, 1, 3)
    anti[np.diag_indices(len(gens))] -= 2.0 * np.eye(2 ** n)
    relations = float(linalg.frobenius_norm(anti)[np.triu_indices(len(gens))].max())
    try:
        real = _real_stack(n, "basis_report").reshape(len(mats), -1)
    except ValueError as exc:
        failure = str(exc)
    else:
        gram = real @ real.T  # integers of at most d^2 = 256: exact in float32
        gram[np.diag_indices_from(gram)] -= 2 ** n
        worst = float(np.abs(gram).max())
        failure = None if worst == 0 else f"max |R R^T - {2 ** n}I| = {worst:g}"
    rank = len(mats) if failure is None else gram_rank(mats)
    return BasisReport(n, len(mats), linalg.hermiticity_defect(mats),
                       relations, rank, failure)


def anticommutation_matrix(index_sets: Sequence[Iterable[int]]) -> np.ndarray:
    """Boolean (k, k) matrix whose (i, j) entry says whether the blades with
    index sets s_i, s_j anticommute.

    Commuting each generator of one product past each generator of the
    other flips the sign unless the indices coincide, so the products
    anticommute exactly when |s_i|*|s_j| - |s_i & s_j| is odd.  The
    intersection sizes are the Gram matrix of the sets' 0/1 incidence rows.
    """
    sets = [set(s) for s in index_sets]
    labels = sorted(set().union(*sets))
    inc = np.array([[a in s for a in labels] for s in sets],
                   dtype=np.int64).reshape(len(sets), len(labels))
    sizes = inc.sum(axis=1)
    return (np.outer(sizes, sizes) - inc @ inc.T) % 2 == 1


def omega_count(n: int) -> int:
    """Number of unordered non-commuting basis pairs, by the parity rule."""
    anti = anticommutation_matrix(_basis_indices(n))
    return int(np.triu(anti, 1).sum())


# Rows per tile of _pair_products.  omega_count_dense's best time in ms at tiles
# 2 / 4 / 8 (float32, 2-vCPU Xeon VM, one BLAS thread): n = 2: 0.13 / 0.08 / 0.06;
# n = 3: 0.81 / 0.60 / 0.51; n = 4: 22 / 25 / 33.  Tile 8 is fastest up to n = 3,
# the largest size a benchmark workload counts at; omega_count_dense(3) then
# peaks at 0.5 MB (4: 8.4 MB, against 2.5 MB at tile 2).
_TILE = 8


def _pair_products(mats: np.ndarray, tile: int = _TILE):
    """Yield (ab, ba) for each tile of rows i..i+tile-1 (i = 0, tile, ...) of a
    (k, d, d) stack, in the GEMM's own layout: ab[r, :, j, :] = A_{i+r} A_{i+j} and
    ba[r, :, j, :] = A_{i+j} A_{i+r} for i+j < k.  Each tile is two GEMMs
    between its rows and the stack laid side by side, in the stack's dtype;
    ab is contiguous."""
    k, d, _ = mats.shape
    rows, side = mats.reshape(k * d, d), mats.transpose(1, 0, 2).reshape(d, k * d)
    for i in range(0, k, tile):
        t = min(tile, k - i)
        ab = rows[i * d:(i + t) * d] @ side[:, i * d:]
        ba = rows[i * d:] @ side[:, i * d:(i + t) * d]
        yield ab.reshape(t, d, k - i, d), ba.reshape(k - i, d, t, d).transpose(2, 1, 0, 3)


def _real_stack(n: int, where: str) -> np.ndarray:
    """The real matrices R_k of _basis_stack(n), B_k = c_k R_k with c_k in {1, i}:
    a new float32 (4^n, d, d) stack.  Certifies first, by exact equality, that
    every real and imaginary part of the stack is -1, 0 or 1 and that every
    matrix is purely real or purely imaginary, and raises ValueError naming
    where otherwise.  Then R = Re B + Im B, and a sum of up to 256 products of
    its entries is an integer of at most 256, exact in float32 in any order."""
    mats = np.asarray(_basis_stack(n), dtype=complex)
    parts = np.abs(mats.view(float))
    if not ((parts == 0) | (parts == 1)).all():
        raise ValueError(f"{where}: a real or imaginary part of the n={n} basis stack "
                         "is not -1, 0 or 1, so its float32 products are not certified exact")
    re, im = mats.real, mats.imag
    mixed = re.any(axis=(1, 2)) & im.any(axis=(1, 2))
    if mixed.any():
        raise ValueError(f"{where}: matrix {int(mixed.argmax())} of the n={n} basis stack "
                         "is neither real nor imaginary")
    return np.add(re, im, dtype=np.float32)


def omega_count_dense(n: int) -> int:
    """Brute-force count via dense commutators; oracle for omega_count.  Each
    tile of _TILE blades meets every later blade in two GEMMs (_pair_products),
    so memory stays O(_TILE * 4^n * d^2); BA is its own product, never (AB)^dag.

    [B_i, B_j] = c_i c_j [R_i, R_j] with |c_i c_j| = 1, so the count runs on the
    certified float32 real parts R of _real_stack, which raises rather than
    count an uncertified stack.  An entry of R_i R_j sums d <= 16 products in
    {-1, 0, 1}, a commutator entry lies in [-32, 32], and a squared Frobenius
    norm is an integer of at most 16^2 * 32^2 = 2^18 < 2^24.  Every value is
    exact in float32 whatever the order or FMA use of the GEMM, so a squared
    norm is zero exactly when the complex128 commutator is, and the count is
    the same."""
    real = _real_stack(n, "omega_count_dense")
    later = np.arange(len(real)) > np.arange(_TILE)[:, None]  # [r, j]: j > r
    count = 0
    for ab, ba in _pair_products(real):
        comm = np.subtract(ab, ba, out=ab)
        squares = np.einsum("rajb,rajb->rj", comm, comm)
        count += int(np.count_nonzero((squares > 0) & later[:len(squares), :squares.shape[1]]))
    return count


def gram_rank(mats: Sequence[np.ndarray]) -> int:
    """Rank of the Gram matrix of vectorized matrices (linear independence): its
    eigenvalues, the squared singular values of the stack, above 1e-8*max(1, largest).
    No matrices have rank 0."""
    if len(mats) == 0:
        return 0
    vecs = np.asarray(mats).reshape(len(mats), -1)
    w = np.linalg.svd(vecs, compute_uv=False) ** 2
    return int(np.sum(w > 1e-8 * max(1.0, float(w[0]))))


def pauli_coefficients(h, n: int) -> np.ndarray:
    """Real expansion coefficients of a Hermitian matrix over pauli_word_basis.

    c_w = Tr(w h) / 2^n; reconstruction sum(c_w * w) recovers h exactly.
    """
    m = linalg.require_hermitian(h, "pauli_coefficients")
    dim = 2 ** n
    if m.shape != (dim, dim):
        raise ValueError(f"expected {dim}x{dim} matrix for n={n}, got {m.shape}")
    coeffs = np.array([np.trace(w.dense() @ m) / dim for w in pauli_word_basis(n)])
    if np.abs(coeffs.imag).max() > 1e-9:
        raise ValueError("trace coefficients of a Hermitian matrix must be real")
    return coeffs.real


def lie_embedding_check(first: Sequence[np.ndarray], second: Sequence[np.ndarray],
                        tol: float = linalg.DEFAULT_TOL) -> bool:
    """Certify psi([B,C]) = [psi(B), psi(C)] for per-qubit su(2) components.

    psi places each 2x2 anti-Hermitian traceless component on its own qubit
    and sums the embeddings; the bracket on tuples acts componentwise.
    """
    if len(first) != len(second):
        raise ValueError(f"component counts differ: {len(first)} vs {len(second)}")
    n = len(first)

    def psi(components):
        out = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for pos, comp in enumerate(components, start=1):
            out += linalg.embed_qubit_operator(comp, pos, n)  # checks the 2x2 shape
        return out

    pb, pc = psi(first), psi(second)
    lhs = pb @ pc - pc @ pb
    rhs = psi([np.asarray(b) @ np.asarray(c) - np.asarray(c) @ np.asarray(b)
               for b, c in zip(first, second)])
    return linalg.frobenius_norm(lhs - rhs) <= tol


def random_su2_components(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random anti-Hermitian traceless 2x2 components, one per qubit."""
    comps = []
    for _ in range(n):
        b = rng.normal(size=3)
        comps.append(1j * (b[0] * PAULI["X"] + b[1] * PAULI["Y"] + b[2] * PAULI["Z"]))
    return comps
