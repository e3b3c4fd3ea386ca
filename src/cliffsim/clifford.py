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

Two blades commute or anticommute.  Anticommuting basis pairs are counted
two ways that share no code: the parity rule on index sets, for all pairs
at once (anticommutation_matrix), and dense commutators of the basis
stack, two GEMMs per tile of _TILE rows (_pair_products), so the working
memory is O(_TILE * 4^n * d^2) and no (4^n, 4^n, d, d) tensor is built.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import linalg

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """A phase-free tensor word over {I, X, Y, Z}."""

    n: int
    letters: tuple[str, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if len(self.letters) != self.n:
            raise ValueError(f"expected {self.n} letters, got {len(self.letters)}")
        bad = [c for c in self.letters if c not in PAULI]
        if bad:
            raise ValueError(f"invalid Pauli letters: {bad}")

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


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


# The 2n generator matrices of every register size, built once at import so
# that blades share them and no job pays (or traces) their construction.
_GENERATORS = {n: tuple(_read_only(gamma(n, a).dense()) for a in range(2 * n))
               for n in REGISTER_SIZES}


@dataclass(frozen=True)
class Blade:
    """Hermitian product omega * gamma_{j1} ... gamma_{jz}, indices ascending."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        _check_register_size(self.n)
        idx = tuple(self.indices)
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"indices must be strictly ascending, got {idx}")
        if idx and not (0 <= idx[0] and idx[-1] <= 2 * self.n - 1):
            raise ValueError(f"indices {idx} out of range for n={self.n}")
        object.__setattr__(self, "indices", idx)

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
    return [Blade(n, idx) for idx in _basis_indices(n)]


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
    blades = hermitian_basis(n)
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
    gamma_a gamma_b + gamma_b gamma_a = 2 delta_ab I, and the Gram rank of
    the basis; asserts none of them, the thresholds are the caller's."""
    mats = _basis_stack(n)
    gens = np.stack(_GENERATORS[n])
    ab, ba = next(_pair_products(gens, len(gens)))
    anti = (ab + ba).transpose(0, 2, 1, 3)
    anti[np.diag_indices(len(gens))] -= 2.0 * np.eye(2 ** n)
    relations = float(linalg.frobenius_norm(anti)[np.triu_indices(len(gens))].max())
    return BasisReport(n, len(mats), linalg.hermiticity_defect(mats),
                       relations, gram_rank(mats))


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


def anticommutes(j1: Iterable[int], j2: Iterable[int]) -> bool:
    """Whether the blades with index sets j1, j2 anticommute: the two-set
    case of anticommutation_matrix."""
    return bool(anticommutation_matrix([j1, j2])[0, 1])


def omega_count(n: int) -> int:
    """Number of unordered non-commuting basis pairs, by the parity rule."""
    anti = anticommutation_matrix(_basis_indices(n))
    return int(np.triu(anti, 1).sum())


# Rows per tile of _pair_products: omega_count_dense(3) peaks at 0.59 MB (4: 9.4).
_TILE = 2


def _pair_products(mats: np.ndarray, tile: int = _TILE):
    """Yield (ab, ba) for each tile of rows i..i+tile-1 (i = 0, tile, ...) of a
    (k, d, d) stack, in the GEMM's own layout: ab[r, :, j, :] = A_{i+r} A_{i+j} and
    ba[r, :, j, :] = A_{i+j} A_{i+r} for i+j < k.  Each tile is two GEMMs
    between its rows and the stack laid side by side; ab is contiguous."""
    k, d, _ = mats.shape
    rows, side = mats.reshape(k * d, d), mats.transpose(1, 0, 2).reshape(d, k * d)
    for i in range(0, k, tile):
        t = min(tile, k - i)
        ab = rows[i * d:(i + t) * d] @ side[:, i * d:]
        ba = rows[i * d:] @ side[:, i * d:(i + t) * d]
        yield ab.reshape(t, d, k - i, d), ba.reshape(k - i, d, t, d).transpose(2, 1, 0, 3)


def omega_count_dense(n: int) -> int:
    """Brute-force count via dense commutators; oracle for omega_count.  Each
    tile of _TILE blades meets every later blade in two GEMMs (_pair_products),
    so memory stays O(_TILE * 4^n * d^2); BA is its own product, never (AB)^dag."""
    mats = _basis_stack(n)
    later = np.arange(len(mats)) > np.arange(_TILE)[:, None]  # [r, j]: j > r
    count = 0
    for ab, ba in _pair_products(mats):
        v = np.subtract(ab, ba, out=ab).view(float)  # Frobenius norms: real view
        norms = np.sqrt(np.einsum("rajb,rajb->rj", v, v))
        count += int(np.count_nonzero((norms > 1e-9) & later[:len(norms), :norms.shape[1]]))
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
