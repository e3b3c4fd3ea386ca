"""Pauli-word generators and Hermitian Clifford generator products.

A register of n qubits carries 2n anticommuting generators, each realized
as a Pauli string with a single X or Y letter followed by a Z tail:

    gamma(n, 2k)   = I^(n-k-1) (x) X (x) Z^k
    gamma(n, 2k+1) = I^(n-k-1) (x) Y (x) Z^k      for k = 0..n-1.

Products of distinct generators ("blades") are made Hermitian by a phase
factor omega in {1, i} chosen from the grade: omega = i exactly when
zeta*(zeta-1)/2 is odd (zeta = number of factors), i.e. zeta = 2, 3 mod 4.
A blade's matrix is omega times the dense product of its generator
matrices, which are built once at import.  Pauli-word matrices are monomial
with entries in {0, +-1, +-i}, so every such product is exact in floating
point: construction certifies B = B^dag by exact equality and aborts
otherwise rather than flipping the factor.  Matrices put qubit 1 on the
most significant bit.
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


def gamma(n: int, a: int) -> PauliString:
    """Generator a of the 2n-generator set on n qubits (phase-free word)."""
    if not 1 <= n <= 4:
        raise ValueError(f"need 1 <= n <= 4, got n={n}")
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
               for n in range(1, 5)}


@dataclass(frozen=True)
class Blade:
    """Hermitian product omega * gamma_{j1} ... gamma_{jz}, indices ascending."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.n not in _GENERATORS:
            raise ValueError(f"need 1 <= n <= 4, got n={self.n}")
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

    @functools.cached_property
    def _dense(self) -> np.ndarray:
        gens = _GENERATORS[self.n]
        m = self.omega * functools.reduce(
            np.matmul, (gens[a] for a in self.indices), np.eye(2 ** self.n, dtype=complex))
        if not np.array_equal(m, linalg.adjoint(m)):
            # the omega rule guarantees Hermiticity and the product is exact,
            # so reaching this means the construction itself is broken
            raise ValueError(
                f"blade {self.indices} on n={self.n} is not Hermitian; "
                "refusing to flip omega")
        return _read_only(m)

    def dense(self) -> np.ndarray:
        return self._dense


def hermitian_basis(n: int) -> list[Blade]:
    """All 4^n blades, grade-major, index-lexicographic inside each grade."""
    if not 1 <= n <= 4:
        raise ValueError(f"need 1 <= n <= 4, got n={n}")
    return [Blade(n, idx) for grade in range(2 * n + 1)
            for idx in itertools.combinations(range(2 * n), grade)]


def pauli_word_basis(n: int) -> list[PauliString]:
    """All 4^n phase-free words, in lexicographic I < X < Y < Z order."""
    if not 1 <= n <= 4:
        raise ValueError(f"need 1 <= n <= 4, got n={n}")
    return [PauliString(n, letters)
            for letters in itertools.product("IXYZ", repeat=n)]


class BasisReport(NamedTuple):
    n: int
    blade_count: int
    max_hermiticity_defect: float
    max_generator_relation_defect: float
    gram_rank: int


def basis_report(n: int) -> BasisReport:
    """Hermiticity of every blade, the generator relations
    gamma_a gamma_b + gamma_b gamma_a = 2 delta_ab I, and the Gram rank of
    the basis; asserts none of them, the thresholds are the caller's."""
    mats = [b.dense() for b in hermitian_basis(n)]
    eye = np.eye(2 ** n)
    relations = max(
        linalg.frobenius_norm(ga @ gb + gb @ ga - (2.0 * eye if a == b else 0.0))
        for (a, ga), (b, gb) in itertools.combinations_with_replacement(
            enumerate(_GENERATORS[n]), 2))
    return BasisReport(n, len(mats), max(map(linalg.hermiticity_defect, mats)),
                       relations, gram_rank(mats))


def anticommutes(j1: Iterable[int], j2: Iterable[int]) -> bool:
    """Whether the blades with index sets j1, j2 anticommute.

    Commuting each generator of one product past each generator of the
    other flips the sign unless the indices coincide, so the products
    anticommute exactly when |j1|*|j2| - |intersection| is odd.
    """
    s1, s2 = set(j1), set(j2)
    return (len(s1) * len(s2) - len(s1 & s2)) % 2 == 1


def omega_count(n: int) -> int:
    """Number of unordered non-commuting basis pairs, by the parity rule."""
    if not 1 <= n <= 3:
        raise ValueError(f"need 1 <= n <= 3, got n={n}")
    subsets = [b.indices for b in hermitian_basis(n)]
    return sum(1 for a, b in itertools.combinations(subsets, 2)
               if anticommutes(a, b))


def omega_count_dense(n: int) -> int:
    """Brute-force count via dense commutators; oracle for omega_count."""
    if not 1 <= n <= 3:
        raise ValueError(f"need 1 <= n <= 3, got n={n}")
    mats = [b.dense() for b in hermitian_basis(n)]
    return sum(1 for a, b in itertools.combinations(mats, 2)
               if linalg.frobenius_norm(a @ b - b @ a) > 1e-9)


def gram_rank(mats: Sequence[np.ndarray]) -> int:
    """Rank of the Gram matrix of vectorized matrices (linear independence): its
    eigenvalues, the squared singular values of the stack, above 1e-8*max(1, largest)."""
    vecs = np.array([np.asarray(m).ravel() for m in mats])
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
