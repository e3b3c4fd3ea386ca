"""Dense complex linear-algebra kernel.

Matrices and state vectors are plain ``numpy.ndarray`` values (complex128,
row-major).  Qubit convention used throughout the package: qubit 1 is the
most significant bit of a computational-basis index, so ``tensor(A, B)``
places ``A`` on the high bits.

Every exponential in this package is of the form exp(i*s*H) with H
Hermitian.  ``expm_i_involution`` is the closed form of a Hermitian
involution: H^2 = I gives exp(i*s*H) = cos(s) I + i sin(s) H.  The product
formula (``trotter``) and the GQFT axis rotations use it; the perceptron
(``cqp``) applies the same closed form to |0..0> only.  The general
``expm_i`` goes through a Hermitian eigendecomposition (LAPACK ``eigh``)
instead of a Pade scheme.  It is the oracle of the closed forms: the tests
compare them with it, and the dense GQFT and the exact Trotter evolution
use it, so the factored GQFT and the product formula are checked against
an independent route.  ``hermitian_eigen`` and ``expm_i`` take one matrix
or a stack of them, shape (..., d, d), and hand the whole stack to LAPACK
in one ``eigh`` call; a single matrix is a stack of shape ().  Every guard
(finite and square input, Hermiticity, residual, orthonormality) applies
to each matrix of the stack.  An eigendecomposition that fails its
residual or orthonormality check is a hard error, never a silent fallback.
``expm_i`` is the only library caller of ``hermitian_eigen``; singular
values come from LAPACK's SVD.

Valid matrix input is decided here only: ``as_matrix`` coerces one finite
square matrix; ``require_unitary`` and ``require_hermitian`` (also on stacks)
coerce, check against DEFAULT_TOL and return their input.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-10


class CheckFailure(Exception):
    """A cross-check between two independent routes failed.

    ``name`` is the check's name as the CLI reports it (``FAIL <name>``).
    """

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name}: {detail}")
        self.name = name
        self.detail = detail


def as_matrix(a, where: str) -> np.ndarray:
    """Coerce to one finite complex square matrix, shape (d, d)."""
    m = _square_stack(a, where)
    if m.ndim != 2:
        raise ValueError(f"{where}: expected a 2-d matrix, got ndim={m.ndim}")
    return m


def _square_stack(a, where: str) -> np.ndarray:
    """Coerce to a finite complex stack of square matrices, shape (..., d, d)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{where}: expected a square matrix or a stack of them, "
                         f"got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{where}: matrix contains non-finite entries")
    return m


def adjoint(a) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def tensor(*factors) -> np.ndarray:
    """Kronecker product; the first factor acts on the most significant qubit."""
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def embed_qubit_operator(op, qubit: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator on 1-based `qubit` of an n-qubit register."""
    m = as_matrix(op, "embed_qubit_operator")
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got {m.shape}")
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit index {qubit} out of range 1..{n}")
    return tensor(np.eye(2 ** (qubit - 1)), m, np.eye(2 ** (n - qubit)))


def frobenius_norm(a) -> float:
    return float(np.sqrt(np.sum(np.abs(np.asarray(a)) ** 2)))


def _max_hermiticity_defect(m: np.ndarray) -> float:
    """Largest Frobenius norm of M - M^dag over the matrices of a stack (..., d, d)."""
    squares = (np.abs(m - adjoint(m)) ** 2).sum(axis=(-2, -1), keepdims=True)
    return math.sqrt(squares.max(initial=0.0))


def require_hermitian(a, where: str) -> np.ndarray:
    """The input as a finite complex stack (..., d, d) of matrices Hermitian
    to DEFAULT_TOL, else ValueError naming `where`."""
    m = _square_stack(a, where)
    defect = _max_hermiticity_defect(m)
    if defect > DEFAULT_TOL:
        raise ValueError(f"{where}: input is not Hermitian "
                         f"(defect {defect:.3e} > tol {DEFAULT_TOL:.3e})")
    return m


def require_unitary(a, where: str) -> np.ndarray:
    """The input as a finite complex matrix unitary to DEFAULT_TOL, else
    ValueError naming `where`."""
    m = as_matrix(a, where)
    defect = unitarity_defect(m)
    if defect > DEFAULT_TOL:
        raise ValueError(f"{where}: input is not unitary "
                         f"(defect {defect:.3e} > tol {DEFAULT_TOL:.3e})")
    return m


def hermiticity_defect(a) -> float:
    return _max_hermiticity_defect(as_matrix(a, "hermiticity_defect"))


def unitarity_defect(a) -> float:
    """Frobenius norm of M M^dag - I.  For a square M this equals the norm of
    M^dag M - I: both are the norm of Sigma^2 - I over M's singular values."""
    m = as_matrix(a, "unitarity_defect")
    return frobenius_norm(m @ adjoint(m) - np.eye(m.shape[0]))


class HermitianEigen(NamedTuple):
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # orthonormal columns, paired with eigenvalues


def hermitian_eigen(h) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    (..., d, d), by one LAPACK call (``numpy.linalg.eigh``).

    Each result is re-checked: a residual max|AV - V diag(lam)| above
    DEFAULT_TOL * max(1, max|lam|) of its own matrix, or an orthonormality
    defect max|V^dag V - I| above DEFAULT_TOL, raises
    ``numpy.linalg.LinAlgError``.
    """
    a = require_hermitian(h, "hermitian_eigen")
    a = a / 2.0 + adjoint(a) / 2.0  # halve first: no overflow near the float limit
    lam, v = np.linalg.eigh(a)
    # each matrix's residual is measured against its own max(1, max|lam|)
    scale = np.abs(lam).max(axis=-1, keepdims=True, initial=1.0)
    residual = (np.abs(a @ v - v * lam[..., None, :]) / scale[..., None]).max(initial=0.0)
    ortho = np.abs(adjoint(v) @ v - np.eye(a.shape[-1])).max(initial=0.0)
    if residual > DEFAULT_TOL or ortho > DEFAULT_TOL:
        raise np.linalg.LinAlgError(
            f"hermitian_eigen: eigh result fails its check (relative residual "
            f"{residual:.3e}, orthonormality defect {ortho:.3e}, tol {DEFAULT_TOL:.3e})")
    return HermitianEigen(lam, v)


def expm_i(h, s: float = 1.0) -> np.ndarray:
    """exp(i*s*H) for a Hermitian H, or for each H of a stack (..., d, d);
    unitary by construction."""
    # also checked in hermitian_eigen; a bad input must stop before it is entered
    m = require_hermitian(h, "expm_i")
    lam, v = hermitian_eigen(m)
    return (v * np.exp(1j * s * lam)[..., None, :]) @ adjoint(v)


def expm_i_involution(h, s: float = 1.0) -> np.ndarray:
    """exp(i*s*H) = cos(s) I + i sin(s) H, for a Hermitian H with H^2 = I.

    H^2 = I is the caller's to guarantee (every blade squares to I); it is
    not re-checked here.  The tests compare this closed form with expm_i.
    """
    m = 1j * math.sin(s) * np.asarray(h, dtype=complex)  # a new array
    m.flat[::m.shape[0] + 1] += math.cos(s)
    return m


def spectral_norm(a) -> float:
    """Largest singular value (LAPACK SVD)."""
    return float(np.linalg.norm(as_matrix(a, "spectral_norm"), 2))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + adjoint(m)) / 2.0


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return expm_i(random_hermitian(dim, rng))
