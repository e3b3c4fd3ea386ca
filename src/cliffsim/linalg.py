"""Dense complex linear-algebra kernel.

Matrices and state vectors are plain ``numpy.ndarray`` values (complex128,
row-major).  Qubit convention used throughout the package: qubit 1 is the
most significant bit of a computational-basis index, so ``tensor(A, B)``
places ``A`` on the high bits.

Every exponential in this package is of the form exp(i*s*H) with H
Hermitian.  ``expm_i_involution`` is the closed form of a Hermitian
involution: H^2 = I gives exp(i*s*H) = cos(s) I + i sin(s) H.  It takes one
matrix or a stack (..., d, d) with an array of s that broadcasts against
the stack's leading axes, so the product formula (``trotter``) forms every
factor of a whole r grid in one call, and the factored GQFT (``gqft``) every
2x2 rotation of a whole theta grid; the perceptron (``cqp``) applies the same
closed form to the ground-state column only.
The general ``expm_i`` goes through a Hermitian eigendecomposition (LAPACK
``eigh``) instead of a Pade scheme.  It is the oracle of the closed forms: the tests
compare them with it, and the dense GQFT and the exact Trotter evolution
use it, so the factored GQFT and the product formula are checked against
an independent route.  ``hermitian_eigen`` and ``expm_i`` take one matrix
or a stack of them, shape (..., d, d), and hand the whole stack to LAPACK
in one ``eigh`` call; a single matrix is a stack of shape ().  Every guard
(finite and square input, Hermiticity, residual, orthonormality) applies
to each matrix of the stack.  An eigendecomposition that fails its
residual or orthonormality check is a hard error, never a silent fallback.
``expm_i`` also takes an array of s: exp(i*s*H) = V diag(e^{i s lam}) V^dag,
so one eigendecomposition gives every s; a non-real s raises, and so does
a non-finite s*lam, tested once per call as the float test
max|s| * max|lam| < inf (a product s*lam overflows exactly when that one
does, and a NaN fails it).  ``expm_i`` is the only library caller of
``hermitian_eigen``.  ``tensor`` builds each Kronecker step as one
broadcast multiply and reshape, not with ``np.kron``.  ``frobenius_norm``,
``unitarity_defect`` and ``spectral_norm`` measure one matrix (a float) or
each matrix of a stack (an array); the spectral norm takes the singular
values of the whole stack from one LAPACK SVD call.

``random_hermitian`` draws (M + M^dag) / 2 from one generator, M's real
parts first, and ``random_unitary`` exponentiates it; a stack of draws is a
stack of these one-generator calls.

Valid matrix input is decided here only: ``as_matrix`` coerces one finite
square matrix; ``require_unitary`` and ``require_hermitian`` (also on stacks)
coerce, check against DEFAULT_TOL and return their input.
"""
from __future__ import annotations

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
    """Kronecker product of matrices; the first factor acts on the most
    significant qubit.  Each step is one broadcast multiply and a reshape, so
    every entry is a single product, as in ``np.kron``."""
    out = np.eye(1, dtype=complex)
    for f in factors:
        f = np.asarray(f, dtype=complex)
        out = (out[:, None, :, None] * f[None, :, None, :]).reshape(
            out.shape[0] * f.shape[0], out.shape[1] * f.shape[1])
    return out


def embed_qubit_operator(op, qubit: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator on 1-based `qubit` of an n-qubit register."""
    m = as_matrix(op, "embed_qubit_operator")
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got {m.shape}")
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit index {qubit} out of range 1..{n}")
    return tensor(np.eye(2 ** (qubit - 1)), m, np.eye(2 ** (n - qubit)))


def frobenius_norm(a) -> float | np.ndarray:
    """Frobenius norm of a matrix, or one per matrix of a stack (..., d, d).

    A single matrix gives a float; a stack gives an array of shape (...).
    Unlike hermiticity_defect, a guard that reports the largest value of a
    stack, this is a measurement and keeps every value.
    """
    norms = _frobenius_norms(a)
    return float(norms) if norms.ndim == 0 else norms


def _frobenius_norms(a) -> np.ndarray:
    """frobenius_norm as a numpy scalar or array, for the guards to reduce."""
    return np.sqrt((np.abs(np.asarray(a)) ** 2).sum(axis=(-2, -1)))


def _max_hermiticity_defect(m: np.ndarray) -> float:
    """Largest Frobenius norm of M - M^dag over the matrices of a stack (..., d, d)."""
    return float(_frobenius_norms(m - adjoint(m)).max(initial=0.0))


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
    """Frobenius norm of M - M^dag, or its largest value over a stack (..., d, d)."""
    return _max_hermiticity_defect(_square_stack(a, "hermiticity_defect"))


def unitarity_defect(a) -> float | np.ndarray:
    """Frobenius norm of M M^dag - I, as a float for one matrix or one value
    per matrix of a stack (..., d, d) (see frobenius_norm).  For a square M
    this equals the norm of M^dag M - I: both are the norm of Sigma^2 - I
    over M's singular values."""
    m = _square_stack(a, "unitarity_defect")
    return frobenius_norm(m @ adjoint(m) - np.eye(m.shape[-1]))


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


def expm_i(h, s=1.0) -> np.ndarray:
    """exp(i*s*H) for a Hermitian H, or for each H of a stack (..., d, d);
    unitary by construction.

    `s` is a number or an array of them; an array of shape S gives every
    exp(i*s*H) from the one eigendecomposition, shape S + (..., d, d).  An s
    with a nonzero imaginary part (the result would not be unitary) or a
    non-finite s*lambda (s not finite, or the product overflowing) raises
    ValueError.
    """
    # also checked in hermitian_eigen; a bad input must stop before it is entered
    m = require_hermitian(h, "expm_i")
    lam, v = hermitian_eigen(m)
    s = np.asarray(s)
    if np.iscomplexobj(s) and (s.imag != 0).any():
        raise ValueError("expm_i: s has a nonzero imaginary part, so exp(i*s*H) is not unitary")
    s = s.real
    # rounding is monotone: some s*lam overflows iff max|s| * max|lam| does; NaN and
    # inf * 0 fail too (ravel: abs of a 0-d object array, an int past int64, is an int)
    if not (float(np.abs(s.ravel()).max(initial=0.0)) * float(np.abs(lam).max(initial=0.0))
            < np.inf):
        raise ValueError("expm_i: s * eigenvalue is not finite")
    return (v * np.exp(1j * np.multiply.outer(s, lam))[..., None, :]) @ adjoint(v)


def expm_i_involution(h, s=1.0) -> np.ndarray:
    """exp(i*s*H) = cos(s) I + i sin(s) H, for a Hermitian H with H^2 = I, or
    for each H of a stack (..., d, d).

    `s` is a real number or an array of them that broadcasts against the
    stack's leading axes: an h of shape (L, d, d) and an s of shape (R, L)
    give every exp(i*s[r, j]*H[j]) at once, shape (R, L, d, d).  Each entry is
    formed as for one matrix and one number, so a slice has the bits of the
    call on that matrix and that number.  A non-real or non-finite s raises
    ValueError; a real s of any dtype is taken in float64.  H^2 = I is the
    caller's to guarantee (every blade squares to I); it is not re-checked
    here.  The tests compare this closed form with expm_i.
    """
    h = _square_stack(h, "expm_i_involution")
    s = np.asarray(s)
    if np.iscomplexobj(s) or not np.isfinite(s).all():
        raise ValueError("expm_i_involution: s must be real and finite")
    s = s.astype(float, copy=False)[..., None, None]  # sin of a float16 s is a float16
    m = 1j * np.sin(s) * h  # a new array, in h's memory order
    diag = np.arange(h.shape[-1])
    m[..., diag, diag] += np.cos(s)[..., 0]
    return m


def spectral_norm(a) -> float | np.ndarray:
    """Largest singular value of a matrix, or one per matrix of a stack
    (..., d, d), from one LAPACK SVD call; a float for one matrix, an array
    of shape (...) for a stack (see frobenius_norm)."""
    norms = np.linalg.norm(_square_stack(a, "spectral_norm"), 2, axis=(-2, -1))
    return float(norms) if norms.ndim == 0 else norms


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """(M + M^dag) / 2, where M's real, then its imaginary parts are standard
    normal draws from rng."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + adjoint(m)) / 2.0


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return expm_i(random_hermitian(dim, rng))
