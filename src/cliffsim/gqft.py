"""Generalized quantum Fourier transform with per-qubit axis rotations.

Each qubit l carries two unit axes, one per bit value.  For a basis index
k with bits k_1..k_n (k_1 most significant), Gamma_k is the sum of the
single-qubit operators n_l^{k_l} . sigma embedded on their qubits, and

    F_G |j> = 2^{-n/2} * sum_k exp(2 pi i j k / 2^n) exp(i theta Gamma_k) |k>.

Because the Gamma_k summands act on disjoint qubits, each column also
factorizes qubit by qubit:

    F_G |j> = (x)_l  ( R_l^0 |0> + exp(2 pi i j / 2^l) R_l^1 |1> ) / sqrt(2)

with R_l^b = exp(i theta n_l^b . sigma) = cos(theta) I + i sin(theta) n.sigma.
The dense route stacks all 2^n Gamma_k (from 2n embedded single-qubit
operators, picked by the bits of k) and exponentiates the stack with one
eigendecomposition call; the factored route builds every column at once
as a column-wise Kronecker product of n (2, 2^n) factors, using only the
2x2 closed form.  The two routes share nothing beyond axis_dot_sigma, so
they cross-check each other.  theta = 0 recovers the standard transform;
the Frobenius distance from it is bounded by 2^(3n/2) * theta * n *
sqrt(2) * exp(theta * n * sqrt(2)).  distance_report computes these
checked quantities and asserts none of them: the thresholds are the
caller's.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .clifford import PAULI
from .simulator import basis_state  # noqa: F401  bench/test_bench.py traces this binding

_AXIS_TOL = 1e-12


@dataclass(frozen=True)
class GqftParams:
    n: int
    theta: float
    axes: np.ndarray  # shape (n, 2, 3); axes[l-1][b] is the unit axis for bit b

    def __post_init__(self):
        if not 1 <= self.n <= 4:
            raise ValueError(f"need 1 <= n <= 4, got n={self.n}")
        if not 0 <= self.theta < math.inf:
            raise ValueError(f"need a finite theta >= 0, got {self.theta}")
        ax = np.asarray(self.axes, dtype=float)
        if ax.shape != (self.n, 2, 3):
            raise ValueError(f"axes must have shape ({self.n}, 2, 3), got {ax.shape}")
        if not np.isfinite(ax).all():
            raise ValueError("axes contain non-finite entries")
        norms = np.linalg.norm(ax, axis=2)
        if np.abs(norms - 1.0).max() > _AXIS_TOL:
            raise ValueError(
                f"axes must be unit vectors (max deviation {np.abs(norms - 1.0).max():.3e})")
        object.__setattr__(self, "axes", ax)


def random_axes(n: int, rng: np.random.Generator) -> np.ndarray:
    """One random unit axis per qubit, shared by both bit values.

    The dense transform is unitary exactly when every qubit applies the
    same rotation to |0> and |1>: the column Gram factor for qubit l is
    R_l^0 |0><0| R_l^0+  +  R_l^1 |1><1| R_l^1+, a sum of two rank-one
    projectors that resolves the identity only when the two rotated basis
    vectors stay orthogonal.  Sharing the axis guarantees that, so this is
    the draw used by the unitarity checks.  Use random_bit_axes for the
    general two-axes-per-qubit configuration.
    """
    ax = rng.normal(size=(n, 1, 3))
    ax = ax / np.linalg.norm(ax, axis=2, keepdims=True)
    return np.broadcast_to(ax, (n, 2, 3)).copy()


def random_bit_axes(n: int, rng: np.random.Generator) -> np.ndarray:
    """Independent random unit axes for each (qubit, bit value) pair.

    Column factorization and the distance bound hold for this general
    configuration, but unitarity does not (see random_axes).
    """
    ax = rng.normal(size=(n, 2, 3))
    return ax / np.linalg.norm(ax, axis=2, keepdims=True)


def z_axes(n: int) -> np.ndarray:
    ax = np.zeros((n, 2, 3))
    ax[:, :, 2] = 1.0
    return ax


def axis_dot_sigma(axis) -> np.ndarray:
    a = np.asarray(axis, dtype=float)
    return a[0] * PAULI["X"] + a[1] * PAULI["Y"] + a[2] * PAULI["Z"]


def axis_rotation(axis, theta: float) -> np.ndarray:
    """exp(i theta n.sigma) = cos(theta) I + i sin(theta) n.sigma (2x2 closed form)."""
    return linalg.expm_i_involution(axis_dot_sigma(axis), theta)


def gamma_stack(params: GqftParams) -> np.ndarray:
    """Every Gamma_k, stacked along the first axis: shape (2^n, 2^n, 2^n).

    Gamma_k is the sum over qubits l of n_l^{k_l} . sigma embedded on qubit
    l; the 2n embedded operators are built once and picked by the bits of k.
    """
    n = params.n
    ops = np.array([[linalg.embed_qubit_operator(axis_dot_sigma(params.axes[l][b]), l + 1, n)
                     for b in (0, 1)] for l in range(n)])  # (n, 2, 2^n, 2^n)
    qubits = np.arange(n)[:, None]
    bits = (np.arange(2 ** n) >> (n - 1 - qubits)) & 1  # bits[l, k]: bit of qubit l + 1
    return ops[qubits, bits].sum(axis=0)


@functools.cache
def standard_qft(n: int) -> np.ndarray:
    """The 2^n-point QFT matrix, built once per n and read-only."""
    dim = 2 ** n
    grid = np.outer(np.arange(dim), np.arange(dim))
    qft = np.exp(2j * np.pi * grid / dim) / math.sqrt(dim)
    qft.flags.writeable = False
    return qft


def gqft_dense(params: GqftParams) -> np.ndarray:
    """Dense transform: column k of exp(i theta Gamma_k) for every k, from one
    stacked eigendecomposition, times the standard transform."""
    k = np.arange(2 ** params.n)
    exps = linalg.expm_i(gamma_stack(params), params.theta)  # exps[k] = exp(i theta Gamma_k)
    return exps[k, :, k].T @ standard_qft(params.n)


def gqft_column_factored(params: GqftParams) -> np.ndarray:
    """Every column at once, from per-qubit 2x2 closed-form rotations.

    Column j is the Kronecker product over qubits l of
    (R_l^0 |0> + exp(2 pi i j / 2^l) R_l^1 |1>) / sqrt(2); the factors of
    qubit l for all j form one (2, 2^n) matrix, and the columns are their
    column-wise Kronecker product.
    """
    dim = 2 ** params.n
    j = np.arange(dim)
    cols = np.ones((1, dim), dtype=complex)
    for l in range(1, params.n + 1):
        r0 = axis_rotation(params.axes[l - 1][0], params.theta)
        r1 = axis_rotation(params.axes[l - 1][1], params.theta)
        phase = np.exp(2j * np.pi * j / 2 ** l)
        factor = (r0[:, :1] + phase * r1[:, 1:]) / math.sqrt(2.0)  # (2, dim)
        cols = (cols[:, None, :] * factor[None, :, :]).reshape(-1, dim)
    return cols


def rotation_resolution_check(r_op, tol: float = linalg.DEFAULT_TOL) -> bool:
    """Certify sum_k R|k><k|R^dag = I to `tol`, for R unitary to DEFAULT_TOL."""
    m = linalg.require_unitary(r_op, "rotation_resolution_check")
    dim = m.shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        col = m[:, k]
        acc += np.outer(col, np.conj(col))
    return linalg.frobenius_norm(acc - np.eye(dim)) <= tol


def distance_bound(n: int, theta: float) -> float:
    return 2.0 ** (1.5 * n) * theta * n * math.sqrt(2.0) * math.exp(theta * n * math.sqrt(2.0))


@dataclass(frozen=True)
class GqftReport:
    n: int
    theta: float
    unitarity_defect: float
    max_column_factorization_error: float
    distance_to_qft: float
    bound: float


def distance_report(params: GqftParams) -> GqftReport:
    """Unitarity defect, factorization error, distance and bound for one parameter set."""
    f_g = gqft_dense(params)
    col_err = float(np.linalg.norm(f_g - gqft_column_factored(params), axis=0).max())
    return GqftReport(params.n, params.theta, linalg.unitarity_defect(f_g), col_err,
                      linalg.frobenius_norm(f_g - standard_qft(params.n)),
                      distance_bound(params.n, params.theta))
