"""Generalized quantum Fourier transform with per-qubit axis rotations.

Each qubit l carries two unit axes, one per bit value.  For a basis index
k with bits k_1..k_n (k_1 most significant), Gamma_k is the sum of the
single-qubit operators n_l^{k_l} . sigma embedded on their qubits, and

    F_G |j> = 2^{-n/2} * sum_k exp(2 pi i j k / 2^n) exp(i theta Gamma_k) |k>.

Because the Gamma_k summands act on disjoint qubits, each column also
factorizes qubit by qubit:

    F_G |j> = (x)_l  ( R_l^0 |0> + exp(2 pi i j / 2^l) R_l^1 |1> ) / sqrt(2)

with R_l^b = exp(i theta n_l^b . sigma) = cos(theta) I + i sin(theta) n.sigma.
The dense route goes through full eigendecompositions while the factored
route uses only the 2x2 closed form, so the two paths cross-check each
other.  theta = 0 recovers the standard transform; the Frobenius distance
from it is bounded by 2^(3n/2) * theta * n * sqrt(2) * exp(theta
* n * sqrt(2)).  distance_report computes these checked quantities and
asserts none of them: the thresholds are the caller's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .clifford import PAULI
from .simulator import basis_state

_AXIS_TOL = 1e-12


@dataclass(frozen=True)
class GqftParams:
    n: int
    theta: float
    axes: np.ndarray  # shape (n, 2, 3); axes[l-1][b] is the unit axis for bit b

    def __post_init__(self):
        if not 1 <= self.n <= 4:
            raise ValueError(f"need 1 <= n <= 4, got n={self.n}")
        if self.theta < 0:
            raise ValueError(f"need theta >= 0, got {self.theta}")
        ax = np.asarray(self.axes, dtype=float)
        if ax.shape != (self.n, 2, 3):
            raise ValueError(f"axes must have shape ({self.n}, 2, 3), got {ax.shape}")
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


def _bit(k: int, l: int, n: int) -> int:
    return (k >> (n - l)) & 1


def gamma_k(params: GqftParams, k: int) -> np.ndarray:
    """Sum of the bit-selected axis operators, one per qubit."""
    if not 0 <= k < 2 ** params.n:
        raise ValueError(f"index {k} out of range for n={params.n}")
    out = np.zeros((2 ** params.n, 2 ** params.n), dtype=complex)
    for l in range(1, params.n + 1):
        axis = params.axes[l - 1][_bit(k, l, params.n)]
        out += linalg.embed_qubit_operator(axis_dot_sigma(axis), l, params.n)
    return out


def standard_qft(n: int) -> np.ndarray:
    dim = 2 ** n
    grid = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * np.pi * grid / dim) / math.sqrt(dim)


def gqft_dense(params: GqftParams) -> np.ndarray:
    """Dense transform via full eigendecompositions of each Gamma_k."""
    dim = 2 ** params.n
    cols = np.empty((dim, dim), dtype=complex)
    for k in range(dim):
        cols[:, k] = linalg.expm_i(gamma_k(params, k), params.theta) @ basis_state(params.n, k)
    return cols @ standard_qft(params.n)


def gqft_column_factored(params: GqftParams, j: int) -> np.ndarray:
    """Column j assembled from per-qubit 2x2 closed-form rotations."""
    dim = 2 ** params.n
    if not 0 <= j < dim:
        raise ValueError(f"column index {j} out of range for n={params.n}")
    col = np.ones(1, dtype=complex)
    for l in range(1, params.n + 1):
        r0 = axis_rotation(params.axes[l - 1][0], params.theta)
        r1 = axis_rotation(params.axes[l - 1][1], params.theta)
        phase = np.exp(2j * np.pi * j / 2 ** l)
        factor = (r0[:, 0] + phase * r1[:, 1]) / math.sqrt(2.0)
        col = np.kron(col, factor)
    return col


def rotation_resolution_check(r_op, tol: float = linalg.DEFAULT_TOL) -> bool:
    """Certify sum_k R|k><k|R^dag = I for a unitary R."""
    m = linalg.as_matrix(r_op)
    defect = linalg.unitarity_defect(m)
    if defect > tol:
        raise ValueError(f"operator is not unitary (defect {defect:.3e})")
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
    col_err = max(
        float(np.linalg.norm(f_g[:, j] - gqft_column_factored(params, j)))
        for j in range(2 ** params.n))
    return GqftReport(params.n, params.theta, linalg.unitarity_defect(f_g), col_err,
                      linalg.frobenius_norm(f_g - standard_qft(params.n)),
                      distance_bound(params.n, params.theta))
