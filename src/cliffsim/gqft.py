"""Generalized quantum Fourier transform with per-qubit axis rotations.

Each qubit l carries two unit axes, one per bit value.  For a basis index
k with bits k_1..k_n (k_1 most significant), Gamma_k is the sum of the
single-qubit operators n_l^{k_l} . sigma embedded on their qubits, and

    F_G |j> = 2^{-n/2} * sum_k exp(2 pi i j k / 2^n) exp(i theta Gamma_k) |k>.

Because the Gamma_k summands act on disjoint qubits, each column also
factorizes qubit by qubit:

    F_G |j> = (x)_l  ( R_l^0 |0> + exp(2 pi i j / 2^l) R_l^1 |1> ) / sqrt(2)

with R_l^b = exp(i theta n_l^b . sigma) = cos(theta) I + i sin(theta) n.sigma.
A grid is one axis draw, shape (n, 2, 3), and a vector of T thetas; each
grid route checks both (GqftParams, one theta, uses the same check).  The
dense route builds only the distinct Gamma_k, by contracting the axes with
a cached table of sigma_x, sigma_y, sigma_z embedded on each qubit, and
exponentiates them in one eigendecomposition call: a qubit with equal axes
gives every Gamma_k the same term, so the shared-axis draw needs one
matrix.  Gamma_k depends on the axes only, so that one call serves every
theta (gqft_dense_grid).  The factored route builds every column of every
theta at once, as a column-wise Kronecker product of n (T, 2, 2^n) factors,
taken from one closed-form call (linalg.expm_i_involution) on the 2n 2x2
matrices n_l^b . sigma at every theta (gqft_column_factored_grid).  The
dense route exponentiates through an eigendecomposition, so the two routes
share nothing beyond the Pauli matrices and cross-check each other.
theta = 0 recovers the standard transform; the Frobenius distance from it
is bounded by 2^(3n/2) * theta * n * sqrt(2) * exp(theta * n * sqrt(2)).
distance_reports computes these checked quantities for a whole grid, each
as one stacked reduction, and asserts none of them: the thresholds are the
caller's.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .clifford import PAULI, _check_register_size
from .simulator import basis_state  # noqa: F401  bench/test_bench.py traces this binding

_AXIS_TOL = 1e-12


def _checked_axes(axes) -> np.ndarray:
    """The axes as floats, shape (n, 2, 3) for a register size n, finite, unit to _AXIS_TOL."""
    ax = np.asarray(axes, dtype=float)
    if ax.ndim != 3 or ax.shape[1:] != (2, 3):
        raise ValueError(f"axes must have shape (n, 2, 3), got {ax.shape}")
    _check_register_size(len(ax))
    if not np.isfinite(ax).all():
        raise ValueError("axes contain non-finite entries")
    deviation = np.abs(np.linalg.norm(ax, axis=2) - 1.0).max()
    if deviation > _AXIS_TOL:
        raise ValueError(f"axes must be unit vectors (max deviation {deviation:.3e})")
    return ax


def _checked_grid(axes, thetas) -> tuple[np.ndarray, np.ndarray]:
    """_checked_axes(axes) and the thetas: at least one, each finite and >= 0."""
    ax = _checked_axes(axes)
    th = np.asarray(thetas, dtype=float)
    if th.ndim != 1 or not th.size or not all(0 <= t < math.inf for t in th.tolist()):
        raise ValueError(f"need a non-empty vector of finite theta >= 0, got {thetas}")
    return ax, th


@dataclass(frozen=True)
class GqftParams:
    n: int
    theta: float
    axes: np.ndarray  # shape (n, 2, 3); axes[l-1][b] is the unit axis for bit b

    def __post_init__(self):
        ax, _ = _checked_grid(self.axes, [self.theta])
        if len(ax) != self.n:
            raise ValueError(f"axes must have shape ({self.n}, 2, 3), got {ax.shape}")
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


def axis_dot_sigma(axis) -> np.ndarray:
    """n.sigma for one axis, shape (3,) -> (2, 2), or for each axis of a
    stack, shape (..., 3) -> (..., 2, 2)."""
    axis = np.asarray(axis, dtype=float)
    if axis.shape[-1:] != (3,):
        raise ValueError(f"axes must have 3 components, got shape {axis.shape}")
    x, y, z = (axis[..., i, None, None] for i in range(3))
    return x * PAULI["X"] + y * PAULI["Y"] + z * PAULI["Z"]


@functools.cache
def _pauli_table(n: int) -> np.ndarray:
    """sigma_x, sigma_y, sigma_z embedded on each qubit of an n-qubit register,
    shape (n, 3, 2^n, 2^n), built once per n and read-only."""
    table = np.array([[linalg.embed_qubit_operator(PAULI[p], l + 1, n) for p in "XYZ"]
                      for l in range(n)])
    table.flags.writeable = False
    return table


def gamma_stack(axes, ks: Sequence[int] | None = None) -> np.ndarray:
    """Gamma_k of the axes, shape (n, 2, 3), for each k of `ks` (default:
    every k in order), stacked along the first axis: shape (len(ks), 2^n, 2^n).

    Gamma_k is the sum over qubits l of n_l^{k_l} . sigma embedded on qubit
    l; the 2n embedded operators come from one contraction of the axes with
    the embedded Pauli table and are picked by the bits of k, each an int (not a
    bool) in 0..2^n - 1.
    """
    axes = _checked_axes(axes)
    n, dim = len(axes), 2 ** len(axes)
    ks = range(dim) if ks is None else ks
    # each k is checked as given: an int array would truncate 1.7 and take True as 1
    if np.ndim(ks) != 1 or not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                                   and 0 <= i < dim for i in ks):
        raise ValueError(f"ks must be a vector of ints in 0..{dim - 1}, got {ks}")
    k = np.asarray(ks, dtype=int)
    # ops[l, b] = n_l^b . sigma on qubit l + 1, exact: each real or imaginary part
    # of an entry is one product of an axis component with 0 or +-1
    ops = (axes @ _pauli_table(n).reshape(n, 3, dim * dim)).reshape(n, 2, dim, dim)
    qubits = np.arange(n)[:, None]
    bits = (k >> (n - 1 - qubits)) & 1  # bits[l, i]: bit of qubit l + 1 in k[i]
    return ops[qubits, bits].sum(axis=0)


@functools.cache
def standard_qft(n: int) -> np.ndarray:
    """The 2^n-point QFT matrix, built once per n and read-only."""
    dim = 2 ** n
    grid = np.outer(np.arange(dim), np.arange(dim))
    qft = np.exp(2j * np.pi * grid / dim) / math.sqrt(dim)
    qft.flags.writeable = False
    return qft


def gqft_dense_grid(axes, thetas: Sequence[float]) -> np.ndarray:
    """Dense transforms of one axis draw, shape (n, 2, 3), at each of T
    thetas, shape (T, 2^n, 2^n): column k of exp(i theta Gamma_k) for every
    k, times the standard transform.  Gamma_k does not depend on theta, so one
    stacked eigendecomposition call serves every theta of the grid, with one
    eigendecomposition per distinct Gamma_k: a qubit whose two axes are equal
    contributes the same term whichever its bit, so Gamma_k = Gamma_{k & mask},
    where mask keeps the bits of the qubits whose axes differ (one matrix for
    random_axes, 2^n for random_bit_axes)."""
    axes, thetas = _checked_grid(axes, thetas)
    n = len(axes)
    # Plain Python on at most 16 ints: numpy forms of these lines (np.unique, or bit
    # masks over np.arange) touch numpy code that adds 0.2-0.5 MB to peak RSS.
    mask = sum(1 << (n - 1 - l) for l in range(n)
               if not np.array_equal(axes[l, 0], axes[l, 1]))
    reps = [r for r in range(2 ** n) if r & mask == r]  # the distinct k & mask, ascending
    index = [reps.index(j & mask) for j in range(2 ** n)]  # Gamma_k = Gamma_{reps[index[k]]}
    # exps[t, r] = exp(i theta_t Gamma_{reps[r]})
    exps = linalg.expm_i(gamma_stack(axes, reps), thetas)
    k = np.arange(2 ** n)
    return exps[:, index, :, k].transpose(1, 2, 0) @ standard_qft(n)


def gqft_column_factored_grid(axes, thetas: Sequence[float]) -> np.ndarray:
    """Factored transforms of one axis draw, shape (n, 2, 3), at each of T
    thetas, shape (T, 2^n, 2^n), every column of every theta at once.

    Column j is the Kronecker product over qubits l of
    (R_l^0 |0> + exp(2 pi i j / 2^l) R_l^1 |1>) / sqrt(2), where R_l^b is the
    2x2 closed form linalg.expm_i_involution, one call for every qubit, bit
    and theta.  The factors of qubit l for all j and all theta form one
    (T, 2, 2^n) array, and the columns are their column-wise Kronecker
    product, one step per qubit.
    """
    axes, thetas = _checked_grid(axes, thetas)
    n, dim = len(axes), 2 ** len(axes)
    # rot[t, l, b] = R_l^b at theta_t, shape (T, n, 2, 2, 2)
    rot = linalg.expm_i_involution(axis_dot_sigma(axes), thetas[:, None, None])
    j = np.arange(dim)
    cols = np.ones((len(thetas), 1, dim), dtype=complex)
    for l in range(1, n + 1):
        phase = np.exp(2j * np.pi * j / 2 ** l)
        r0, r1 = rot[:, l - 1, 0, :, 0, None], rot[:, l - 1, 1, :, 1, None]  # (T, 2, 1)
        factor = (r0 + phase * r1) / math.sqrt(2.0)  # (T, 2, dim)
        cols = (cols[:, :, None, :] * factor[:, None, :, :]).reshape(len(thetas), -1, dim)
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


def distance_reports(axes, thetas: Sequence[float]) -> list[GqftReport]:
    """Unitarity defect, factorization error, distance and bound of one axis
    draw at each theta of a grid (see gqft_dense_grid), in theta order; each
    quantity is one stacked reduction over the grid.  The two routes check
    the draw."""
    dense = gqft_dense_grid(axes, thetas)
    col_errs = np.linalg.norm(dense - gqft_column_factored_grid(axes, thetas),
                              axis=-2).max(axis=-1)
    n = len(axes)
    defects = linalg.unitarity_defect(dense)
    distances = linalg.frobenius_norm(dense - standard_qft(n))
    return [GqftReport(n, theta, defect, col_err, distance, distance_bound(n, theta))
            for theta, defect, col_err, distance
            in zip(thetas, defects.tolist(), col_errs.tolist(), distances.tolist())]


def distance_report(params: GqftParams) -> GqftReport:
    """The report of one parameter set: the one-theta grid."""
    return distance_reports(params.axes, [params.theta])[0]
