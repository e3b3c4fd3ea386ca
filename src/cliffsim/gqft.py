"""Generalized quantum Fourier transform with per-qubit axis rotations.

Each qubit l carries two unit axes, one per bit value.  For a basis index
k with bits k_1..k_n (k_1 most significant), Gamma_k is the sum of the
single-qubit operators n_l^{k_l} . sigma embedded on their qubits, and

    F_G |j> = 2^{-n/2} * sum_k exp(2 pi i j k / 2^n) exp(i theta Gamma_k) |k>.

Because the Gamma_k summands act on disjoint qubits, each column also
factorizes qubit by qubit:

    F_G |j> = (x)_l  ( R_l^0 |0> + exp(2 pi i j / 2^l) R_l^1 |1> ) / sqrt(2)

with R_l^b = exp(i theta n_l^b . sigma) = cos(theta) I + i sin(theta) n.sigma.
A grid is one axis draw, shape (n, 2, 3), and a vector of T thetas.  The
public grid routes are unitarity_grid and distance_grid; each checks its
grid (GqftParams, one theta, uses the same check) in front of unchecked
kernels.  unitarity_grid runs both grid kernels on its once-checked grid,
distance_grid the dense kernel only.
The dense route builds only the distinct Gamma_k, by contracting the axes
with a cached table of sigma_x, sigma_y, sigma_z embedded on each qubit,
and exponentiates them in one
eigendecomposition call: a qubit with equal axes gives every Gamma_k the
same term, so the shared-axis draw needs one matrix.  Gamma_k depends on
the axes only, so that one call serves every theta (_dense_grid).  The
factored route builds every column of every theta at once, as a
column-wise Kronecker product of n (T, 2, 2^n) factors, built in one
broadcast from one closed-form call (linalg.expm_i_involution) on the 2n
2x2 matrices n_l^b . sigma at every theta and a cached read-only (n, 2^n)
table of the column phases exp(2 pi i j / 2^l) (_factored_grid).
The dense route exponentiates through an eigendecomposition, so the two
routes share nothing beyond the Pauli matrices and cross-check each other.
theta = 0 recovers the standard transform; the Frobenius distance from it
is bounded by 2^(3n/2) * theta * n * sqrt(2) * exp(theta * n * sqrt(2)).
unitarity_grid gives the unitarity defect and the column factorization
error of every theta of a grid, distance_grid the distance and its bound,
each quantity one stacked reduction; neither asserts anything: the
thresholds are the caller's.  distance_report gives all four for one
parameter set.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .clifford import PAULI, _check_register_size
from .linalg import _read_only
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
    deviation = np.abs(np.sqrt((ax * ax).sum(axis=2)) - 1.0).max()
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


class GqftParams(namedtuple("GqftParams", "n theta axes")):
    """axes has shape (n, 2, 3); axes[l-1][b] is the unit axis for bit b."""
    __slots__ = ()

    def __new__(cls, n: int, theta: float, axes: np.ndarray):
        ax, _ = _checked_grid(axes, [theta])
        if len(ax) != n:
            raise ValueError(f"axes must have shape ({n}, 2, 3), got {ax.shape}")
        return super().__new__(cls, n, theta, ax)


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
    return np.repeat(ax, 2, axis=1)


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
    return _read_only(np.array([[linalg.embed_qubit_operator(PAULI[p], l + 1, n) for p in "XYZ"]
                                for l in range(n)]))


def _gammas(axes: np.ndarray, ks) -> np.ndarray:
    """Gamma_k of checked axes for each k of ks, ints in 0..2^n - 1, unchecked,
    stacked (len(ks), 2^n, 2^n).  Gamma_k is the sum over qubits l of
    n_l^{k_l} . sigma embedded on qubit l; the 2n embedded operators come from
    one contraction of the axes with the embedded Pauli table and are picked
    by the bits of k."""
    n, dim = len(axes), 2 ** len(axes)
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
    return _read_only(np.exp(2j * np.pi * grid / dim) / math.sqrt(dim))


@functools.cache
def _column_phases(n: int) -> np.ndarray:
    """exp(2 pi i j / 2^l) at qubit l (row l - 1) and column j, shape (n, 2^n),
    built once per n and read-only."""
    j = np.arange(2 ** n)
    l = np.arange(1, n + 1)[:, None]
    return _read_only(np.exp(2j * np.pi * j / 2 ** l))


def _dense_grid(axes: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Dense transforms of one checked axis draw, shape (n, 2, 3), at each of T
    checked thetas, shape (T, 2^n, 2^n): column k of exp(i theta Gamma_k) for
    every k, times the standard transform.  Gamma_k does not depend on theta,
    so one stacked eigendecomposition call serves every theta of the grid,
    with one eigendecomposition per distinct Gamma_k: a qubit whose two axes
    are equal contributes the same term whichever its bit, so
    Gamma_k = Gamma_{k & mask}, where mask keeps the bits of the qubits whose
    axes differ (one matrix for random_axes, 2^n for random_bit_axes)."""
    n = len(axes)
    differs = (axes[:, 0] != axes[:, 1]).any(axis=1).tolist()  # do qubit l's two axes differ
    # Plain Python on at most 16 ints: numpy forms of these lines (np.unique, or bit
    # masks over np.arange) touch numpy code that adds 0.2-0.5 MB to peak RSS.
    mask = sum(1 << (n - 1 - l) for l in range(n) if differs[l])
    reps = [r for r in range(2 ** n) if r & mask == r]  # the distinct k & mask, ascending
    index = [reps.index(j & mask) for j in range(2 ** n)]  # Gamma_k = Gamma_{reps[index[k]]}
    # exps[t, r] = exp(i theta_t Gamma_{reps[r]})
    exps = linalg.expm_i(_gammas(axes, reps), thetas)
    k = np.arange(2 ** n)
    return exps[:, index, :, k].transpose(1, 2, 0) @ standard_qft(n)


def _factored_grid(axes: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Factored transforms of one checked axis draw, shape (n, 2, 3), at each
    of T checked thetas, shape (T, 2^n, 2^n), every column of every theta at
    once.

    Column j is the Kronecker product over qubits l of
    (R_l^0 |0> + exp(2 pi i j / 2^l) R_l^1 |1>) / sqrt(2), where R_l^b is the
    2x2 closed form linalg.expm_i_involution, one call for every qubit, bit
    and theta.  The factors of every qubit for all j and all theta form one
    (T, n, 2, 2^n) array, built in one broadcast with the cached phases, and
    the columns are their column-wise Kronecker product, one step per qubit
    after the first.
    """
    n, dim, count = len(axes), 2 ** len(axes), len(thetas)
    # rot[t, l, b] = R_{l+1}^b at theta_t, shape (T, n, 2, 2, 2)
    rot = linalg.expm_i_involution(axis_dot_sigma(axes), thetas[:, None, None])
    r0, r1 = rot[:, :, 0, :, 0, None], rot[:, :, 1, :, 1, None]  # (T, n, 2, 1)
    factors = (r0 + _column_phases(n)[:, None, :] * r1) / math.sqrt(2.0)  # (T, n, 2, dim)
    cols = factors[:, 0]
    for l in range(1, n):
        cols = (cols[:, :, None, :] * factors[:, l, None, :, :]).reshape(count, -1, dim)
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


class GqftReport(NamedTuple):
    n: int
    theta: float
    unitarity_defect: float
    max_column_factorization_error: float
    distance_to_qft: float
    bound: float


def unitarity_grid(axes, thetas: Sequence[float]) -> list[tuple[float, float]]:
    """(unitarity defect, largest column factorization error) of one axis
    draw at each theta of a grid (see _dense_grid), in theta order; each
    quantity is one stacked reduction over the grid.  The grid is checked
    once, here, and both routes run unchecked on it."""
    ax, th = _checked_grid(axes, thetas)
    dense = _dense_grid(ax, th)
    col_errs = np.linalg.norm(dense - _factored_grid(ax, th), axis=-2).max(axis=-1)
    return list(zip(linalg.unitarity_defect(dense).tolist(), col_errs.tolist()))


def distance_grid(axes, thetas: Sequence[float]) -> list[tuple[float, float]]:
    """(Frobenius distance from the standard transform, distance_bound) of one
    axis draw at each theta of a grid, in theta order: the checked grid, the
    dense route alone and one stacked reduction."""
    ax, th = _checked_grid(axes, thetas)
    n = len(ax)
    distances = linalg.frobenius_norm(_dense_grid(ax, th) - standard_qft(n))
    return [(distance, distance_bound(n, theta))
            for distance, theta in zip(distances.tolist(), th.tolist())]


def distance_report(params: GqftParams) -> GqftReport:
    """The report of one parameter set, from the one-theta grid of each grid function."""
    [(defect, col_err)] = unitarity_grid(params.axes, [params.theta])
    [(distance, bound)] = distance_grid(params.axes, [params.theta])
    return GqftReport(params.n, params.theta, defect, col_err, distance, bound)
