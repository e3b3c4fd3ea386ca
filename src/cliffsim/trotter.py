"""First-order product-formula error measurement and a priori bounds.

For H = sum_j eta_j * B_j over Hermitian blades, the exact evolution is
U = exp(-i t H) and the approximant is V = (prod_j exp(-i t/r * eta_j B_j))^r
with the product taken in term-list order.  The measured error is the
spectral norm ||U - V||.

Three bounds are reported per (t, r):

  bound_simple     = (L * Lambda * t)^2 / r
  bound_full       = bound_simple * exp(L * Lambda * |t| / r)
  bound_commutator = Omega * (Lambda * t)^2 / r
                     + (L * |t|^3 * Lambda)^2 / (3 r^2) * exp(L * Lambda * |t| / r)

with L the term count, Lambda = max_j |eta_j| and Omega the number of
unordered non-commuting term pairs.  Only bound_full is a proven envelope
and only it is ever asserted; bound_commutator is reported verbatim for
inspection (note the cubed |t| in its second addend) but never enforced.

error_sweep measures a whole r grid in one stacked pass.  The term blades
come from one blade_products call, and H is summed from that stack.  U
comes from one Hermitian eigendecomposition (linalg.expm_i).  V for every r
comes from product_formulas: one closed-form call for every (r, term)
factor, one stacked matmul per term, and one np.linalg.matrix_power call
per r.  One stacked SVD then gives every ||U - V||.  The two routes share
only the blade matrices; every V has the bits of the one-r computation.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .clifford import Blade, _basis_indices, anticommutation_matrix, blade_products

# Largest step count worth measuring.  In doubles the measured error has a
# floor near 6e-9 * |t| (on a two-term instance at t = 1 and r = 1e9 it is
# already above bound_full), and near r = 2^63 the r-fold product overflows.
R_MAX = 10 ** 6


@dataclass(frozen=True)
class HamiltonianTerm:
    coeff: float
    blade: Blade

    def __post_init__(self):
        if not math.isfinite(self.coeff):
            raise ValueError(f"coefficient must be finite, got {self.coeff!r}")


@dataclass(frozen=True)
class TrotterReport:
    r: int
    t: float
    measured_error: float
    bound_simple: float
    bound_full: float
    bound_commutator: float
    omega: int


def _register_size(terms: Sequence[HamiltonianTerm]) -> int:
    ns = {term.blade.n for term in terms}
    if len(ns) > 1:
        raise ValueError(f"terms live on different registers: n in {sorted(ns)}")
    return ns.pop() if ns else 1


def _term_stack(terms: Sequence[HamiltonianTerm]) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients, shape (L,), and the blade matrices, shape (L, d, d),
    of a term list; the blades come from one blade_products call."""
    n = _register_size(terms)
    return (np.array([term.coeff for term in terms], dtype=float),
            blade_products(n, [term.blade for term in terms]))


def _hamiltonian(coeffs: np.ndarray, blades: np.ndarray) -> np.ndarray:
    """sum_j eta_j B_j, added from zero in term-list order."""
    return (coeffs[:, None, None] * blades).sum(axis=0, initial=0)


def product_formulas(coeffs: np.ndarray, blades: np.ndarray, t: float,
                     rs: Sequence[int]) -> np.ndarray:
    """The product formula for every r of `rs`, shape (R, d, d), for the terms
    eta_j B_j given as coefficients (L,) and blade matrices (L, d, d).

    One closed-form call gives every factor exp(-i t/r eta_j B_j), shape
    (R, L, d, d); the steps are their products in term-list order, one
    stacked matmul per term, and each step is raised to its r by
    np.linalg.matrix_power.  Each slice has the bits of the one-r
    computation: the same products of the same factors in the same order.
    """
    rs = [operator.index(r) for r in rs]
    if any(r < 1 for r in rs):
        raise ValueError(f"need every r >= 1, got {rs}")
    coeffs, blades = np.asarray(coeffs, dtype=float), np.asarray(blades, dtype=complex)
    angles = (-coeffs * t)[None, :] / np.array(rs, dtype=float)[:, None]
    factors = linalg.expm_i_involution(blades, angles)
    step = np.repeat(np.eye(blades.shape[-1], dtype=complex)[None], len(rs), axis=0)
    for j in range(len(coeffs)):
        step = step @ factors[:, j]
    for i, r in enumerate(rs):
        step[i] = np.linalg.matrix_power(step[i], r)
    return step


def noncommuting_pair_count(terms: Sequence[HamiltonianTerm]) -> int:
    anti = anticommutation_matrix([term.blade.indices for term in terms])
    return int(np.triu(anti, 1).sum())


def bounds(terms, t: float, r: int, omega: int) -> tuple[float, float, float]:
    """(bound_simple, bound_full, bound_commutator) for r steps up to time t."""
    count = len(terms)
    lam = max((abs(term.coeff) for term in terms), default=0.0)
    simple = (count * lam * t) ** 2 / r
    growth = math.exp(count * lam * abs(t) / r)
    full = simple * growth
    commutator = (omega * (lam * t) ** 2 / r
                  + (count * abs(t) ** 3 * lam) ** 2 / (3.0 * r ** 2) * growth)
    return simple, full, commutator


def trotter_report(terms: Sequence[HamiltonianTerm], t: float, r: int) -> TrotterReport:
    """The report for one r: a one-point error_sweep."""
    return error_sweep(terms, t, [r])[0]


def error_sweep(terms: Sequence[HamiltonianTerm], t: float,
                rs: Sequence[int]) -> list[TrotterReport]:
    """Reports over an r grid in one stacked pass: the blades built once, one
    exact evolution, one product_formulas call for every r and one stacked
    spectral norm; the bounds come from `bounds`, one call per r."""
    coeffs, blades = _term_stack(terms)
    exact = linalg.expm_i(_hamiltonian(coeffs, blades), -t)
    # product_formulas checks that every r is an integer >= 1
    errors = linalg.spectral_norm(exact - product_formulas(coeffs, blades, t, rs))
    omega = noncommuting_pair_count(terms)
    return [TrotterReport(r, t, measured, *bounds(terms, t, r, omega), omega)
            for r, measured in zip(map(operator.index, rs), errors.tolist())]


def random_instance(n: int, num_terms: int, seed: int) -> list[HamiltonianTerm]:
    """Seeded term list over distinct non-identity blades, coefficients in
    +-[0.2, 1.0] (bounded away from zero so instances stay non-degenerate)."""
    pool = _basis_indices(n)[1:]  # every non-identity index set
    if not 1 <= num_terms <= len(pool):
        raise ValueError(f"num_terms must be in 1..{len(pool)} for n={n}, got {num_terms}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=num_terms, replace=False)
    signs = rng.choice([-1.0, 1.0], size=num_terms)
    mags = rng.uniform(0.2, 1.0, size=num_terms)
    return [HamiltonianTerm(float(signs[i] * mags[i]), Blade(n, pool[int(picks[i])]))
            for i in range(num_terms)]
