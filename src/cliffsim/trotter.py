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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .clifford import Blade, anticommutation_matrix

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

    def dense(self) -> np.ndarray:
        return self.coeff * self.blade.dense()


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


def total_hamiltonian(terms: Sequence[HamiltonianTerm]) -> np.ndarray:
    n = _register_size(terms)
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for term in terms:
        h += term.dense()
    return h


def exact_unitary(terms: Sequence[HamiltonianTerm], t: float) -> np.ndarray:
    return linalg.expm_i(total_hamiltonian(terms), -t)


def product_formula(terms: Sequence[HamiltonianTerm], t: float, r: int) -> np.ndarray:
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    n = _register_size(terms)
    step = np.eye(2 ** n, dtype=complex)
    for term in terms:
        step = step @ linalg.expm_i_involution(term.blade.dense(), -term.coeff * t / r)
    return np.linalg.matrix_power(step, r)


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
    """Reports over an r grid, reusing the exact evolution."""
    if any(r < 1 for r in rs):
        raise ValueError(f"need every r >= 1, got {list(rs)}")
    exact = exact_unitary(terms, t)
    omega = noncommuting_pair_count(terms)
    reports = []
    for r in rs:
        measured = linalg.spectral_norm(exact - product_formula(terms, t, int(r)))
        simple, full, commutator = bounds(terms, t, int(r), omega)
        reports.append(TrotterReport(int(r), t, measured, simple, full, commutator, omega))
    return reports


def random_instance(n: int, num_terms: int, seed: int) -> list[HamiltonianTerm]:
    """Seeded term list over distinct non-identity blades, coefficients in
    +-[0.2, 1.0] (bounded away from zero so instances stay non-degenerate)."""
    from .clifford import hermitian_basis

    pool = [b for b in hermitian_basis(n) if b.indices]
    if not 1 <= num_terms <= len(pool):
        raise ValueError(f"num_terms must be in 1..{len(pool)} for n={n}, got {num_terms}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=num_terms, replace=False)
    signs = rng.choice([-1.0, 1.0], size=num_terms)
    mags = rng.uniform(0.2, 1.0, size=num_terms)
    return [HamiltonianTerm(float(signs[i] * mags[i]), pool[int(picks[i])])
            for i in range(num_terms)]
