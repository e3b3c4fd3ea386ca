"""Statevector simulation utilities.

States are 1-d complex arrays of length 2^n, unit normalized, with qubit 1
on the most significant bit of the basis index.  Swap-test sampling takes
an explicit 64-bit seed and records it alongside the counts so every
stochastic result is reproducible.

The overlap test runs both as the closed-form probability
Pr(0) = (1 + |<psi|phi>|^2) / 2 and as the full (2n+1)-qubit ancilla
protocol (Hadamard, controlled register swap, Hadamard, projection),
simulated directly on the statevector, never through dense exponentials.
swap_test_exact requires the two routes to agree and raises
linalg.CheckFailure when they do not; swap_test_sampled draws from the
closed form alone, so a caller compares the routes once per state pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

STATE_TOL = 1e-10


def n_qubits(state) -> int:
    size = np.asarray(state).shape[0]
    n = int(size).bit_length() - 1
    if 2 ** n != size:
        raise ValueError(f"state length {size} is not a power of two")
    return n


def _require_state(state, name: str = "state") -> np.ndarray:
    v = np.asarray(state, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got ndim={v.ndim}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite amplitudes")
    n_qubits(v)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > STATE_TOL:
        raise ValueError(f"{name} is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return v


def basis_state(n: int, index: int) -> np.ndarray:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= index < 2 ** n:
        raise ValueError(f"basis index {index} out of range for n={n}")
    v = np.zeros(2 ** n, dtype=complex)
    v[index] = 1.0
    return v


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def inner(a, b) -> complex:
    """<a|b> with the first argument conjugated."""
    return complex(np.vdot(np.asarray(a), np.asarray(b)))


def apply(u, state) -> np.ndarray:
    m = linalg.as_matrix(u, "apply")
    v = np.asarray(state, dtype=complex)
    if m.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {m.shape} applied to length {v.shape[0]}")
    return m @ v


@dataclass(frozen=True)
class ShotTally:
    shots: int
    zero_count: int
    seed: int
    clamped: bool = False  # sampling noise pushed the radicand below zero

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"need shots >= 1, got {self.shots}")
        if not 0 <= self.zero_count <= self.shots:
            raise ValueError(f"zero_count {self.zero_count} out of range 0..{self.shots}")


def _state_pair(psi, phi) -> tuple[np.ndarray, np.ndarray]:
    p = _require_state(psi, "psi")
    q = _require_state(phi, "phi")
    if p.shape != q.shape:
        raise ValueError(f"register sizes differ: {p.shape[0]} vs {q.shape[0]}")
    return p, q


def _swap_formula(p: np.ndarray, q: np.ndarray) -> float:
    return (1.0 + abs(inner(p, q)) ** 2) / 2.0


def swap_test_circuit_probability(psi, phi) -> float:
    """Pr(ancilla = 0) from the full (2n+1)-qubit protocol, statevector path."""
    p, q = _state_pair(psi, phi)
    dim = p.shape[0]
    # |0, phi, psi>: ancilla on the most significant bit, so |1, ...> is zero
    full = np.concatenate([np.kron(q, p), np.zeros(dim * dim, dtype=complex)])

    def hadamard_ancilla(v):
        r = v.reshape(2, dim * dim)
        return np.concatenate([(r[0] + r[1]), (r[0] - r[1])]) / math.sqrt(2.0)

    full = hadamard_ancilla(full)
    # controlled swap of the two registers when the ancilla is 1
    r = full.reshape(2, dim, dim)
    swapped = np.stack([r[0], r[1].T])
    full = hadamard_ancilla(swapped.reshape(-1))
    return float(np.sum(np.abs(full[: dim * dim]) ** 2))


def swap_test_exact(psi, phi) -> float:
    """Pr(0) = (1 + |<psi|phi>|^2) / 2, cross-checked against the protocol.

    Raises ``linalg.CheckFailure("swap-agreement", ...)`` when the two
    routes differ by more than STATE_TOL.
    """
    p, q = _state_pair(psi, phi)
    formula = _swap_formula(p, q)
    protocol = swap_test_circuit_probability(p, q)
    if abs(formula - protocol) > STATE_TOL:
        raise linalg.CheckFailure("swap-agreement",
                                  f"formula {formula!r} vs protocol {protocol!r}")
    return formula


def swap_test_sampled(psi, phi, shots: int, seed: int) -> tuple[ShotTally, float]:
    """Sample ancilla outcomes and invert Pr(0) = (1 + ov^2)/2 for |ov|.

    Outcomes are drawn from the closed-form Pr(0); swap_test_exact is the
    one place that compares it with the protocol.  The estimate is
    sqrt(max(0, 2*zero_count/shots - 1)); a negative radicand (possible
    only through sampling noise) clamps to zero and is flagged on the tally.
    """
    if shots < 1:
        raise ValueError(f"need shots >= 1, got {shots}")
    p0 = _swap_formula(*_state_pair(psi, phi))
    rng = np.random.default_rng(seed)
    zeros = int(rng.binomial(shots, p0))
    radicand = 2.0 * zeros / shots - 1.0
    tally = ShotTally(shots, zeros, seed, clamped=radicand < 0.0)
    return tally, math.sqrt(max(radicand, 0.0))


def entanglement_entropy(state, cut: int) -> float:
    """Von Neumann entropy (bits) of qubits 1..cut against the rest."""
    v = _require_state(state)
    n = n_qubits(v)
    if not 1 <= cut < n:
        raise ValueError(f"cut must satisfy 1 <= cut < {n}, got {cut}")
    # Schmidt weights: squared singular values of the cut-reshaped state
    w = np.linalg.svd(v.reshape(2 ** cut, 2 ** (n - cut)), compute_uv=False) ** 2
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))
