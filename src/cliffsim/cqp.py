"""Clifford quantum perceptrons.

States are prepared by exponentiating real combinations of Hermitian
blades: |x> = exp(i * sum_j c_j B_j) |0..0>.  A Type II unit uses the 2n
single-generator blades; a Type I unit may use any explicit blade list.
When the active blades pairwise anticommute (always so for Type II), the
sum squares to |c|^2 I, so the state is cos|c| |0..0> + i sin|c| (c.B/|c|)
|0..0>, read off column 0 of the blades, as is every single-blade rotation
below; any other sum goes through the general linalg.expm_i.

encode and the activations work on stacks: coefficients of shape (..., m)
give states (..., d).  forward takes one input state and a stack of weight
states (..., d), and gives angles (...) and output states (..., d).  Every
guard applies to each row; one vector is a stack of shape ().

Forward pass: phi = arccos(activation(Re<x|w>)), then the output state is
y = exp(i * phi * B_mu) |0..0> for the configured output blade B_mu.
Fidelity against the target angle beta is the numeric |<r|y>| where the
reference state is rotated by the opposite angle, r = exp(-i*beta*B_mu)|0..0>,
so that for output blades with zero diagonal expectation the fidelity obeys
F = |cos(phi + beta)|.

Joint unitary invariance: rotating both |x> and |w> by one unitary U leaves
<x|w>, hence phi and y, unchanged.  equivalence_defects measures how far
the two forward passes differ; type_equivalence_check is the predicate
over it.

Learning is plain gradient ascent on the fidelity with central
finite-difference gradients; no analytic gradient is trusted anywhere.
Each iteration scores theta and its 2m neighbours theta +- h*e_j as one
(2m + 1, m) stack through a single encode and forward pass.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .clifford import Blade, anticommutes
from .simulator import basis_state, inner

_ACT_RANGE_SLACK = 1e-12
FD_STEP_MAX = 1e-2  # finite-difference steps must lie in (0, FD_STEP_MAX)


class Activation(enum.Enum):
    IDENTITY = "identity"
    TANH = "tanh"
    CLAMP = "clamp"

    def apply(self, u):
        """Elementwise on a number or an array."""
        if self is Activation.IDENTITY:
            return np.asarray(u, dtype=float)
        if self is Activation.TANH:
            return np.tanh(u)
        return np.minimum(np.maximum(u, -1.0), 1.0)


@dataclass(frozen=True)
class PerceptronConfig:
    n: int
    active_blades: tuple[Blade, ...]
    output_blade: Blade
    activation: Activation = Activation.TANH
    eta: float = 0.1

    def __post_init__(self):
        if not self.active_blades:
            raise ValueError("active_blades must be non-empty")
        seen = set()
        for b in self.active_blades:
            if b.n != self.n:
                raise ValueError(f"blade {b.indices} has n={b.n}, config has n={self.n}")
            if not b.indices:
                raise ValueError("the identity blade cannot be an active blade")
            if b.indices in seen:
                raise ValueError(f"duplicate active blade {b.indices}")
            seen.add(b.indices)
        if self.output_blade.n != self.n or not self.output_blade.indices:
            raise ValueError("output_blade must be a non-identity blade on the same register")
        if not self.eta > 0:
            raise ValueError(f"need eta > 0, got {self.eta}")

    @classmethod
    def type_ii(cls, n: int, output_index: int = 0, **kw) -> "PerceptronConfig":
        return cls(n=n, active_blades=tuple(Blade(n, (a,)) for a in range(2 * n)),
                   output_blade=Blade(n, (output_index,)), **kw)

    @classmethod
    def type_i(cls, n: int, blade_index_sets: Sequence[Sequence[int]],
               output_indices: Sequence[int], **kw) -> "PerceptronConfig":
        blades = tuple(Blade(n, tuple(s)) for s in blade_index_sets)
        return cls(n=n, active_blades=blades,
                   output_blade=Blade(n, tuple(output_indices)), **kw)

    @cached_property
    def _blade_stack(self) -> np.ndarray:
        return np.stack([b.dense() for b in self.active_blades])

    @cached_property
    def _anticommuting(self) -> bool:  # then (sum_j c_j B_j)^2 = |c|^2 I
        return all(anticommutes(a.indices, b.indices)
                   for a, b in itertools.combinations(self.active_blades, 2))


def _rotate_ground(n: int, column0: np.ndarray, angle) -> np.ndarray:
    """exp(i*angle*H)|0..0> = cos(angle)|0..0> + i sin(angle) H|0..0> for an
    involution H whose first column is column0 (..., d), per angle (...)."""
    a = np.asarray(angle)[..., None]
    return np.cos(a) * basis_state(n, 0) + 1j * np.sin(a) * column0


def encode(config: PerceptronConfig, coeffs) -> np.ndarray:
    """|x> = exp(i * sum_j coeffs[..., j] * B_j) |0..0>, shape (..., d), for
    coeffs of shape (..., m); one vector is a stack of shape ()."""
    c = np.asarray(coeffs, dtype=float)
    m = len(config.active_blades)
    if c.ndim == 0 or c.shape[-1] != m:
        raise ValueError(f"expected {m} coefficients per row, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    if not config._anticommuting:
        return linalg.expm_i(np.tensordot(c, config._blade_stack, axes=1))[..., 0]
    norm = np.hypot.reduce(c, axis=-1)  # finite wherever c is; sum(c^2) may overflow
    unit = c / np.where(norm > 0.0, norm, 1.0)[..., None]  # c = 0 gives |0..0>
    return _rotate_ground(config.n, unit @ config._blade_stack[:, :, 0], norm)


def _angle(x, w, activation: Activation) -> np.ndarray:
    """phi = arccos(activation(Re<x|w>)) for one state x (d,) and states w (..., d)."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"x must be one state of shape (d,), got {x.shape}")
    v = activation.apply((np.asarray(w) @ np.conj(x)).real)
    out_of_range = np.abs(v) > 1.0 + _ACT_RANGE_SLACK
    if out_of_range.any():
        raise ValueError(f"activation output {float(np.asarray(v)[out_of_range][0])!r} "
                         f"is outside [-1, 1]; arccos undefined")
    return np.arccos(Activation.CLAMP.apply(v))


def forward(x, w, activation: Activation, output_blade: Blade) -> tuple[np.ndarray, np.ndarray]:
    """Perceptron forward pass of one input state x (d,) against weight states
    w (..., d): returns (phi (...), output states (..., d))."""
    phi = _angle(x, w, activation)
    return phi, _rotate_ground(output_blade.n, output_blade.dense()[:, 0], phi)


def target_state(output_blade: Blade, target_angle: float) -> np.ndarray:
    """Reference state rotated opposite to the output rotation."""
    return _rotate_ground(output_blade.n, output_blade.dense()[:, 0], -target_angle)


def fidelity(y, target_angle: float, output_blade: Blade) -> float:
    f = abs(inner(target_state(output_blade, target_angle), np.asarray(y, dtype=complex)))
    return float(min(f, 1.0))


@dataclass(frozen=True)
class TrainingSample:
    input_coeffs: np.ndarray
    target_angle: float

    def __post_init__(self):
        object.__setattr__(self, "input_coeffs",
                           np.asarray(self.input_coeffs, dtype=float))


@dataclass(frozen=True)
class TrainRecord:
    iteration: int
    theta: np.ndarray
    fidelity: float

    def __post_init__(self):
        if not 0.0 <= self.fidelity <= 1.0 + 1e-10:
            raise ValueError(f"fidelity {self.fidelity} outside [0, 1]")


def train(config: PerceptronConfig, sample: TrainingSample, theta0,
          iterations: int, fd_step: float = 1e-5) -> list[TrainRecord]:
    """Gradient ascent on the fidelity; one record per iteration, initial included.

    Each iteration scores the (2m + 1, m) stack [theta, theta + fd_step*e_j,
    theta - fd_step*e_j] in one pass: row 0 is the record's fidelity and the
    other rows give the central-difference gradient.
    """
    if iterations < 0:
        raise ValueError(f"need iterations >= 0, got {iterations}")
    if not 0 < fd_step < FD_STEP_MAX:
        raise ValueError(f"fd_step {fd_step} outside (0, {FD_STEP_MAX})")
    theta = np.asarray(theta0, dtype=float).copy()
    m = len(config.active_blades)
    if theta.shape != (m,):
        raise ValueError(f"theta0 must have {m} components, got {theta.shape}")
    x = encode(config, sample.input_coeffs)
    ref = np.conj(target_state(config.output_blade, sample.target_angle))

    def score(thetas: np.ndarray) -> np.ndarray:
        _, y = forward(x, encode(config, thetas), config.activation, config.output_blade)
        return np.minimum(np.abs(y @ ref), 1.0)

    bumps = fd_step * np.eye(m)
    offsets = np.concatenate([np.zeros((1, m)), bumps, -bumps])
    records = []
    for k in range(iterations):
        f = score(theta + offsets)
        records.append(TrainRecord(k, theta.copy(), float(f[0])))
        grad = (f[1:m + 1] - f[m + 1:]) / (2.0 * fd_step)
        bad = np.flatnonzero(~np.isfinite(grad))
        if bad.size:
            raise ValueError(f"non-finite finite-difference gradient at component "
                             f"{bad[0]} (activation kink or overflow)")
        theta = theta + config.eta * grad
    records.append(TrainRecord(iterations, theta.copy(), float(score(theta))))
    return records


def multilayer_forward(layers: Sequence[np.ndarray], x_coeffs,
                       config: PerceptronConfig) -> np.ndarray:
    """Feed-forward network where each layer's phis re-encode the next state.

    layers[m] has one weight row per neuron; the neuron count must equal
    len(config.active_blades) so the resulting phi vector is a valid
    coefficient vector for the next encoding.
    """
    m_blades = len(config.active_blades)
    state = encode(config, x_coeffs)
    for depth, layer in enumerate(layers):
        weights = np.asarray(layer, dtype=float)
        if weights.ndim != 2 or weights.shape != (m_blades, m_blades):
            raise ValueError(
                f"layer {depth}: expected shape ({m_blades}, {m_blades}), "
                f"got {weights.shape}")
        state = encode(config, _angle(state, encode(config, weights), config.activation))
    return state


def equivalence_defects(config: PerceptronConfig, u, x_coeffs,
                        w_coeffs) -> tuple[float, float]:
    """(|phi - phi_u|, ||y - y_u||) for the encoded input and weight, and for
    both rotated by the unitary u; joint unitary invariance makes both zero."""
    x = encode(config, x_coeffs)
    w = encode(config, w_coeffs)
    phi, y = forward(x, w, config.activation, config.output_blade)
    phi_u, y_u = forward(u @ x, u @ w, config.activation, config.output_blade)
    return float(abs(phi - phi_u)), float(np.linalg.norm(y - y_u))


def type_equivalence_check(config: PerceptronConfig, u, seed: int = 0,
                           tol: float = linalg.DEFAULT_TOL) -> bool:
    """Joint unitary change of input and weight leaves (phi, y) unchanged; both
    coefficient vectors are drawn from U(-1, 1), input first, seeded by `seed`."""
    m = linalg.require_unitary(u, "type_equivalence_check")
    rng = np.random.default_rng(seed)
    x_coeffs = rng.uniform(-1.0, 1.0, len(config.active_blades))
    w_coeffs = rng.uniform(-1.0, 1.0, len(config.active_blades))
    phi_defect, state_defect = equivalence_defects(config, m, x_coeffs, w_coeffs)
    return phi_defect <= tol and state_defect <= tol


def operator_activation_forward(x, activation: Activation, reference_index: int,
                                desired) -> tuple[np.ndarray, float, float]:
    """Operator-valued activation on the amplitude spectrum of |x>.

    A = diag(|a_j|) in the computational basis of |x> = sum_j a_j |j>;
    the output is phi(A)|e_i> normalized by N = |phi(|a_i|)| for the
    reference basis state i.  Returns (y_out, cost, readout) where cost is
    the fidelity |<y_out|desired>| and readout is the scalar
    <x|phi(A)|x> = sum_j phi(|a_j|) |a_j|^2.
    """
    v = np.asarray(x, dtype=complex)
    d = np.asarray(desired, dtype=complex)
    if v.ndim != 1 or d.shape != v.shape:
        raise ValueError("x and desired must be 1-d states of equal length")
    if not 0 <= reference_index < v.shape[0]:
        raise ValueError(f"reference_index {reference_index} out of range")
    moduli = np.abs(v)
    acted = activation.apply(moduli)
    norm = abs(acted[reference_index])
    if norm <= 1e-300:
        raise ValueError(
            f"degenerate output: activation vanishes on reference component "
            f"{reference_index} (|a| = {moduli[reference_index]!r})")
    y_out = np.zeros_like(v)
    y_out[reference_index] = acted[reference_index] / norm
    cost = abs(inner(y_out, d))
    readout = float(np.sum(acted * moduli ** 2))
    return y_out, cost, readout
