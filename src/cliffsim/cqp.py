"""Clifford quantum perceptrons: anticommuting blades and a tanh activation.

States are |x> = exp(i * sum_j c_j B_j) |0..0> over active blades that
pairwise anticommute (the 2n generators of type_ii do), so the sum squares
to |c|^2 I and |x> is cos|c| |0..0> + sin|c| (c.iB/|c|)|0..0>, where
iB|0..0> is i times column 0 of the blades, cached read-only per blade list.

encode and forward work on stacks: coefficient rows (..., m) give states
(..., d), and forward pairs input and weight states (..., d) row by row,
broadcasting.  Every guard (finite coefficients with a finite norm;
activation output in [-1, 1], never NaN) applies to each row, and each row
has the bits of its one-row call, since the overlaps and state defects are
numpy row reductions.

Forward pass: phi = arccos(tanh(Re<x|w>)), then y = exp(i phi B_mu)|0..0>
for the output blade B_mu.  |Re<x|w>| <= 1 puts phi in
[arccos(tanh 1), pi - arccos(tanh 1)]; forward still clips rounding slack
past +-1 before arccos.  Against the target angle beta the fidelity is
|<r|y>| with r = exp(-i beta B_mu)|0..0>, which is |cos(phi + beta)| for an
output blade of zero diagonal; max_fidelity gives its largest reachable value.

Joint unitary invariance: rotating |x> and |w> by one unitary leaves phi
and y unchanged; equivalence_defects measures the gap for one trial or a
stack, and type_equivalence_check is the one-trial predicate.

train is gradient ascent with central finite differences (no analytic
gradient is trusted).  Once per run it takes gamma_0 = <r|0..0>,
gamma_1 = <r|iB_mu|0..0>, alpha = Re<x|0..0> and b_j = Re<x|iB_j|0..0>.  A
row c has the overlap v = alpha cos|c| + sin|c| (c.b)/|c| and, with
a = tanh(v) clipped to [-1, 1], the fidelity
F = min(|gamma_0 a + gamma_1 sqrt((1 - a)(1 + a))|, 1) ((1 - a)(1 + a) keeps
the digits 1 - a^2 loses near |a| = 1).  The 2m neighbours theta +- h e_j
come from S = |theta|^2 and D = theta.b: |c|^2 = S +- 2h theta_j + h^2 and
c.b = D +- h b_j.  An iteration makes no numpy call; the records are made
when the run ends.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import Callable

import numpy as np

from . import linalg
from .clifford import (REGISTER_SIZES, Blade, _read_only, anticommutation_matrix,
                       blade_products)
from .simulator import basis_state, inner  # noqa: F401  bench/test_bench.py traces this binding

_ACT_LIMIT = 1.0 + 1e-12  # activation outputs may pass +-1 by this rounding slack
FD_STEP_MAX = 1e-2  # finite-difference steps must lie in (0, FD_STEP_MAX)


class Activation(enum.Enum):
    TANH = "tanh"

    def apply(self, u):
        """Elementwise on a number or an array."""
        return np.tanh(u)

    @property
    def float_form(self) -> Callable[[float], float]:
        """apply as a function of one Python float, for per-row loops:
        math.tanh, within a few ulps of np.tanh; NaN gives NaN."""
        return math.tanh


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
        if not _blade_invariants(self.n, self.active_blades)[1]:
            raise ValueError(f"active blades {[b.indices for b in self.active_blades]} "
                             f"do not pairwise anticommute")
        if self.output_blade.n != self.n or not self.output_blade.indices:
            raise ValueError("output_blade must be a non-identity blade on the same register")
        if not self.eta > 0:
            raise ValueError(f"need eta > 0, got {self.eta}")

    @classmethod
    def type_ii(cls, n: int, output_index: int = 0, **kw) -> "PerceptronConfig":
        return cls(n=n, active_blades=tuple(Blade(n, (a,)) for a in range(2 * n)),
                   output_blade=Blade(n, (output_index,)), **kw)

    @cached_property
    def _i_blade_columns(self) -> np.ndarray:  # i * column 0 of every blade, (m, d)
        return _blade_invariants(self.n, self.active_blades)[0]


@lru_cache(maxsize=32)
def _blade_invariants(n: int, blades: tuple[Blade, ...]) -> tuple[np.ndarray, bool]:
    """(i * column 0 of each blade, read-only (m, d); whether the blades
    pairwise anticommute) for a blade list on n qubits, shared by every
    config with that list."""
    columns = 1j * blade_products(n, blades)[:, :, 0]
    anti = anticommutation_matrix([b.indices for b in blades])
    return _read_only(columns), bool((anti | np.eye(len(anti), dtype=bool)).all())


# Built at import for the Type II blade lists of n = 1..3, as clifford builds
# those basis stacks, so no job pays (or traces) them
for _n in REGISTER_SIZES[:-1]:
    _blade_invariants(_n, PerceptronConfig.type_ii(_n).active_blades)


def _rotate_ground(icol: np.ndarray, angle) -> np.ndarray:
    """exp(i*angle*H)|0..0> = cos(angle)|0..0> + sin(angle) iH|0..0> for an
    involution H, given icol = iH|0..0> (..., d), per angle (...)."""
    out = np.sin(angle)[..., None] * icol
    out[..., 0] += np.cos(angle)
    return out


def _norm_error(c) -> ValueError:
    """The error for coefficient rows c whose norm is not finite."""
    return ValueError("coefficients must be finite" if not np.isfinite(c).all()
                      else "coefficient norm overflows float64")


def _activation_error(value) -> ValueError:
    return ValueError(f"activation output {float(value)!r} "
                      f"is outside [-1, 1]; arccos undefined")


def encode(config: PerceptronConfig, coeffs) -> np.ndarray:
    """|x> = exp(i * sum_j coeffs[..., j] * B_j) |0..0>, shape (..., d), for
    coeffs of shape (..., m); one vector is a stack of shape ()."""
    c = np.asarray(coeffs, dtype=float)
    m = len(config.active_blades)
    if c.ndim == 0 or c.shape[-1] != m:
        raise ValueError(f"expected {m} coefficients per row, got shape {c.shape}")
    norm = np.hypot.reduce(c, axis=-1)  # overflows only if the norm does, unlike sum(c^2)
    if not np.isfinite(norm).all():
        raise _norm_error(c)
    unit = c / np.where(norm > 0.0, norm, 1.0)[..., None]  # c = 0 gives |0..0>
    return _rotate_ground(unit @ config._i_blade_columns, norm)


def _one_state(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"x must be one state of shape (d,), got {x.shape}")
    return x


def forward(x, w, activation: Activation, output_blade: Blade) -> tuple[np.ndarray, np.ndarray]:
    """Perceptron forward pass of input states x (..., d) against weight
    states w (..., d), paired row by row with broadcasting, so one x may meet
    a stack of w: returns (phi, output states (..., d)) over the broadcast
    rows, with phi = arccos(activation(Re<x|w>)); every row's activation
    output must lie in [-1, 1] (NaN does not)."""
    x, w = np.asarray(x), np.asarray(w)
    if x.ndim == 0 or w.ndim == 0 or x.shape[-1] != w.shape[-1]:
        raise ValueError(f"x and w must be states of one length d, "
                         f"got shapes {x.shape} and {w.shape}")
    v = activation.apply(np.sum(w * np.conj(x), axis=-1).real)
    if not np.abs(v).max(initial=0.0) <= _ACT_LIMIT:
        raise _activation_error(np.asarray(v)[~(np.abs(v) <= _ACT_LIMIT)][0])
    phi = np.arccos(np.minimum(np.maximum(v, -1.0), 1.0))  # clips the slack
    return phi, _rotate_ground(1j * output_blade.dense()[:, 0], phi)


def target_state(output_blade: Blade, target_angle: float) -> np.ndarray:
    """Reference state rotated opposite to the output rotation."""
    return _rotate_ground(1j * output_blade.dense()[:, 0], -target_angle)


def fidelity(y, target_angle: float, output_blade: Blade) -> float:
    f = abs(inner(target_state(output_blade, target_angle), np.asarray(y, dtype=complex)))
    return float(min(f, 1.0))


# A scored fidelity may pass max_fidelity by rounding (by 1 ulp of 1 at most, as
# measured); callers allow 4 ulps of 1
MAX_FIDELITY_SLACK = 4 * 2.0 ** -52


def max_fidelity(target_angle: float) -> float:
    """F*(beta), the largest fidelity |cos(phi + beta)| any weights reach, for
    an output blade of zero diagonal (every generator).  |Re<x|w>| <= 1 puts
    phi = arccos(tanh Re<x|w>) anywhere in I = [arccos t, pi - arccos t],
    t = tanh 1.  Some phi in I has phi + beta = k*pi, and F* = 1, exactly when
    c = |cos beta| <= t; else the best phi is an end of I, where
    F* = t*|cos beta| + sqrt(1 - t^2)*|sin beta|."""
    t, c = math.tanh(1.0), abs(math.cos(target_angle))
    return 1.0 if c <= t else t * c + math.sqrt((1.0 - t * t) * ((1.0 - c) * (1.0 + c)))


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
        _check_fidelity(self.fidelity)


def _check_fidelity(f: float) -> None:
    if not 0.0 <= f <= 1.0 + 1e-10:
        raise ValueError(f"fidelity {f} outside [0, 1]")


def _fidelity_scorer(config: PerceptronConfig, sample: TrainingSample):
    """score(theta, h): the fidelities [F(theta), F(theta + h*e_0), ...,
    F(theta + h*e_{m-1}), F(theta - h*e_0), ..., F(theta - h*e_{m-1})] of a
    list theta of m floats, 2m + 1 Python floats, or [F(theta)] when h = 0,
    for the sample's input and target angle.  Each row must pass the guards
    of encode and forward; the rows are scored on Python floats from the sums
    |theta|^2 and theta.b."""
    x_conj = np.conj(_one_state(encode(config, sample.input_coeffs)))
    ref = np.conj(target_state(config.output_blade, sample.target_angle))
    # gamma_0 and gamma_1 are real for an output blade of zero diagonal; a real
    # one is a float, and float arithmetic gives the complex route's bits
    gamma0, gamma1 = (g.real if not g.imag else g for g in (
        complex(ref[0]), complex(ref @ (1j * config.output_blade.dense()[:, 0]))))
    alpha, b = float(x_conj[0].real), (config._i_blade_columns @ x_conj).real.tolist()
    act = config.activation.float_form
    sqrt, cos, sin = math.sqrt, math.cos, math.sin

    def score(theta, h) -> list[float]:
        norm = math.hypot(*theta)  # overflows only if the norm does
        if not norm < math.inf:  # tested before math.sin, which raises on inf
            raise _norm_error(theta)
        dot = sum(map(mul, theta, b))
        vs = [alpha * cos(norm) + sin(norm) * (dot / norm) if norm else alpha]
        # |theta +- h e_j|^2 = s +- 2h theta_j with s = |theta|^2 + h^2, and
        # (theta +- h e_j).b = dot +- h b_j.  s is finite below |theta| =
        # 2^511 (train keeps |theta_j| below 2^47); past it the h terms are
        # below half an ulp of s, so each neighbour's norm rounds to |theta|
        s = norm * norm + h * h
        finite = s < math.inf
        for hj in (h, -h) if h else ():
            two_hj = 2.0 * hj
            for t, bj in zip(theta, b):
                r = s + two_hj * t  # may round below an exact 0
                r = (sqrt(r) if r > 0.0 else 0.0) if finite else norm
                vs.append(alpha * cos(r) + sin(r) * ((dot + hj * bj) / r) if r else alpha)
        fids = []
        for v in vs:  # cos(phi) = a and sin(phi) = sqrt((1 - a)(1 + a)) at phi = arccos(a)
            a = act(v)
            if not -1.0 <= a <= 1.0:
                if not -_ACT_LIMIT <= a <= _ACT_LIMIT:  # NaN fails too
                    raise _activation_error(a)
                a = math.copysign(1.0, a)  # clips the slack
            f = abs(gamma0 * a + gamma1 * sqrt((1.0 - a) * (1.0 + a)))
            fids.append(1.0 if f > 1.0 else f)  # keeps a NaN f for TrainRecord's check
        return fids

    return score


def train(config: PerceptronConfig, sample: TrainingSample, theta0,
          iterations: int, fd_step: float = 1e-5) -> list[TrainRecord]:
    """Gradient ascent on the fidelity; one record per iteration, initial included.

    theta is a list of floats.  Each iteration scores theta and its 2m
    neighbours theta +- fd_step*e_j in one call of the run's fidelity scorer:
    the first score is the record's fidelity and the others give the
    central-difference gradient.  fd_step must move each component of theta0
    both ways, and 1 too: the fidelities it differences are at most 1, and
    rounded to about an ulp of 1, so a smaller step gives a difference that
    is all rounding (zero, at a step of 1e-17) and trains nothing.  The same
    holds for the theta of every later iteration, which a large step can
    carry past the resolution of fd_step.  Each fidelity is checked in its
    iteration; the records are made when the run ends, their thetas the rows
    of one array.
    """
    if iterations < 0:
        raise ValueError(f"need iterations >= 0, got {iterations}")
    if not 0 < fd_step < FD_STEP_MAX:
        raise ValueError(f"fd_step {fd_step} outside (0, {FD_STEP_MAX})")
    theta = np.asarray(theta0, dtype=float)
    m = len(config.active_blades)
    if theta.shape != (m,):
        raise ValueError(f"theta0 must have {m} components, got {theta.shape}")
    theta = theta.tolist()
    for j, t in enumerate(theta):  # a non-finite t is left to the coefficient guards
        scale = max(abs(t), 1.0)
        if (scale + fd_step == scale or scale - fd_step == scale) and math.isfinite(t):
            raise ValueError(f"fd_step {fd_step!r} is below the float resolution of "
                             f"max(|theta_j|, 1) at component {j} of theta0 ({t!r}), "
                             f"iteration 0")
    score = _fidelity_scorer(config, sample)
    thetas, fids = [], []  # the records' fields; each fidelity checked when scored
    two_h, eta = 2.0 * fd_step, config.eta
    for k in range(iterations):
        if k:  # after a step, one test at the largest |theta_j|, whose float
            # resolution is the coarsest (theta0's test above covered 1)
            scale = max(map(abs, theta))
            if (scale + fd_step == scale or scale - fd_step == scale) and math.isfinite(scale):
                j = list(map(abs, theta)).index(scale)
                raise ValueError(f"fd_step {fd_step!r} is below the float resolution of "
                                 f"max(|theta_j|, 1) at component {j} of theta "
                                 f"({theta[j]!r}), iteration {k}")
        f = score(theta, fd_step)
        _check_fidelity(f[0])
        thetas.append(theta)
        fids.append(f[0])
        grad = [(up - down) / two_h for up, down in zip(f[1:m + 1], f[m + 1:])]
        for j, g in enumerate(grad):
            if not math.isfinite(g):
                raise ValueError(f"non-finite finite-difference gradient at component "
                                 f"{j} (activation kink or overflow)")
        theta = [t + eta * g for t, g in zip(theta, grad)]
    thetas.append(theta)
    fids.append(score(theta, 0.0)[0])
    return [TrainRecord(k, row, f) for k, (row, f) in enumerate(zip(np.array(thetas), fids))]


def equivalence_defects(config: PerceptronConfig, u, x_coeffs, w_coeffs):
    """(|phi - phi_u|, ||y - y_u||) for the encoded inputs and weights, and for
    both rotated by the unitaries u; joint unitary invariance makes both zero.

    u (..., d, d) and the coefficient rows x_coeffs, w_coeffs (..., m) give
    one trial per row, in one encode call per side and one forward call per
    pass; each trial has the bits of its own call.  One trial gives floats,
    a stack arrays of shape (...) (as linalg.frobenius_norm does).
    """
    x = encode(config, x_coeffs)
    w = encode(config, w_coeffs)
    phi, y = forward(x, w, config.activation, config.output_blade)
    phi_u, y_u = forward((u @ x[..., None])[..., 0], (u @ w[..., None])[..., 0],
                         config.activation, config.output_blade)
    phi_defect, state_defect = np.abs(phi - phi_u), np.linalg.norm(y - y_u, axis=-1)
    if phi_defect.ndim == 0:
        return float(phi_defect), float(state_defect)
    return phi_defect, state_defect


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
