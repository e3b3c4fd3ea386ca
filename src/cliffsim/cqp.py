"""The Type II Clifford quantum perceptron: the 2n generators of n qubits and
a tanh activation.

A config is n and an output index, and each perceptron function takes one.
Inputs are |x> = exp(i * sum_j c_j B_j)|0..0> over the 2n generators B_j;
any two anticommute, so |x> = cos|c| |0..0> + sin|c| (c.iB/|c|)|0..0>, with
iB|0..0> cached read-only per n, the one source of every iB_j|0..0> here.
encode and forward work on stacks of rows, and every guard (finite
coefficients with a finite norm; activation output in [-1, 1], never NaN)
applies to each row, with the bits of its one-row call.

Forward pass: phi = arccos(tanh(Re<x|w>)), then y = exp(i phi B_mu)|0..0>
for the output generator B_mu.  |Re<x|w>| <= 1 puts phi in
[arccos(tanh 1), pi - arccos(tanh 1)], and |tanh u| <= 1 for every double,
so no activation output is clipped.  Against the target angle beta the
fidelity is |<r|y>| with r = exp(-i beta B_mu)|0..0>, which is
|cos(phi + beta)|; max_fidelity gives its largest reachable value.
equivalence_defects measures the joint unitary invariance of (phi, y).

ascent is gradient ascent with central finite differences.  Once per run it
takes gamma_0 = <r|0..0>, gamma_1 = <r|iB_mu|0..0>, alpha = Re<x|0..0> and
b_j = Re<x|iB_j|0..0>.  A row c has the overlap
v = alpha cos|c| + sin|c| (c.b)/|c| and, with a = tanh(v) in [-1, 1],
the fidelity F = min(|gamma_0 a + gamma_1 sqrt((1 - a)(1 + a))|, 1).
The 2m neighbours theta +- h e_j come from |theta|^2 and theta.b, so an
iteration makes no numpy call.  An iteration is one pass: it scores theta,
then the m rows theta + h e_j, then each row theta - h e_j together with
component j's central difference, its finiteness guard and its step.  Each
fidelity is checked once, when ascent scores it.  A guard on ascent's
inputs raises ValueError; a check of a value it computed (a fidelity, an
activation output, a gradient) raises linalg.InvariantError.  ascent
returns the weights and fidelities as lists of Python floats, which the CLI
writes as they are; train is their records, built once, when the run ends.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
from collections import namedtuple
from operator import index, mul
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .clifford import REGISTER_SIZES, Blade, _check_register_size, blade_products
from .linalg import _read_only
from .simulator import basis_state, inner  # noqa: F401  bench/test_bench.py traces this binding

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


class PerceptronConfig(namedtuple("PerceptronConfig", "n output_index activation eta")):
    """The Type II unit on n qubits: its active blades are the 2n generators,
    in order, and its output blade is generator output_index."""
    __slots__ = ()

    def __new__(cls, n: int, output_index: int = 0,
                activation: Activation = Activation.TANH, eta: float = 0.1):
        _check_register_size(n)
        k = index(output_index)  # TypeError for a non-integer
        if not 0 <= k < 2 * n:
            raise ValueError(f"output_index {k} out of range 0..{2 * n - 1}")
        if not eta > 0:
            raise ValueError(f"need eta > 0, got {eta}")
        return super().__new__(cls, n, k, activation, eta)

    @classmethod
    def type_ii(cls, n: int, output_index: int = 0, **kw) -> "PerceptronConfig":
        return cls(n, output_index, **kw)

    @property
    def _i_blade_columns(self) -> np.ndarray:  # i * column 0 of every generator, (2n, d)
        return _generators(self.n)


@functools.cache
def _generators(n: int) -> np.ndarray:
    """i times column 0 of each of the 2n generators on n qubits, in order,
    read-only (2n, d); shared by every config on n qubits."""
    blades = [Blade(n, (a,)) for a in range(2 * n)]
    return _read_only(1j * blade_products(n, blades)[:, :, 0])


# Built at import for n = 1..3, as clifford builds those basis stacks, so no
# job pays (or traces) them
for _n in REGISTER_SIZES[:-1]:
    _generators(_n)


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


def _activation_message(value) -> str:
    return f"activation output {float(value)!r} is outside [-1, 1]; arccos undefined"


def encode(config: PerceptronConfig, coeffs) -> np.ndarray:
    """|x> = exp(i * sum_j coeffs[..., j] * B_j) |0..0>, shape (..., d), for
    coeffs of shape (..., 2n); one vector is a stack of shape ()."""
    c = np.asarray(coeffs, dtype=float)
    m = 2 * config.n
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


def forward(config: PerceptronConfig, x, w) -> tuple[np.ndarray, np.ndarray]:
    """The config's forward pass of input states x (..., d) against weight
    states w (..., d), paired row by row with broadcasting, so one x may meet
    a stack of w: (phi, y) over the broadcast rows, with phi =
    arccos(activation(Re<x|w>)) and y = exp(i phi B_mu)|0..0> (..., d) for the
    config's activation and output generator B_mu; every row's activation
    output must lie in [-1, 1] (NaN does not)."""
    x, w = np.asarray(x), np.asarray(w)
    if x.ndim == 0 or w.ndim == 0 or x.shape[-1] != w.shape[-1]:
        raise ValueError(f"x and w must be states of one length d, "
                         f"got shapes {x.shape} and {w.shape}")
    v = config.activation.apply(np.sum(w * np.conj(x), axis=-1).real)
    # |Re<x|w>| <= 1 for unit states, and |tanh u| <= 1 for every double u, in
    # math.tanh and in numpy's loops alike, so no output needs a clip; the
    # guard stops a NaN
    if not np.abs(v).max(initial=0.0) <= 1.0:
        raise ValueError(_activation_message(np.asarray(v)[~(np.abs(v) <= 1.0)][0]))
    phi = np.arccos(v)
    return phi, _rotate_ground(config._i_blade_columns[config.output_index], phi)


def target_state(config: PerceptronConfig, target_angle: float) -> np.ndarray:
    """r = exp(-i * target_angle * B_mu)|0..0> for the output generator B_mu."""
    return _rotate_ground(config._i_blade_columns[config.output_index], -target_angle)


def fidelity(config: PerceptronConfig, y, target_angle: float) -> float:
    """|<r|y>| for the config's target state r at target_angle, capped at 1."""
    f = abs(inner(target_state(config, target_angle), np.asarray(y, dtype=complex)))
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


class TrainingSample(namedtuple("TrainingSample", "input_coeffs target_angle")):
    __slots__ = ()

    def __new__(cls, input_coeffs: np.ndarray, target_angle: float):
        return super().__new__(cls, np.asarray(input_coeffs, dtype=float), target_angle)


class TrainRecord(NamedTuple):
    """One iteration of train: its theta (float64, shape (2n,)) and fidelity,
    which ascent checked when it scored it."""
    iteration: int
    theta: np.ndarray
    fidelity: float


def _check_fidelity(f: float) -> None:
    if not 0.0 <= f <= 1.0 + 1e-10:
        raise linalg.InvariantError(f"fidelity {f} outside [0, 1]")


def _fidelity_scorer(config: PerceptronConfig, sample: TrainingSample):
    """(b, centre, fidelity), the run's fidelity scorer for the sample's input
    and target angle, on Python floats: b, the list of the b_j;
    fidelity(r, d), the fidelity of a row c of norm r = |c| with c.b = d,
    whose activation output must lie in [-1, 1]; and centre(theta),
    (F(theta), |theta|, theta.b) for a list theta of m floats, which must
    pass the coefficient guards of encode."""
    x_conj = np.conj(_one_state(encode(config, sample.input_coeffs)))
    ref = np.conj(target_state(config, sample.target_angle))
    # gamma_0 and gamma_1 are real, since a generator has a zero diagonal
    gamma0 = float(ref[0].real)
    gamma1 = float((ref @ config._i_blade_columns[config.output_index]).real)
    alpha, b = float(x_conj[0].real), (config._i_blade_columns @ x_conj).real.tolist()
    act = config.activation.float_form
    sqrt, cos, sin, hypot = math.sqrt, math.cos, math.sin, math.hypot

    def fidelity(r, d):
        # cos(phi) = a and sin(phi) = sqrt((1 - a)(1 + a)) at phi = arccos(a)
        a = act(alpha * cos(r) + sin(r) * (d / r) if r else alpha)
        if not -1.0 <= a <= 1.0:  # |tanh u| <= 1 (see forward); NaN fails
            raise linalg.InvariantError(_activation_message(a))
        f = abs(gamma0 * a + gamma1 * sqrt((1.0 - a) * (1.0 + a)))
        return 1.0 if f > 1.0 else f  # keeps a NaN f for ascent's check

    def centre(theta):
        norm = hypot(*theta)  # overflows only if the norm does
        if not norm < math.inf:  # tested before math.sin, which raises on inf
            raise _norm_error(theta)
        dot = sum(map(mul, theta, b))
        return fidelity(norm, dot), norm, dot

    return b, centre, fidelity


def ascent(config: PerceptronConfig, sample: TrainingSample, theta0,
           iterations: int, fd_step: float = 1e-5) -> tuple[list[list[float]], list[float]]:
    """Gradient ascent on the fidelity: (thetas, fidelities), the
    iterations + 1 weight vectors, initial included, each a list of 2n
    Python floats, and the fidelity of each, a Python float.

    theta is a list of floats.  Each iteration is one pass: it scores theta,
    whose fidelity is the record's, then the m rows theta + fd_step*e_j, then
    each row theta - fd_step*e_j together with component j's central
    difference, its finiteness guard and its step.  fd_step must move each
    component of theta0 both ways, and 1 too: the fidelities it differences
    are at most 1, and rounded to about an ulp of 1, so a smaller step gives
    a difference that is all rounding (zero, at a step of 1e-17) and trains
    nothing.  The same holds for the theta of every later iteration, which a
    large step can carry past the resolution of fd_step.  Each fidelity, the
    final theta's included, is checked once, when scored.  A guard on the
    inputs (iterations, fd_step, theta0, the coefficients and the resolution
    of fd_step) raises ValueError; a check of a value ascent computed (a
    fidelity, an activation output, a gradient) raises linalg.InvariantError.
    """
    if iterations < 0:
        raise ValueError(f"need iterations >= 0, got {iterations}")
    if not 0 < fd_step < FD_STEP_MAX:
        raise ValueError(f"fd_step {fd_step} outside (0, {FD_STEP_MAX})")
    theta = np.asarray(theta0, dtype=float)
    m = 2 * config.n
    if theta.shape != (m,):
        raise ValueError(f"theta0 must have {m} components, got {theta.shape}")
    theta = theta.tolist()
    for j, t in enumerate(theta):  # a non-finite t is left to the coefficient guards
        scale = max(abs(t), 1.0)
        if (scale + fd_step == scale or scale - fd_step == scale) and math.isfinite(t):
            raise ValueError(f"fd_step {fd_step!r} is below the float resolution of "
                             f"max(|theta_j|, 1) at component {j} of theta0 ({t!r}), "
                             f"iteration 0")
    b, centre, fidelity = _fidelity_scorer(config, sample)
    thetas, fids = [], []
    h, two_h, eta = fd_step, 2.0 * fd_step, config.eta
    hb = [h * bj for bj in b]  # the h b_j, fixed for the run
    sqrt, isfinite = math.sqrt, math.isfinite
    for k in range(iterations + 1):
        if 0 < k < iterations:  # after a step, one test at the largest |theta_j|, whose
            # float resolution is the coarsest (theta0's test above covered 1)
            scale = max(map(abs, theta))
            if (scale + fd_step == scale or scale - fd_step == scale) and isfinite(scale):
                j = list(map(abs, theta)).index(scale)
                raise ValueError(f"fd_step {fd_step!r} is below the float resolution of "
                                 f"max(|theta_j|, 1) at component {j} of theta "
                                 f"({theta[j]!r}), iteration {k}")
        f, norm, dot = centre(theta)
        _check_fidelity(f)
        thetas.append(theta)
        fids.append(f)
        if k == iterations:
            break
        # |theta +- h e_j|^2 = s +- 2h theta_j with s = |theta|^2 + h^2, and
        # (theta +- h e_j).b = dot +- h b_j.  s is finite: the resolution
        # tests keep every |theta_j| below 2^47.  s +- 2h theta_j may round
        # below an exact 0
        s = norm * norm + h * h
        ups = []  # a loop: before CPython 3.12 a comprehension is a call of its own
        for t, hbj in zip(theta, hb):
            r = s + two_h * t
            ups.append(fidelity(sqrt(r) if r > 0.0 else 0.0, dot + hbj))
        step = []
        for t, hbj, up in zip(theta, hb, ups):
            r = s - two_h * t
            g = (up - fidelity(sqrt(r) if r > 0.0 else 0.0, dot - hbj)) / two_h
            if not isfinite(g):
                raise linalg.InvariantError(
                    f"non-finite finite-difference gradient at component {len(step)} "
                    f"(activation kink or overflow)")
            step.append(t + eta * g)
        theta = step
    return thetas, fids


def train(config: PerceptronConfig, sample: TrainingSample, theta0,
          iterations: int, fd_step: float = 1e-5) -> list[TrainRecord]:
    """The records of ascent, one per iteration, initial included: record k
    holds iteration k, its theta as a float64 array of shape (2n,) and its
    fidelity, with the bits of ascent's lists."""
    thetas, fids = ascent(config, sample, theta0, iterations, fd_step)
    return list(map(TrainRecord._make, zip(itertools.count(), np.array(thetas), fids)))


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
    phi, y = forward(config, x, w)
    phi_u, y_u = forward(config, (u @ x[..., None])[..., 0], (u @ w[..., None])[..., 0])
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
    x_coeffs = rng.uniform(-1.0, 1.0, 2 * config.n)
    w_coeffs = rng.uniform(-1.0, 1.0, 2 * config.n)
    phi_defect, state_defect = equivalence_defects(config, m, x_coeffs, w_coeffs)
    return phi_defect <= tol and state_defect <= tol
