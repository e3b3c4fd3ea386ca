"""Two-level decomposition of unitaries and compilation to controlled gates.

A two-level gate differs from the identity only on a 2x2 block at basis
indices (i, j).  ``two_level_decompose`` eliminates the sub-diagonal of
each column left-to-right, entries top-to-bottom, with complex Givens
factors; the returned list multiplies out (left to right) to the original
matrix and never exceeds dim*(dim-1)/2 factors.

``compile_two_level`` lowers a single two-level gate to a register
circuit: the basis indices are connected by a bit-flip path (one bit per
step), each step is a fully controlled X, and the 2x2 block lands on the
qubit of the final flip as a fully controlled single-qubit gate, with the
path undone afterwards.  On two qubits this reproduces the familiar
CNOT-conjugated controlled-gate patterns, including open (polarity 0)
controls.  A single-qubit gate controlled on every other qubit is itself
a two-level gate on the two basis states its target flips between, so
``ControlledGate.dense`` is that gate's embedding.  ``decompose_report``
decomposes once and compiles the factors it already has.

``xy_yx_unitary`` is the worked two-qubit example used across the tests:
U(t1, t2) = exp(i (t1 X(x)Y + t2 Y(x)X)), whose action on |00> is
cos(t1+t2)|00> - sin(t1+t2)|11>.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .clifford import PAULI

_DROP_TOL = 1e-12      # factors this close to the identity are omitted
_ELIM_TOL = 1e-14      # entries this small are treated as already zero


def xy_yx_unitary(theta1: float, theta2: float) -> np.ndarray:
    """exp(i (theta1 X(x)Y + theta2 Y(x)X)) on two qubits."""
    gen = (theta1 * linalg.tensor(PAULI["X"], PAULI["Y"])
           + theta2 * linalg.tensor(PAULI["Y"], PAULI["X"]))
    return linalg.expm_i(gen)


@dataclass(frozen=True)
class TwoLevelGate:
    dim: int
    i: int
    j: int
    block: np.ndarray  # 2x2 unitary acting on basis indices (i, j)

    def __post_init__(self):
        if not 0 <= self.i < self.j < self.dim:
            raise ValueError(
                f"need 0 <= i < j < dim, got i={self.i}, j={self.j}, dim={self.dim}")
        b = linalg.require_unitary(self.block, "TwoLevelGate")
        if b.shape != (2, 2):
            raise ValueError(f"block must be 2x2, got {b.shape}")
        object.__setattr__(self, "block", b)

    def embed(self) -> np.ndarray:
        m = np.eye(self.dim, dtype=complex)
        m[self.i, self.i] = self.block[0, 0]
        m[self.i, self.j] = self.block[0, 1]
        m[self.j, self.i] = self.block[1, 0]
        m[self.j, self.j] = self.block[1, 1]
        return m


def gates_product(gates: Sequence[TwoLevelGate], dim: int) -> np.ndarray:
    """Left-to-right product of embedded factors."""
    out = np.eye(dim, dtype=complex)
    for g in gates:
        if g.dim != dim:
            raise ValueError(f"gate dimension {g.dim} != {dim}")
        out = out @ g.embed()
    return out


def two_level_decompose(u) -> list[TwoLevelGate]:
    """Factor a unitary into at most dim*(dim-1)/2 two-level gates."""
    m = linalg.require_unitary(u, "two_level_decompose").copy()
    dim = m.shape[0]
    if not 2 <= dim <= 16:
        raise ValueError(f"need 2 <= dim <= 16, got {m.shape}")

    factors: list[TwoLevelGate] = []

    def eliminate(block: np.ndarray, a: int, b: int) -> None:
        # apply `block` to rows (a, b); record its adjoint as a factor
        m[[a, b], :] = block @ m[[a, b], :]
        factors.append(TwoLevelGate(dim, a, b, linalg.adjoint(block)))

    for c in range(dim - 1):
        if c == dim - 2:
            # final 2x2 corner: invert it wholesale so no phase is left over
            corner = m[np.ix_([c, c + 1], [c, c + 1])].copy()
            if linalg.frobenius_norm(corner - np.eye(2)) > _DROP_TOL:
                eliminate(linalg.adjoint(corner), c, c + 1)
            break
        applied = False
        for row in range(c + 1, dim):
            b = m[row, c]
            if abs(b) <= _ELIM_TOL:
                continue
            a = m[c, c]
            nu = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            giv = np.array([[np.conj(a) / nu, np.conj(b) / nu],
                            [-b / nu, a / nu]])
            eliminate(giv, c, row)
            applied = True
        pivot = m[c, c]
        if not applied and abs(pivot - 1.0) > _DROP_TOL:
            # untouched unimodular pivot: absorb its phase (one-level factor)
            phase = pivot / abs(pivot)
            eliminate(np.diag([np.conj(phase), 1.0]).astype(complex), c, c + 1)
    return factors


@dataclass(frozen=True)
class ControlledGate:
    """A 2x2 block on `target`, applied when every other qubit matches its control.

    Qubits are 1-based with qubit 1 on the most significant bit; controls
    are (qubit, polarity) pairs with polarity 0 selecting |0>, one on every
    qubit except the target.  Such a gate is the two-level gate on the two
    basis states that the target flips between.
    """

    n: int
    target: int
    controls: tuple[tuple[int, int], ...]
    block: np.ndarray

    def __post_init__(self):
        if not 1 <= self.target <= self.n:
            raise ValueError(f"target {self.target} out of range 1..{self.n}")
        controls = tuple(sorted(self.controls))
        others = [q for q in range(1, self.n + 1) if q != self.target]
        if [q for q, _ in controls] != others or any(pol not in (0, 1) for _, pol in controls):
            raise ValueError(
                f"controls {self.controls} must give one 0/1 polarity to each of qubits {others}")
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "block", self._two_level.block)  # checks the block

    @functools.cached_property
    def _two_level(self) -> TwoLevelGate:
        i = sum(pol << (self.n - q) for q, pol in self.controls)
        return TwoLevelGate(2 ** self.n, i, i | (1 << (self.n - self.target)), self.block)

    @property
    def kind(self) -> str:
        return "cx" if np.abs(self.block - PAULI["X"]).max() <= 1e-12 else "cu"

    def dense(self) -> np.ndarray:
        return self._two_level.embed()


@dataclass(frozen=True)
class GateCircuit:
    n: int
    gates: tuple[ControlledGate, ...]

    def dense(self) -> np.ndarray:
        # gates are listed in application order, so the last one is leftmost
        return gates_product([g._two_level for g in reversed(self.gates)], 2 ** self.n)


def _bits(index: int, n: int) -> list[int]:
    return [(index >> (n - q)) & 1 for q in range(1, n + 1)]


def compile_two_level(gate: TwoLevelGate, n: int) -> GateCircuit:
    """Lower one two-level gate to controlled gates along a bit-flip path."""
    if 2 ** n != gate.dim:
        raise ValueError(f"gate dimension {gate.dim} is not 2^{n}")
    bi, bj = _bits(gate.i, n), _bits(gate.j, n)
    diff = [q for q in range(1, n + 1) if bi[q - 1] != bj[q - 1]]

    # walk from i toward j, flipping the differing bits most significant
    # first; the last flip is performed by the controlled block itself
    path = [gate.i]
    cur = list(bi)
    for q in diff:
        cur[q - 1] ^= 1
        path.append(sum(bit << (n - pos) for pos, bit in enumerate(cur, start=1)))

    target = diff[-1]
    routing = []
    for step, flip_q in enumerate(diff[:-1]):
        state_bits = _bits(path[step], n)
        controls = tuple((q, state_bits[q - 1]) for q in range(1, n + 1) if q != flip_q)
        routing.append(ControlledGate(n, flip_q, controls, PAULI["X"]))

    controls = tuple((q, bj[q - 1]) for q in range(1, n + 1) if q != target)
    block = gate.block
    if _bits(path[-2], n)[target - 1] == 1:
        # the pre-image of i sits on the |1> side of the target qubit
        block = PAULI["X"] @ block @ PAULI["X"]
    core = ControlledGate(n, target, controls, block)
    return GateCircuit(n, tuple(routing + [core] + routing[::-1]))


def _compile_factors(factors: Sequence[TwoLevelGate], n: int) -> GateCircuit:
    gates: list[ControlledGate] = []
    # the factor list multiplies left-to-right (first factor leftmost), so a
    # circuit must apply the last factor first
    for factor in reversed(factors):
        gates.extend(compile_two_level(factor, n).gates)
    return GateCircuit(n, tuple(gates))


def compile_unitary(u, n: int) -> GateCircuit:
    """Decompose and lower a full register unitary."""
    return _compile_factors(two_level_decompose(u), n)


class DecomposeReport(NamedTuple):
    factors: tuple[TwoLevelGate, ...]
    circuit: GateCircuit
    reconstruction_defect: float
    compilation_defect: float


def decompose_report(theta1: float, theta2: float) -> DecomposeReport:
    """Two-level factors and compiled circuit of xy_yx_unitary(theta1, theta2),
    with the Frobenius defect of each against the unitary; asserts neither."""
    u = xy_yx_unitary(theta1, theta2)
    factors = tuple(two_level_decompose(u))
    circuit = _compile_factors(factors, 2)
    return DecomposeReport(factors, circuit,
                           linalg.frobenius_norm(gates_product(factors, 4) - u),
                           linalg.frobenius_norm(circuit.dense() - u))


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def format_two_level(gates: Sequence[TwoLevelGate]) -> list[str]:
    lines = []
    for g in gates:
        entries = " ".join(_fmt_complex(z) for z in g.block.ravel())
        lines.append(f"twolevel dim={g.dim} i={g.i} j={g.j} block {entries}")
    return lines


def format_circuit(circuit: GateCircuit) -> list[str]:
    lines = []
    for g in circuit.gates:
        ctl = ",".join(f"{q}:{pol}" for q, pol in g.controls) or "-"
        entries = " ".join(_fmt_complex(z) for z in g.block.ravel())
        lines.append(f"{g.kind} target={g.target} controls={ctl} block {entries}")
    return lines
