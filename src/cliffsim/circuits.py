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
a two-level gate on the two basis states its target flips between, so a
compiled gate is a ``TwoLevelGate`` whose indices differ in the target's
bit alone; the netlist derives its kind, target and controls from (i, j).
A gate whose indices already differ in one bit is returned as its own
one-gate circuit, not rebuilt.
``decompose_report`` decomposes once and compiles the factors it already
has.

``xy_yx_unitary`` is the worked two-qubit example used across the tests:
U(t1, t2) = exp(i (t1 X(x)Y + t2 Y(x)X)), whose action on |00> is
cos(t1+t2)|00> - sin(t1+t2)|11>.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .clifford import PAULI
from .linalg import _read_only

_DROP_TOL = 1e-12      # factors this close to the identity are omitted
_ELIM_TOL = 1e-14      # entries this small are treated as already zero

# the two commuting generators of xy_yx_unitary, built once
_XY = _read_only(linalg.tensor(PAULI["X"], PAULI["Y"]))
_YX = _read_only(linalg.tensor(PAULI["Y"], PAULI["X"]))


def xy_yx_unitary(theta1: float, theta2: float) -> np.ndarray:
    """exp(i (theta1 X(x)Y + theta2 Y(x)X)) on two qubits."""
    return linalg.expm_i(theta1 * _XY + theta2 * _YX)


class TwoLevelGate(namedtuple("TwoLevelGate", "dim i j block")):
    """block is the 2x2 unitary acting on basis indices (i, j), read-only: a
    copy of the one given, unless that is read-only and owns its data."""
    __slots__ = ()

    def __new__(cls, dim: int, i: int, j: int, block: np.ndarray):
        # plain ints for the netlist's bit arithmetic: no 0.5, no True
        ints = []
        for name, value in (("dim", dim), ("i", i), ("j", j)):
            if isinstance(value, bool):
                raise TypeError(f"{name} must be an int, not a bool")
            ints.append(operator.index(value))
        dim, i, j = ints
        if not 0 <= i < j < dim:
            raise ValueError(f"need 0 <= i < j < dim, got i={i}, j={j}, dim={dim}")
        b = linalg.require_unitary(block, "TwoLevelGate")
        if b.shape != (2, 2):
            raise ValueError(f"block must be 2x2, got {b.shape}")
        if b.flags.writeable or b.base is not None:  # the caller's array, or a view
            b = _read_only(b.copy())  # a read-only array that owns its data is shared
        return super().__new__(cls, dim, i, j, b)

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


class GateCircuit(namedtuple("GateCircuit", "n gates")):
    """Each gate's pair of indices differs in one bit."""
    __slots__ = ()

    def __new__(cls, n: int, gates: tuple[TwoLevelGate, ...]):
        # a gate of another register would format as that register's netlist
        for g in gates:
            if g.dim != 2 ** n:
                raise ValueError(f"gate dimension {g.dim} is not 2^{n}")
        return super().__new__(cls, n, gates)

    def dense(self) -> np.ndarray:
        # gates are listed in application order, so the last one is leftmost
        return gates_product(self.gates[::-1], 2 ** self.n)


def compile_two_level(gate: TwoLevelGate, n: int) -> GateCircuit:
    """Lower one two-level gate to fully controlled gates along a bit-flip path."""
    dim = gate.dim
    if 2 ** n != dim:
        raise ValueError(f"gate dimension {dim} is not 2^{n}")
    # walk from i toward j, flipping the differing bits most significant
    # first; the last flip is performed by the controlled block itself
    flips = [1 << k for k in reversed(range(n)) if (gate.i ^ gate.j) >> k & 1]
    if len(flips) == 1:
        # i and j differ in one bit: the gate is already its own circuit
        return GateCircuit(n, (gate,))
    cur = gate.i
    routing = []
    for bit in flips[:-1]:
        routing.append(TwoLevelGate(dim, min(cur, cur ^ bit), max(cur, cur ^ bit), PAULI["X"]))
        cur ^= bit

    block = gate.block
    if cur > gate.j:
        # the pre-image of i sits on the |1> side of the target qubit
        block = PAULI["X"] @ block @ PAULI["X"]
    core = TwoLevelGate(dim, min(cur, gate.j), max(cur, gate.j), block)
    return GateCircuit(n, tuple(routing + [core] + routing[::-1]))


def _compile_factors(factors: Sequence[TwoLevelGate], n: int) -> GateCircuit:
    gates: list[TwoLevelGate] = []
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
    """One block entry, from a Python complex (ndarray.tolist()): the same
    text as the np.complex128 entry, without numpy's scalar formatting."""
    return f"{z.real:.17g}{z.imag:+.17g}j"


def format_two_level(gates: Sequence[TwoLevelGate]) -> list[str]:
    lines = []
    for g in gates:
        entries = " ".join(_fmt_complex(z) for z in g.block.ravel().tolist())
        lines.append(f"twolevel dim={g.dim} i={g.i} j={g.j} block {entries}")
    return lines


_X_ENTRIES = PAULI["X"].ravel().tolist()  # a cx block's entries, as Python complex


def format_circuit(circuit: GateCircuit) -> list[str]:
    """One line per gate.  Qubits are 1-based with qubit 1 on the most
    significant bit: the target is the one bit in which i and j differ, and
    the controls are i's other bits as (qubit, polarity) pairs, polarity 0
    selecting |0>; a block within 1e-12 of X is a ``cx``, any other a ``cu``."""
    lines = []
    for g in circuit.gates:
        n, flip = g.dim.bit_length() - 1, g.i ^ g.j
        if flip & (flip - 1):
            raise ValueError(f"gate on ({g.i}, {g.j}) flips more than one qubit")
        target = n + 1 - flip.bit_length()
        ctl = ",".join(f"{q}:{g.i >> (n - q) & 1}" for q in range(1, n + 1) if q != target) or "-"
        block = g.block.ravel().tolist()
        kind = "cx" if max(map(abs, map(operator.sub, block, _X_ENTRIES))) <= 1e-12 else "cu"
        entries = " ".join(map(_fmt_complex, block))
        lines.append(f"{kind} target={target} controls={ctl} block {entries}")
    return lines
