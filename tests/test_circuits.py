"""Two-level decomposition, controlled-gate compilation, entangling check."""
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from cliffsim import circuits, clifford, linalg, simulator
from cliffsim.circuits import TwoLevelGate

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def test_xy_yx_unitary_zero_angles():
    np.testing.assert_allclose(circuits.xy_yx_unitary(0.0, 0.0), np.eye(4), atol=1e-14)


def test_xy_yx_generators_commute():
    a = linalg.expm_i(np.kron(X, Y), 0.37)
    b = linalg.expm_i(np.kron(Y, X), -0.81)
    np.testing.assert_allclose(a @ b, b @ a, atol=1e-12)
    np.testing.assert_allclose(circuits.xy_yx_unitary(0.37, -0.81), a @ b, atol=1e-12)


def test_xy_yx_ground_state_closed_form():
    rng = np.random.default_rng(9)
    for t1, t2 in rng.uniform(-1.2, 1.2, size=(10, 2)):
        state = circuits.xy_yx_unitary(t1, t2) @ simulator.basis_state(2, 0)
        want = np.zeros(4, dtype=complex)
        want[0], want[3] = np.cos(t1 + t2), -np.sin(t1 + t2)
        np.testing.assert_allclose(state, want, atol=1e-10)


def test_xy_yx_entanglement_entropy():
    state = circuits.xy_yx_unitary(np.pi / 8, np.pi / 8) @ simulator.basis_state(2, 0)
    assert simulator.entanglement_entropy(state, 1) == pytest.approx(1.0, abs=1e-9)
    # generic angles: binary entropy of cos^2(t1+t2)
    t1, t2 = 0.3, 0.2
    state = circuits.xy_yx_unitary(t1, t2) @ simulator.basis_state(2, 0)
    p = np.cos(t1 + t2) ** 2
    want = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
    assert simulator.entanglement_entropy(state, 1) == pytest.approx(want, abs=1e-9)


def test_two_level_gate_embed():
    block = linalg.expm_i(X, 0.4)
    gate = TwoLevelGate(4, 1, 3, block)
    dense = gate.embed()
    assert linalg.unitarity_defect(dense) <= 1e-10
    np.testing.assert_allclose(dense[0, 0], 1.0)
    np.testing.assert_allclose(dense[2, 2], 1.0)
    np.testing.assert_allclose(dense[1, 1], block[0, 0])
    np.testing.assert_allclose(dense[3, 1], block[1, 0])


@pytest.mark.parametrize("dim, i, j", [
    (4, 0.5, 1), (4, 1, 3.0), (4, True, 3), (4, 0, True), (4.0, 0, 1), (True, 0, 1)])
def test_two_level_gate_rejects_non_integer_indices(dim, i, j):
    with pytest.raises(TypeError):
        TwoLevelGate(dim, i, j, X)


def test_two_level_gate_stores_plain_int_indices():
    gate = TwoLevelGate(np.int64(4), np.int64(1), np.uint8(3), X)
    assert [type(v) for v in (gate.dim, gate.i, gate.j)] == [int, int, int]
    assert circuits.format_two_level([gate])[0].startswith("twolevel dim=4 i=1 j=3 block")


def test_two_level_gate_keeps_a_read_only_copy_of_its_block():
    """A complex128 block, which needs no conversion, is copied too, as is a
    read-only view of a writable array: writing into the caller's array
    leaves the gate as built, and the gate's own block cannot be written."""
    block = X.astype(complex)
    view = block[:]
    view.flags.writeable = False
    for given in (block, view):
        gate = TwoLevelGate(2, 0, 1, given)
        assert not np.shares_memory(gate.block, block)
        block[0, 0] = 5
        assert np.array_equal(gate.block, X)
        with pytest.raises(ValueError, match="read-only"):
            gate.block[0, 0] = 5
        assert np.array_equal(gate.block, X)
        block[0, 0] = 0


def test_decompose_two_level_input_is_single_factor():
    block = linalg.expm_i(Y, 0.9)
    u = TwoLevelGate(4, 0, 2, block).embed()
    gates = circuits.two_level_decompose(u)
    assert len(gates) == 1
    np.testing.assert_allclose(circuits.gates_product(gates, 4), u, atol=1e-10)


def test_decompose_reconstructs_xy_yx():
    rng = np.random.default_rng(31)
    for t1, t2 in rng.uniform(-1.5, 1.5, size=(10, 2)):
        u = circuits.xy_yx_unitary(t1, t2)
        gates = circuits.two_level_decompose(u)
        assert len(gates) <= 6
        np.testing.assert_allclose(circuits.gates_product(gates, 4), u, atol=1e-9)


def test_decompose_random_eight_dim():
    for seed in range(20):
        rng = np.random.default_rng(600 + seed)
        u = linalg.random_unitary(8, rng)
        gates = circuits.two_level_decompose(u)
        assert len(gates) <= 28
        np.testing.assert_allclose(circuits.gates_product(gates, 8), u, atol=1e-9)


@pytest.mark.parametrize("u", [circuits.xy_yx_unitary(math.pi, 0.0),  # about -I
                               np.diag(np.exp(1j * np.array([0.3, 1.1, -0.7, 0.2])))],
                         ids=["xy-yx-pi", "diagonal-phases"])
def test_decompose_absorbs_an_untouched_pivot_phase(u):
    """A column with nothing below its pivot leaves a pivot phase != 1,
    which decompose absorbs as a one-level factor diag(phase, 1)."""
    dim = u.shape[0]
    gates = circuits.two_level_decompose(u)
    assert len(gates) <= dim * (dim - 1) // 2
    assert linalg.frobenius_norm(circuits.gates_product(gates, dim) - u) <= 1e-9
    assert linalg.frobenius_norm(circuits.compile_unitary(u, 2).dense() - u) <= 1e-9
    assert any(g.block[0, 1] == g.block[1, 0] == 0 and g.block[1, 1] == 1
               and g.block[0, 0] != 1 for g in gates)


def test_decompose_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        circuits.two_level_decompose(np.arange(16.0).reshape(4, 4))
    with pytest.raises(ValueError, match="not unitary"):
        TwoLevelGate(4, 0, 1, 2.0 * X)


def test_compile_adjacent_indices_single_gate():
    block = linalg.expm_i(X, 0.7)
    gate = TwoLevelGate(4, 2, 3, block)
    circuit = circuits.compile_two_level(gate, 2)
    assert len(circuit.gates) == 1
    g = circuit.gates[0]
    assert g is gate  # indices one bit apart: the gate is its own circuit, not rebuilt
    assert circuits.format_circuit(circuit)[0].startswith("cu target=2 controls=1:1 block")
    np.testing.assert_allclose(circuit.dense(), gate.embed(), atol=1e-9)


def test_writing_into_a_compiled_gate_block_raises():
    """Routing gates hold clifford.PAULI["X"] itself as their block, so the
    Pauli matrices are read-only: a write must not reach the module constant."""
    circuit = circuits.compile_two_level(TwoLevelGate(4, 0, 3, linalg.expm_i(Y, 0.23)), 2)
    routing = circuit.gates[0]
    assert routing.block is clifford.PAULI["X"]
    with pytest.raises(ValueError, match="read-only"):
        routing.block[0, 0] = 2
    assert clifford.PAULI["X"].tolist() == X.tolist()
    assert not any(m.flags.writeable for m in clifford.PAULI.values())


@pytest.mark.parametrize("n", [2, 3])
def test_compiled_gates_pass_the_gate_guards_when_rebuilt(n):
    u = linalg.random_unitary(2 ** n, np.random.default_rng(40 + n))
    for g in circuits.compile_unitary(u, n).gates:
        rebuilt = TwoLevelGate(g.dim, g.i, g.j, g.block)
        assert (rebuilt.dim, rebuilt.i, rebuilt.j) == (g.dim, g.i, g.j)
        assert rebuilt.block.tobytes() == g.block.tobytes()


def test_compile_distant_indices_routes_through_gray_code():
    block = linalg.expm_i(Y, 0.23)
    gate = TwoLevelGate(4, 0, 3, block)
    circuit = circuits.compile_two_level(gate, 2)
    assert len(circuit.gates) > 1
    np.testing.assert_allclose(circuit.dense(), gate.embed(), atol=1e-9)
    kinds = {line.split()[0] for line in circuits.format_circuit(circuit)}
    assert "cx" in kinds


def test_compile_full_pipeline_matches_oracle():
    rng = np.random.default_rng(77)
    for t1, t2 in rng.uniform(-1.0, 1.0, size=(10, 2)):
        u = circuits.xy_yx_unitary(t1, t2)
        total = np.eye(4, dtype=complex)
        for gate in circuits.two_level_decompose(u):
            total = total @ circuits.compile_two_level(gate, 2).dense()
        np.testing.assert_allclose(total, u, atol=1e-9)


def test_compile_unitary_three_qubits():
    rng = np.random.default_rng(123)
    u = linalg.random_unitary(8, rng)
    circuit = circuits.compile_unitary(u, 3)
    np.testing.assert_allclose(circuit.dense(), u, atol=1e-9)
    for g in circuit.gates:
        assert bin(g.i ^ g.j).count("1") == 1  # controlled on every other qubit
        assert linalg.unitarity_defect(g.embed()) <= 1e-10


def test_controlled_gate_dense_is_projector_sum():
    # open control on qubit 1, closed control on qubit 3, block on qubit 2
    block = linalg.expm_i(Y, 0.4)
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    want = (np.eye(8) - linalg.tensor(p0, np.eye(2), p1)
            + linalg.tensor(p0, block, p1))
    gate = TwoLevelGate(8, 1, 3, block)
    assert circuits.format_circuit(circuits.GateCircuit(3, (gate,)))[0].startswith(
        "cu target=2 controls=1:0,3:1 block")
    np.testing.assert_array_equal(gate.embed(), want)


def test_controlled_gate_rejects_bad_block():
    with pytest.raises(ValueError, match="not unitary"):
        TwoLevelGate(4, 2, 3, 2.0 * X)
    with pytest.raises(ValueError, match="2x2"):
        TwoLevelGate(4, 2, 3, np.eye(3))


def test_circuit_dense_rejects_a_gate_of_another_register():
    gate = TwoLevelGate(8, 5, 7, X)
    with pytest.raises(ValueError, match="dimension"):
        circuits.GateCircuit(2, (gate,)).dense()


def test_circuit_rejects_a_gate_of_another_register_when_built():
    """Built with a three-qubit gate, a two-qubit circuit would format as a
    three-qubit netlist line, so it must not be built at all."""
    with pytest.raises(ValueError, match="dimension"):
        circuits.format_circuit(circuits.GateCircuit(2, (TwoLevelGate(8, 5, 7, X),)))
    # a mismatched gate after a matching one, and a gate of a smaller register
    with pytest.raises(ValueError, match=r"gate dimension 8 is not 2\^2"):
        circuits.GateCircuit(2, (TwoLevelGate(4, 0, 1, X), TwoLevelGate(8, 5, 7, X)))
    with pytest.raises(ValueError, match=r"gate dimension 4 is not 2\^3"):
        circuits.GateCircuit(3, (TwoLevelGate(4, 0, 1, X),))


def test_format_circuit_rejects_a_gate_that_flips_two_qubits():
    with pytest.raises(ValueError, match="more than one qubit"):
        circuits.format_circuit(circuits.GateCircuit(2, (TwoLevelGate(4, 0, 3, X),)))


def test_format_two_level_and_circuit():
    gates = circuits.two_level_decompose(circuits.xy_yx_unitary(0.3, 0.1))
    lines = circuits.format_two_level(gates)
    assert len(lines) == len(gates)
    assert all(line.startswith("twolevel") for line in lines)
    circuit = circuits.compile_two_level(gates[0], 2)
    netlist = circuits.format_circuit(circuit)
    assert len(netlist) == len(circuit.gates)
    assert all(("cu" in line) or ("cx" in line) for line in netlist)


def test_block_entries_format_as_numpy_complex_scalars():
    """The netlist formats each block entry from Python complex values with
    the text numpy's per-entry np.complex128 formatting gave, signed zeros
    and magnitudes near the float limits included."""
    rng = np.random.default_rng(160)
    shape = (4000, 2, 2, 2)  # 4000 blocks, real and imaginary parts
    parts = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
    parts[:40] = rng.choice([-0.0, 0.0], (40, 2, 2, 2))
    parts[40:80, :, :, 0] = -0.0
    blocks = np.empty(shape[:-1], dtype=complex)
    blocks.real, blocks.imag = parts[..., 0], parts[..., 1]  # keeps each zero's sign
    assert np.signbit(blocks[:40].real).any() and np.signbit(blocks[:40].imag).any()
    gates = [SimpleNamespace(dim=4, i=0, j=2, block=b) for b in blocks]
    old = [" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in b.ravel()) for b in blocks]
    assert circuits.format_two_level(gates) == [
        f"twolevel dim=4 i=0 j=2 block {entries}" for entries in old]
    assert circuits.format_circuit(SimpleNamespace(gates=gates)) == [
        f"cu target=1 controls=2:0 block {entries}" for entries in old]


_NETLIST_LINE = re.compile(r"(cx|cu) target=(\d+) controls=(\S+) block (.*)")


def _line_matrix(line, n):
    """One printed gate rebuilt from its text as I - P + P (x) block, with P
    the projector onto the control polarities and the identity on the target."""
    kind, target, controls, entries = _NETLIST_LINE.fullmatch(line).groups()
    target = int(target)
    block = np.array([complex(z) for z in entries.split()]).reshape(2, 2)
    assert (kind == "cx") == (np.abs(block - X).max() <= 1e-12)
    pairs = [c.split(":") for c in controls.split(",")] if controls != "-" else []
    pol = {int(q): int(b) for q, b in pairs}
    assert list(pol) == [q for q in range(1, n + 1) if q != target]  # ascending
    proj = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    p = on = np.eye(1)
    for q in range(1, n + 1):
        p = np.kron(p, np.eye(2) if q == target else proj[pol[q]])
        on = np.kron(on, block if q == target else proj[pol[q]])
    return np.eye(2 ** n) - p + on


def _netlist_matrix(lines, n):
    """The product of the printed gates in application order (first line rightmost)."""
    rebuilt = {line: _line_matrix(line, n) for line in set(lines)}  # routing lines repeat
    total = np.eye(2 ** n, dtype=complex)
    for line in lines:
        total = rebuilt[line] @ total
    return total


def test_netlist_text_rebuilds_the_unitary():
    rng = np.random.default_rng(2718)
    unitaries = [linalg.random_unitary(2 ** n, rng) for n in (2, 2, 3, 3, 4)]
    cases = [(circuits.compile_unitary(u, u.shape[0].bit_length() - 1), u) for u in unitaries]
    cases.append((circuits.decompose_report(-2.194, 2.085).circuit,
                  circuits.xy_yx_unitary(-2.194, 2.085)))
    for circuit, u in cases:
        for g in circuit.gates:
            flip = g.i ^ g.j
            assert flip and not flip & (flip - 1)
        got = _netlist_matrix(circuits.format_circuit(circuit), circuit.n)
        assert np.abs(got - u).max() <= 1e-9


def test_decompose_report():
    rep = circuits.decompose_report(0.3, -0.7)
    u = circuits.xy_yx_unitary(0.3, -0.7)
    assert len(rep.factors) <= 6
    assert rep.reconstruction_defect == linalg.frobenius_norm(
        circuits.gates_product(rep.factors, 4) - u) <= 1e-9
    assert rep.compilation_defect == linalg.frobenius_norm(rep.circuit.dense() - u) <= 1e-9


def test_decompose_report_decomposes_once(monkeypatch):
    calls = []
    real = circuits.two_level_decompose

    def counting(u):
        calls.append(1)
        return real(u)
    monkeypatch.setattr(circuits, "two_level_decompose", counting)
    circuits.decompose_report(0.3, -0.7)
    assert len(calls) == 1


_I2 = np.eye(2, dtype=complex)

# Input guards that no other test reaches, each with its exact message
_INPUT_GUARDS = [
    pytest.param(lambda: TwoLevelGate(4, 2, 1, _I2),
                 "need 0 <= i < j < dim, got i=2, j=1, dim=4", id="gate-order"),
    pytest.param(lambda: circuits.gates_product([TwoLevelGate(4, 0, 1, _I2)], 8),
                 "gate dimension 4 != 8", id="product-dim"),
    pytest.param(lambda: circuits.two_level_decompose(np.eye(1)),
                 "need 2 <= dim <= 16, got (1, 1)", id="decompose-dim-1"),
    pytest.param(lambda: circuits.two_level_decompose(np.eye(32)),
                 "need 2 <= dim <= 16, got (32, 32)", id="decompose-dim-32"),
    pytest.param(lambda: circuits.compile_two_level(TwoLevelGate(4, 0, 1, _I2), 3),
                 "gate dimension 4 is not 2^3", id="compile-dim"),
]


@pytest.mark.parametrize("call, message", _INPUT_GUARDS)
def test_input_guards_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
