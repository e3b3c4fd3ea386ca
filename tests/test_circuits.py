"""Two-level decomposition, controlled-gate compilation, entangling check."""
import numpy as np
import pytest

from cliffsim import circuits, linalg, simulator
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
    assert g.target == 2
    assert g.controls == ((1, 1),)
    np.testing.assert_allclose(circuit.dense(), gate.embed(), atol=1e-9)


def test_compile_distant_indices_routes_through_gray_code():
    block = linalg.expm_i(Y, 0.23)
    gate = TwoLevelGate(4, 0, 3, block)
    circuit = circuits.compile_two_level(gate, 2)
    assert len(circuit.gates) > 1
    np.testing.assert_allclose(circuit.dense(), gate.embed(), atol=1e-9)
    kinds = {g.kind for g in circuit.gates}
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
        assert len(g.controls) == 2  # every qubit but the target
        assert linalg.unitarity_defect(g.dense()) <= 1e-10


def test_controlled_gate_dense_is_projector_sum():
    # open control on qubit 1, closed control on qubit 3, block on qubit 2
    block = linalg.expm_i(Y, 0.4)
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    want = (np.eye(8) - linalg.tensor(p0, np.eye(2), p1)
            + linalg.tensor(p0, block, p1))
    gate = circuits.ControlledGate(3, 2, ((3, 1), (1, 0)), block)
    assert gate.controls == ((1, 0), (3, 1))
    np.testing.assert_array_equal(gate.dense(), want)


@pytest.mark.parametrize("target, controls", [
    (2, ((1, 1),)),                  # qubit 3 has no control
    (2, ((1, 1), (1, 0), (3, 1))),   # qubit 1 twice
    (2, ((1, 1), (3, 1), (4, 0))),   # qubit 4 is not on the register
    (2, ((1, 1), (2, 0), (3, 1))),   # a control on the target
    (2, ((1, 2), (3, 1))),           # polarity 2
    (0, ((1, 1), (2, 1), (3, 1))),   # target below 1
    (4, ((1, 1), (2, 1), (3, 1))),   # target above n
])
def test_controlled_gate_rejects_bad_controls(target, controls):
    with pytest.raises(ValueError):
        circuits.ControlledGate(3, target, controls, X)


def test_controlled_gate_rejects_bad_block():
    with pytest.raises(ValueError):
        circuits.ControlledGate(2, 2, ((1, 1),), 2.0 * X)
    with pytest.raises(ValueError):
        circuits.ControlledGate(2, 2, ((1, 1),), np.eye(3))


def test_circuit_dense_rejects_a_gate_of_another_register():
    gate = circuits.ControlledGate(3, 2, ((1, 1), (3, 0)), X)
    with pytest.raises(ValueError, match="dimension"):
        circuits.GateCircuit(2, (gate,)).dense()


def test_format_two_level_and_circuit():
    gates = circuits.two_level_decompose(circuits.xy_yx_unitary(0.3, 0.1))
    lines = circuits.format_two_level(gates)
    assert len(lines) == len(gates)
    assert all(line.startswith("twolevel") for line in lines)
    circuit = circuits.compile_two_level(gates[0], 2)
    netlist = circuits.format_circuit(circuit)
    assert len(netlist) == len(circuit.gates)
    assert all(("cu" in line) or ("cx" in line) for line in netlist)


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
