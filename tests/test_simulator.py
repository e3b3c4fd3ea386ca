"""Statevector, swap-test and entanglement-entropy tests."""
import re

import numpy as np
import pytest

from cliffsim import linalg, simulator

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def test_basis_state_and_inner():
    s = simulator.basis_state(2, 3)
    np.testing.assert_allclose(s, [0, 0, 0, 1])
    assert simulator.inner(s, s) == pytest.approx(1.0)
    assert simulator.inner(simulator.basis_state(2, 0), s) == pytest.approx(0.0)


def test_apply_preserves_norm():
    rng = np.random.default_rng(17)
    u = linalg.random_unitary(8, rng)
    s = simulator.random_state(3, rng)
    out = simulator.apply(u, s)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)


def test_apply_rejects_bad_shapes():
    with pytest.raises(ValueError):
        simulator.apply(np.eye(4), KET0)
    with pytest.raises(ValueError, match="1-d"):
        simulator.apply(np.eye(2), 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        simulator.apply(np.eye(2), [np.nan, 0])
    with pytest.raises(ValueError):
        simulator.basis_state(0, 0)


def test_swap_test_exact_examples():
    psi = PLUS
    assert simulator.swap_test_exact(psi, psi) == pytest.approx(1.0, abs=1e-12)
    assert simulator.swap_test_exact(KET0, KET1) == pytest.approx(0.5, abs=1e-12)
    assert simulator.swap_test_exact(KET0, PLUS) == pytest.approx(0.75, abs=1e-12)


def test_swap_test_circuit_matches_formula():
    for n in (1, 2, 3):
        for seed in range(10):
            rng = np.random.default_rng(1000 * n + seed)
            psi = simulator.random_state(n, rng)
            phi = simulator.random_state(n, rng)
            p_formula = 0.5 * (1.0 + abs(simulator.inner(psi, phi)) ** 2)
            p_circuit = simulator.swap_test_circuit_probability(psi, phi)
            assert abs(p_circuit - p_formula) <= 1e-10


def test_swap_test_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        simulator.swap_test_exact(KET0, simulator.basis_state(2, 0))


def test_swap_test_sampled_identical_states():
    tally, estimate = simulator.swap_test_sampled(PLUS, PLUS, shots=500, seed=1)
    assert tally.zero_count == 500
    assert estimate == pytest.approx(1.0)
    assert not tally.clamped


def test_swap_test_sampled_concentrates():
    exact_sq = 0.5  # |<0|+>|^2
    tally, estimate = simulator.swap_test_sampled(KET0, PLUS, shots=100_000, seed=42)
    assert tally.shots == 100_000
    assert abs(estimate ** 2 - exact_sq) <= 0.02


def test_swap_test_sampled_error_shrinks_with_shots():
    errs = []
    for shots in (1_000, 10_000, 100_000):
        _, estimate = simulator.swap_test_sampled(KET0, PLUS, shots=shots, seed=7)
        errs.append(abs(estimate ** 2 - 0.5))
    assert errs[2] < errs[0]


def test_swap_test_sampled_clamps_below_half():
    # orthogonal states: Pr(0) = 1/2, so some seeds land below half frequency
    clamped = [simulator.swap_test_sampled(KET0, KET1, shots=1001, seed=s)[0].clamped
               for s in range(8)]
    assert any(clamped)
    for s in range(8):
        _, est = simulator.swap_test_sampled(KET0, KET1, shots=1001, seed=s)
        assert est >= 0.0


def test_swap_test_sampled_deterministic():
    a = simulator.swap_test_sampled(KET0, PLUS, shots=5000, seed=11)
    b = simulator.swap_test_sampled(KET0, PLUS, shots=5000, seed=11)
    assert a == b


@pytest.mark.parametrize("shots", [2.5, np.float64(3.0), "3"])
def test_swap_test_sampled_rejects_a_non_integer_shot_count(shots):
    with pytest.raises(TypeError):
        simulator.swap_test_sampled(KET0, PLUS, shots=shots, seed=11)


def test_swap_test_sampled_takes_a_numpy_integer_shot_count():
    want = simulator.swap_test_sampled(KET0, PLUS, shots=5000, seed=11)
    got = simulator.swap_test_sampled(KET0, PLUS, shots=np.int64(5000), seed=11)
    assert got == want and type(got[0].shots) is int


def test_entanglement_entropy_product_and_bell():
    assert simulator.entanglement_entropy(simulator.basis_state(2, 0), 1) == pytest.approx(
        0.0, abs=1e-10)
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
    assert simulator.entanglement_entropy(bell, 1) == pytest.approx(1.0, abs=1e-10)


def test_entanglement_entropy_closed_form():
    s = np.pi / 8
    state = np.zeros(4, dtype=complex)
    state[0], state[3] = np.cos(s), -np.sin(s)
    p = np.cos(s) ** 2
    want = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
    assert simulator.entanglement_entropy(state, 1) == pytest.approx(want, abs=1e-10)
    assert want == pytest.approx(0.60088, abs=1e-4)


def test_entanglement_entropy_rejects_bad_cut():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
    with pytest.raises(ValueError):
        simulator.entanglement_entropy(bell, 2)


_GROUND = simulator.basis_state(1, 0)

# Input guards that no other test reaches, each with its exact message
_INPUT_GUARDS = [
    pytest.param(lambda: simulator.ShotTally(0, 0, 1),
                 "need shots >= 1, got 0", id="tally-no-shots"),
    pytest.param(lambda: simulator.ShotTally(5, 6, 1),
                 "zero_count 6 out of range 0..5", id="tally-zeros"),
    pytest.param(lambda: simulator.apply(np.eye(3), np.full(3, 3 ** -0.5)),
                 "state length 3 is not a power of two", id="apply-length"),
    pytest.param(lambda: simulator.apply(np.eye(2), np.array([1.0, 1.0])),
                 "state is not normalized: |norm - 1| = 4.142e-01", id="apply-norm"),
    pytest.param(lambda: simulator.basis_state(1, 2),
                 "basis index 2 out of range for n=1", id="basis-index"),
    pytest.param(lambda: simulator.swap_test_sampled(_GROUND, _GROUND, shots=0, seed=0),
                 "need shots >= 1, got 0", id="sampled-shots"),
]


@pytest.mark.parametrize("call, message", _INPUT_GUARDS)
def test_input_guards_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
