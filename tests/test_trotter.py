"""Product-formula error measurements against the analytic envelopes."""
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from cliffsim import clifford, linalg, trotter
from cliffsim.clifford import Blade
from cliffsim.trotter import HamiltonianTerm

X_TERM = HamiltonianTerm(0.7, Blade(1, (0,)))
Y_TERM = HamiltonianTerm(0.4, Blade(1, (1,)))

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def _summed_hamiltonian(terms):
    return sum(term.coeff * term.blade.dense() for term in terms)


def _product_formula(terms, t, r):
    return trotter.product_formulas([term.coeff for term in terms],
                                    [term.blade.dense() for term in terms], t, [r])[0]


def test_exact_evolution_single_term_closed_form():
    t = 0.9
    got = linalg.expm_i(_summed_hamiltonian([X_TERM]), -t)
    want = np.cos(0.7 * t) * I2 - 1j * np.sin(0.7 * t) * X
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_commuting_terms_factorize():
    # the {0,1} and {2,3} blades are -I(x)Z and -Z(x)I, which commute
    terms = [HamiltonianTerm(0.3, Blade(2, (0, 1))), HamiltonianTerm(0.8, Blade(2, (2, 3)))]
    t = 1.1
    exact = linalg.expm_i(_summed_hamiltonian(terms), -t)
    split = (linalg.expm_i(_summed_hamiltonian(terms[:1]), -t)
             @ linalg.expm_i(_summed_hamiltonian(terms[1:]), -t))
    np.testing.assert_allclose(exact, split, atol=1e-12)
    for r in (1, 3, 10):
        np.testing.assert_allclose(_product_formula(terms, t, r), exact, atol=1e-10)
        assert trotter.trotter_report(terms, t, r).measured_error <= 1e-10


def test_single_term_product_formula_is_exact():
    for r in (1, 7):
        np.testing.assert_allclose(
            _product_formula([X_TERM], 1.3, r),
            linalg.expm_i(_summed_hamiltonian([X_TERM]), -1.3), atol=1e-12)


def test_product_formula_rejects_r_zero():
    with pytest.raises(ValueError):
        _product_formula([X_TERM], 1.0, 0)


def test_mixed_registers_rejected():
    with pytest.raises(ValueError, match="different registers"):
        trotter.error_sweep([X_TERM, HamiltonianTerm(1.0, Blade(2, (0,)))], 1.0, [1])


def test_first_order_error_ratio():
    e10 = trotter.trotter_report([X_TERM, Y_TERM], 1.0, 10).measured_error
    e100 = trotter.trotter_report([X_TERM, Y_TERM], 1.0, 100).measured_error
    assert 8.0 <= e10 / e100 <= 12.0


def test_bound_full_holds_on_sweep():
    for r in (1, 2, 5, 10, 20, 50, 100):
        rep = trotter.trotter_report([X_TERM, Y_TERM], 1.0, r)
        assert rep.measured_error <= rep.bound_full + 1e-12
        assert rep.bound_full == pytest.approx(
            rep.bound_simple * np.exp(2 * 0.7 * 1.0 / r), rel=1e-12)


def test_error_vanishes_with_r():
    e10 = trotter.trotter_report([X_TERM, Y_TERM], 1.0, 10).measured_error
    e1000 = trotter.trotter_report([X_TERM, Y_TERM], 1.0, 1000).measured_error
    assert e1000 < e10


def test_product_formula_unitary():
    terms = trotter.random_instance(2, 4, seed=11)
    for r in (1, 10):
        assert linalg.unitarity_defect(_product_formula(terms, 2.0, r)) <= 1e-10


def test_reordering_within_shared_envelope():
    terms = trotter.random_instance(2, 4, seed=11)
    base = trotter.trotter_report(terms, 1.0, 20)
    shuffled = list(terms)[::-1]
    other = trotter.trotter_report(shuffled, 1.0, 20)
    assert abs(base.measured_error - other.measured_error) <= 2.0 * base.bound_simple


def test_loglog_slope_is_minus_one():
    terms = trotter.random_instance(2, 4, seed=11)
    rs = [10, 18, 32, 56, 100, 178, 316, 562, 1000]
    reports = trotter.error_sweep(terms, 1.0, rs)
    errs = np.array([rep.measured_error for rep in reports])
    slope = np.polyfit(np.log(rs), np.log(errs), 1)[0]
    assert -1.1 <= slope <= -0.9


def test_error_sweep_matches_individual_reports():
    reports = trotter.error_sweep([X_TERM, Y_TERM], 0.7, [4, 16])
    for rep in reports:
        single = trotter.trotter_report([X_TERM, Y_TERM], 0.7, rep.r)
        assert rep.measured_error == pytest.approx(single.measured_error, abs=1e-12)
        assert rep.bound_full == single.bound_full


def test_noncommuting_pair_count():
    assert trotter.noncommuting_pair_count([X_TERM, Y_TERM]) == 1
    commuting = [HamiltonianTerm(1.0, Blade(2, (0, 1))), HamiltonianTerm(1.0, Blade(2, (2, 3)))]
    assert trotter.noncommuting_pair_count(commuting) == 0


def test_random_instance_properties():
    terms = trotter.random_instance(2, 4, seed=5)
    assert terms == trotter.random_instance(2, 4, seed=5)
    blades = [term.blade.indices for term in terms]
    assert len(set(blades)) == 4
    assert all(term.blade.indices for term in terms)  # identity excluded
    assert all(0.2 <= abs(term.coeff) <= 1.0 for term in terms)


@pytest.mark.parametrize("n", [1, 2])
def test_random_instance_matches_the_built_blade_pool(n):
    """Picking index sets gives, draw for draw, the terms that picking from
    every built non-identity blade of hermitian_basis gave."""
    pool = [b for b in clifford.hermitian_basis(n) if b.indices]
    for num_terms, seed in itertools.product(range(1, len(pool) + 1), range(10)):
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(pool), size=num_terms, replace=False)
        signs = rng.choice([-1.0, 1.0], size=num_terms)
        mags = rng.uniform(0.2, 1.0, size=num_terms)
        want = [HamiltonianTerm(float(signs[i] * mags[i]), pool[int(picks[i])])
                for i in range(num_terms)]
        assert trotter.random_instance(n, num_terms, seed) == want
    for bad_n in (0, 5):
        with pytest.raises(ValueError, match="1 <= n <= 4"):
            trotter.random_instance(bad_n, 1, 0)


def test_report_fields_consistent():
    rep = trotter.trotter_report([X_TERM, Y_TERM], 2.0, 8)
    assert rep.r == 8 and rep.t == 2.0
    assert rep.omega == 1
    assert rep.measured_error >= 0.0
    assert rep.bound_commutator >= 0.0


def _per_r_product_formula(terms, t, r):
    """The one-r route: the closed-form factors multiplied in term-list order
    from the identity, then np.linalg.matrix_power."""
    step = np.eye(2 ** terms[0].blade.n, dtype=complex)
    for term in terms:
        step = step @ linalg.expm_i_involution(term.blade.dense(), -term.coeff * t / r)
    return np.linalg.matrix_power(step, r)


@pytest.mark.parametrize("n, num_terms", [(1, 2), (1, 3), (2, 8), (2, 15)])
def test_stacked_product_formula_matches_a_per_r_loop(n, num_terms):
    """Unsorted rs with a repeat, small r and R_MAX: every slice has the
    bits of the per-r route.  With 8 terms the factor grid is square
    (R = L), where swapped r and term axes would still broadcast."""
    rs = [7, 1, 3, 1000, 2, trotter.R_MAX, 5, 1]
    terms = trotter.random_instance(n, num_terms, seed=n + num_terms)
    stack = trotter.product_formulas([term.coeff for term in terms],
                                     [term.blade.dense() for term in terms], 0.9, rs)
    assert stack.shape == (len(rs), 2 ** n, 2 ** n)
    for r, got in zip(rs, stack):
        want = _per_r_product_formula(terms, 0.9, r)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert got.tobytes() == want.tobytes(), f"r={r}"
        assert _product_formula(terms, 0.9, r).tobytes() == want.tobytes()


# Grids for the ladder: every r up to 70, R_MAX alone (20 bit levels),
# unsorted and descending grids with repeats, r = 3 (which matrix_power takes
# as (a a) a) and the empty grid
_LADDER_GRIDS = {
    "1..70": list(range(1, 71)),
    "R_MAX": [trotter.R_MAX],
    "unsorted": [7, 1, 3, 3, 1000, 2, trotter.R_MAX, 5, 1, 70, 7, 64, 63],
    "descending": [trotter.R_MAX, 999_999, 524_288, 524_287, 3, 2, 1, 1],
    "empty": [],
}


@pytest.mark.parametrize("grid", _LADDER_GRIDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ladder_has_the_bits_of_matrix_power(n, grid):
    """Every slice of product_formulas is byte for byte the per-r route,
    whose power is np.linalg.matrix_power."""
    rs = _LADDER_GRIDS[grid]
    terms = trotter.random_instance(n, min(4 ** n - 1, 4), seed=10 + n)
    stack = trotter.product_formulas([term.coeff for term in terms],
                                     [term.blade.dense() for term in terms], -0.8, rs)
    assert stack.shape == (len(rs), 2 ** n, 2 ** n)
    for r, got in zip(rs, stack):
        assert got.tobytes() == _per_r_product_formula(terms, -0.8, r).tobytes(), f"r={r}"


@pytest.mark.parametrize("grid", _LADDER_GRIDS)
def test_matrix_powers_of_a_stack_are_matrix_powers(grid):
    """The ladder alone, on unitaries with nothing in common: each slice is
    raised to its own r, and the input is left as it was."""
    rs = _LADDER_GRIDS[grid]
    rng = np.random.default_rng(3)
    a = np.array([linalg.random_unitary(4, rng) for _ in rs]).reshape(len(rs), 4, 4)
    before = a.copy()
    powers = trotter._matrix_powers(a, rs)
    assert powers.shape == a.shape and np.array_equal(a, before)
    for r, slice_, got in zip(rs, a, powers):
        assert got.tobytes() == np.linalg.matrix_power(slice_, r).tobytes(), f"r={r}"


def test_matrix_powers_working_memory_is_linear_in_the_grid():
    """The ladder holds the current squaring and the results, not one stack
    per bit level: at R_MAX, 20 levels, a list of every level would peak
    above 20 times the input; the ladder peaks at about 3 times (the results,
    one level and the next, while it squares)."""
    rng = np.random.default_rng(4)
    a = np.stack([linalg.random_unitary(16, rng) for _ in range(32)])
    tracemalloc.start()
    try:
        trotter._matrix_powers(a, [trotter.R_MAX] * len(a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trotter.R_MAX.bit_length() == 20
    assert peak <= 4 * a.nbytes


def test_error_sweep_edge_cases():
    empty = trotter.error_sweep([], 1.5, [1, 3, 10])
    assert [rep.r for rep in empty] == [1, 3, 10]
    for rep in empty:
        assert rep.measured_error <= 1e-14
        assert (rep.bound_simple, rep.bound_full, rep.bound_commutator, rep.omega) == (0, 0, 0, 0)
    single = trotter.random_instance(2, 1, seed=4)
    for rep in trotter.error_sweep(single, 1.3, [1, 3, trotter.R_MAX]):
        assert rep.omega == 0
        assert rep.measured_error <= 1e-9
    assert trotter.error_sweep(trotter.random_instance(2, 4, seed=4), 1.3, []) == []
    with pytest.raises(ValueError, match="r >= 1"):
        trotter.error_sweep([X_TERM], 1.0, [2, 0])
    terms = trotter.random_instance(1, 2, 0)
    with pytest.raises(ValueError, match="r >= 1"):
        trotter.error_sweep(terms, 1.0, [0])
    with pytest.raises(TypeError):  # as product_formulas does; r = 2.5 is not run as 2
        trotter.error_sweep(terms, 1.0, [2.5])
    reports = trotter.error_sweep(terms, 1.0, np.array([3, 1]))
    assert [(rep.r, type(rep.r)) for rep in reports] == [(3, int), (1, int)]


# Input guards that no other test reaches, each with its exact message
_INPUT_GUARDS = [
    pytest.param(lambda: HamiltonianTerm(float("inf"), Blade(1, (0,))),
                 "coefficient must be finite, got inf", id="term-coefficient"),
    pytest.param(lambda: trotter.random_instance(1, 4, 0),
                 "num_terms must be in 1..3 for n=1, got 4", id="instance-terms"),
]


@pytest.mark.parametrize("call, message", _INPUT_GUARDS)
def test_input_guards_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
