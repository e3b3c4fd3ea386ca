"""Command-line front end.

Every command reads optional ``key = value`` config files (# comments),
lets flags override file values, runs its computation with an explicit
64-bit seed, writes a CSV report (or a textual netlist for ``decompose``)
and exits 0 only if every invariant asserted by that command holds.

Parsing takes the first of three routes that applies, and each gives a
namespace with the attributes the next would.  An argv whose first token
names a command, and whose every later token is ``--flag value`` or
``--flag=value`` with the flag spelled in full and a value that is not
empty and does not start with '-', is read in one pass over a table of that
command's flags, without importing argparse: argparse matches an exact
option before any prefix, splits at the first '=', and stores the last
value of each flag as a string.  Any other argv led by a command
(abbreviations, negative values, -h, unknown flags, positionals, a missing
value) goes to that command's subparser alone, which is what the top-level
parser would hand the rest to, at about half the cost; any other argv at
all (none, --help, --version, an unknown command) goes to the top-level
parser.  Only stderr can tell the last two apart: an unrecognized argument
is reported as ``cliffsim <command>: error:`` under the command's usage
(exit code 2 either way).

Exit codes: 0 all checks pass, 1 invariant failure (a ``FAIL <name>`` line
is printed; a computed value that fails the program's own check,
``linalg.InvariantError``, prints ``FAIL invariant``: an eigensolve that fails
``hermitian_eigen``'s residual or orthonormality check, or a training
fidelity, activation output or gradient out of its range; any other
``LinAlgError`` is not caught), 2 unknown command / unparseable
flags, 3 invalid config (including a config file that cannot be read or decoded as UTF-8, a
report path that cannot be written, and a work flag past its cap in WORK_CAPS).
Data rows are deterministic: identical command, config and seed give
byte-identical rows (floats carry 17 significant digits); metadata such as
the seed, package version and command line rides in trailing # comments.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__, circuits, clifford, cqp, gqft, linalg, simulator, trotter

if TYPE_CHECKING:
    import argparse


class ConfigError(Exception):
    pass


class CheckFailure(Exception):
    """A check failed: main prints ``FAIL <name> (<detail>)`` and exits 1."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name}: {detail}")
        self.name = name
        self.detail = detail


# ---------------------------------------------------------------------------
# config plumbing

_COMMON_KEYS = {"seed": ("int", 0)}

# verify-gqft and gqft-distance report on the same grid (_gqft_grid)
_GQFT_KEYS = {
    "n": ("int", 2),
    "thetas": ("floats", (0.01, 0.1, 0.5, 1.0, 2.0)),
    "trials": ("int", 5),
}

_COMMAND_KEYS = {
    "verify-basis": {"n": ("int", 2)},
    "omega-count": {"n": ("int", 2)},
    "verify-gqft": _GQFT_KEYS,
    "gqft-distance": _GQFT_KEYS,
    "trotter-sweep": {
        "n": ("int", 1),
        "terms": ("int", 2),
        "t": ("float", 1.0),
        "rs": ("ints", (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)),
    },
    "swap-test": {
        "n": ("int", 2),
        "shots": ("ints", (1000, 10000, 100000)),
    },
    "train-cqp": {
        "n": ("int", 1),
        "beta": ("float", math.pi / 3),
        "eta": ("float", 0.1),
        "iterations": ("int", 500),
        "activation": ("str", "tanh"),
        "output_index": ("int", 0),
        "fd_step": ("float", 1e-5),
        "require_fidelity": ("float", 0.99),
    },
    "equivalence": {"n": ("int", 2), "trials": ("int", 50)},
    "decompose": {"theta1": ("float", math.pi / 8), "theta2": ("float", math.pi / 8)},
}

# The cap on each work flag: the trial count, and the number of values of each
# list.  The largest runs the caps admit, measured in a fresh process (2-vCPU
# Xeon VM): verify-gqft --n 4 with 1,000 trials of 100 thetas, 10^5 rows, takes
# 3.1 s and 89 MB of peak RSS; trotter-sweep --n 4 --terms 255 with 100 r values
# near R_MAX takes 0.4 s and 146 MB, most of it the (R, L, d, d) factor stack.
WORK_CAPS = {"trials": 1000, "thetas": 100, "shots": 1000, "rs": 100}


def _coerce(key: str, kind: str, raw):
    if not isinstance(raw, str):  # argparse gives [] for a value of "--"
        raise ConfigError(f"bad value for {key!r}: {raw!r}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "ints":
            return tuple(int(p) for p in raw.split(",") if p.strip())
        if kind == "floats":
            return tuple(float(p) for p in raw.split(",") if p.strip())
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _load_config(command: str, args: SimpleNamespace | argparse.Namespace) -> dict:
    keys = dict(_COMMON_KEYS)
    keys.update(_COMMAND_KEYS[command])
    cfg = {k: default for k, (_, default) in keys.items()}
    if args.config is not None:
        for key, raw in _read_config_file(args.config).items():
            if key not in keys:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            cfg[key] = _coerce(key, keys[key][0], raw)
    for key in keys:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = _coerce(key, keys[key][0], flag_val)
    if not 0 <= cfg["seed"] < 2 ** 64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {cfg['seed']}")
    sizes = clifford.REGISTER_SIZES
    _require("n" not in cfg or cfg["n"] in sizes, "n", f"must be in {sizes[0]}..{sizes[-1]}")
    for key, cap in WORK_CAPS.items():
        if key in cfg:
            count = isinstance(cfg[key], int)  # trials; the others are lists
            size = cfg[key] if count else len(cfg[key])
            _require(size <= cap, key, f"at most {cap}{'' if count else ' values'}, got {size}")
    return cfg


def _require(cond: bool, key: str, detail: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {detail}")


def _derived_seeds(cfg, offset: int, count: int) -> range:
    """The count >= 1 seeds cfg["seed"] + offset + i, each an unsigned 64-bit
    integer as a --seed must be, else ConfigError."""
    first = cfg["seed"] + offset
    _require(first + count - 1 < 2 ** 64, "seed",
             f"the derived seeds run to {first + count - 1}, past 2^64 - 1")
    return range(first, first + count)


def _finite(compute) -> bool:
    """Whether compute() gives finite doubles rather than overflowing."""
    try:
        return bool(np.isfinite(compute()).all())
    except OverflowError:
        return False


def _check(cond: bool, name: str, detail: Callable[[], str]) -> None:
    """CheckFailure(name, detail()) unless cond holds; the detail text is built
    only for a check that fails."""
    if not cond:
        raise CheckFailure(name, detail())


def _cell_format(kind: type) -> str:
    """The % format of a report cell of type kind: floats to 17 significant
    digits (np.float32 too, via float), bools and integers as integers, any
    other cell as its str."""
    if issubclass(kind, (float, np.floating)):
        return "%.17g"
    if issubclass(kind, (int, np.integer, np.bool_)):  # bool subclasses int
        return "%d"
    return "%s"


@functools.lru_cache(maxsize=64)
def _row_template(kinds: tuple[type, ...]) -> str:
    """The % template of a report row whose cells have the types kinds."""
    return ",".join(map(_cell_format, kinds))


def _cell_types(row) -> tuple[type, ...]:
    # (*map(...),) builds the key from a list of known length.  tuple(map(...))
    # grows its tuple by resizing, which bypasses CPython's tuple free lists,
    # so each call left one more spare tuple on the list of the row's length
    # (up to 2000 of them): ~0.4 MB more peak RSS over a few thousand jobs
    return (*map(type, row),)


# ---------------------------------------------------------------------------
# command handlers: return (header or None, rows/lines, summary lines)

def _cmd_verify_basis(cfg):
    n = cfg["n"]
    _, count, herm, gen, rank, orthogonality_failure = clifford.basis_report(n)
    _check(herm <= 1e-12, "basis-hermiticity", lambda: f"max defect {herm:.3e}")
    _check(gen <= 1e-12, "generator-relations", lambda: f"max defect {gen:.3e}")
    _check(rank == 4 ** n, "basis-independence", lambda: f"gram rank {rank} != {4 ** n}")
    _check(orthogonality_failure is None, "basis-orthogonality", lambda: orthogonality_failure)
    _check(count == 4 ** n, "basis-count", lambda: f"blade count {count} != {4 ** n}")
    header = ["n", "blade_count", "max_hermiticity_defect",
              "max_generator_relation_defect", "gram_rank"]
    rows = [[n, count, herm, gen, rank]]
    return header, rows, [f"verify-basis: n={n}, {count} blades, "
                          f"hermiticity {herm:.3e}, relations {gen:.3e}, rank {rank}"]


def _cmd_omega_count(cfg):
    n = cfg["n"]
    parity = clifford.omega_count(n)
    dense = clifford.omega_count_dense(n)
    _check(parity == dense, "omega-agreement", lambda: f"parity {parity} != dense {dense}")
    # every non-identity Pauli word anticommutes with half of the 4^n words
    closed = 4 ** (n - 1) * (4 ** n - 1)
    _check(parity == closed, "omega-closed-form",
           lambda: f"parity = dense = {parity} != 4^(n-1) * (4^n - 1) = {closed}")
    header = ["n", "omega_parity_rule", "omega_bruteforce"]
    return header, [[n, parity, dense]], [f"omega-count: n={n}, omega={parity}"]


def _gqft_grid(cfg, grid):
    """(theta, seed, grid's values at theta) for each theta and seed of the
    config, theta-major; grid is gqft.unitarity_grid or gqft.distance_grid."""
    n = cfg["n"]
    _require(cfg["trials"] >= 1, "trials", "must be >= 1")
    _require(len(cfg["thetas"]) >= 1 and all(t >= 0 for t in cfg["thetas"]), "thetas",
             "need at least one theta, all >= 0")
    _require(_finite(lambda: [gqft.distance_bound(n, t) for t in cfg["thetas"]]),
             "thetas", f"too large: the distance bound overflows at n={n}")
    # one axis draw per seed, and one theta grid per draw: one eigendecomposition
    # per distinct Gamma_k (one for the shared-axis draw), and for
    # unitarity_grid one factored pass, serve every theta
    seeds = _derived_seeds(cfg, 0, cfg["trials"])
    by_seed = [grid(gqft.random_axes(n, np.random.default_rng(seed)), cfg["thetas"])
               for seed in seeds]
    for t, theta in enumerate(cfg["thetas"]):  # rows stay theta-major
        for seed, values in zip(seeds, by_seed):
            yield theta, seed, values[t]


def _cmd_verify_gqft(cfg):
    rows = []
    for theta, seed, (defect, fact) in _gqft_grid(cfg, gqft.unitarity_grid):
        _check(defect <= 1e-10, "gqft-unitarity",
               lambda: f"theta={theta} seed={seed} defect {defect:.3e}")
        _check(fact <= 1e-10, "gqft-factorization",
               lambda: f"theta={theta} seed={seed} error {fact:.3e}")
        rows.append([theta, cfg["n"], seed, defect, fact])
    header = ["theta", "n", "seed", "unitarity_defect", "factorization_error"]
    return header, rows, [f"verify-gqft: {len(rows)} rows, "
                          f"max unitarity defect {max(r[3] for r in rows):.3e}, "
                          f"max factorization error {max(r[4] for r in rows):.3e}"]


def _cmd_gqft_distance(cfg):
    rows = []
    for theta, seed, (distance, bound) in _gqft_grid(cfg, gqft.distance_grid):
        # 1e-12 absorbs roundoff: at theta = 0 the bound is 0 and the
        # distance is rounding alone
        _check(distance <= bound + 1e-12, "gqft-distance-bound",
               lambda: f"theta={theta} seed={seed} distance {distance:.6e} > bound {bound:.6e}")
        rows.append([theta, cfg["n"], seed, distance, bound])
    header = ["theta", "n", "seed", "distance", "bound"]
    return header, rows, [f"gqft-distance: {len(rows)} rows, all within bound"]


def _cmd_trotter_sweep(cfg):
    n, terms_n, t = cfg["n"], cfg["terms"], cfg["t"]
    _require(1 <= terms_n <= 4 ** n - 1, "terms", f"must be in 1..{4 ** n - 1} for n={n}")
    _require(len(cfg["rs"]) >= 1 and all(1 <= r <= trotter.R_MAX for r in cfg["rs"]), "rs",
             f"need at least one r, all in 1..{trotter.R_MAX}")
    terms = trotter.random_instance(n, terms_n, cfg["seed"])
    # every bound falls as r grows and none falls as the pair count grows, so
    # finite at the smallest r and at the most pairs, L (L - 1) / 2, means finite
    # at every r and the true count
    _require(_finite(lambda: trotter.bounds(terms, t, min(cfg["rs"]),
                                            terms_n * (terms_n - 1) // 2)),
             "t, rs", "must keep every Trotter bound finite")
    rows = []
    for rep in trotter.error_sweep(terms, t, cfg["rs"]):
        # roundoff of product_formulas: a step multiplies L rounded 2^n x 2^n
        # factors, so it is off by about L * 2^n * eps in norm (eps = 2^-52);
        # for contractions ||A^r - B^r|| <= r ||A - B||, so V is off r times that
        roundoff = rep.r * terms_n * 2 ** n * 2.0 ** -52
        _check(rep.measured_error <= rep.bound_full + roundoff, "trotter-bound",
               lambda: f"r={rep.r}: measured {rep.measured_error:.6e} "
               f"> bound_full {rep.bound_full:.6e} + roundoff {roundoff:.6e}")
        rows.append([rep.r, rep.t, rep.measured_error, rep.bound_simple,
                     rep.bound_full, rep.bound_commutator, rep.omega])
    header = ["r", "t", "measured_error", "bound_simple", "bound_full",
              "bound_commutator", "omega"]
    return header, rows, [f"trotter-sweep: n={n}, L={terms_n}, t={t}, "
                          f"omega={rows[0][6]}, {len(rows)} r values, "
                          "measured error within bound_full everywhere"]


def _relative_entropy(a: float, b: float) -> float:
    """a ln(a/b) - a + b >= 0 for a, b in [0, 1] (0 ln 0 = 0).  Two terms with
    a1 + a2 = b1 + b2 = 1 sum to KL(a1 || b1) without cancelling each other's
    digits; near a = b, a - b is exact (Sterbenz) and the log is log1p."""
    if not b:
        return math.inf if a else 0.0
    if 2.0 * a <= b:
        return (a * math.log(a / b) if a else 0.0) - (a - b)
    d = a - b
    return a * math.log1p(d / b) - d


def _cmd_swap_test(cfg):
    n = cfg["n"]
    _require(len(cfg["shots"]) >= 1 and all(1 <= s < 2 ** 63 for s in cfg["shots"]),
             "shots", "need at least one shot count, all in 1..2^63-1")
    row_seeds = _derived_seeds(cfg, 1, len(cfg["shots"]))
    rng = np.random.default_rng(cfg["seed"])
    psi = simulator.random_state(n, rng)
    phi = simulator.random_state(n, rng)
    overlap = abs(simulator.inner(psi, phi))
    p0 = (1.0 + overlap ** 2) / 2.0
    # the ancilla route never calls inner, so this also reads exact_overlap
    p_protocol = simulator.swap_test_circuit_probability(psi, phi)
    _check(abs(p0 - p_protocol) <= simulator.STATE_TOL, "swap-agreement",  # NaN fails
           lambda: f"formula {p0!r} vs protocol {p_protocol!r}")
    rows = []
    for shots, row_seed in zip(cfg["shots"], row_seeds):
        tally, estimate = simulator.swap_test_sampled(psi, phi, shots, row_seed)
        inverted = math.sqrt(max(2.0 * tally.zero_count / shots - 1.0, 0.0))
        _check(estimate == inverted, "swap-estimate",
               lambda: f"shots={shots}: estimate {estimate!r} != sqrt(max(2 zeros/shots - 1, 0)) "
               f"= {inverted!r}")
        # Chernoff-Hoeffding in KL form (Hoeffding 1963): the frequency q of
        # ancilla zeros has Pr[shots * KL(q || p0) > 32] <= 2e^-32, and in the
        # Gaussian limit the check is |q - p0| <= 8 sigma
        q = tally.zero_count / shots
        excess = shots * (_relative_entropy(q, p0) + _relative_entropy(
            (shots - tally.zero_count) / shots, 1.0 - p0))
        _check(excess <= 32.0, "swap-concentration",
               lambda: f"shots={shots}: shots * KL(zeros/shots || p0) = {excess:.6e} > 32 "
               f"(zeros/shots = {q:.6e}, p0 = {p0:.6e})")
        rows.append([tally.shots, tally.seed, tally.zero_count, estimate, overlap])
    header = ["shots", "seed", "zero_count", "estimate", "exact_overlap"]
    return header, rows, [f"swap-test: n={n}, exact overlap {overlap:.6f}, "
                          f"{len(rows)} shot counts, estimates concentrated"]


def _cmd_train_cqp(cfg):
    n = cfg["n"]
    _require(math.isfinite(cfg["beta"]), "beta", "must be finite")
    _require(0 < cfg["eta"] < math.inf, "eta", "must be finite and > 0")
    _require(0 < cfg["fd_step"] < cqp.FD_STEP_MAX, "fd_step",
             f"must be in (0, {cqp.FD_STEP_MAX})")
    _require(1 <= cfg["iterations"] <= 20000, "iterations", "must be in 1..20000")
    # theta0 lies in [0, 0.5) and fidelities in [0, 1], so one step moves a
    # weight by at most eta / (2 fd_step)
    weight_bound = 0.5 + cfg["iterations"] * cfg["eta"] / (2.0 * cfg["fd_step"])
    _require(math.isfinite(math.sqrt(2 * n) * weight_bound), "eta, fd_step",
             "eta / fd_step too large: the weight bound overflows")
    _require(0 <= cfg["output_index"] < 2 * n, "output_index",
             f"must be in 0..{2 * n - 1}")
    _require(0 <= cfg["require_fidelity"] <= 1, "require_fidelity", "must be in [0, 1]")
    _require(cfg["activation"] == "tanh", "activation",
             "must be tanh: identity reaches |v| = 1, where the slope of arccos is "
             "unbounded, so train-monotone cannot hold")
    best = cqp.max_fidelity(cfg["beta"])
    _require(cfg["require_fidelity"] <= best + cqp.MAX_FIDELITY_SLACK, "require_fidelity",
             f"{cfg['require_fidelity']!r} exceeds F*(beta) = {best!r}, the largest "
             f"fidelity any weights reach at beta = {cfg['beta']!r}")
    config = cqp.PerceptronConfig.type_ii(n, cfg["output_index"], eta=cfg["eta"])
    rng = np.random.default_rng(cfg["seed"])
    x_coeffs = rng.uniform(0.1, 0.6, 2 * n)
    theta0 = rng.uniform(0.0, 0.5, 2 * n)
    sample = cqp.TrainingSample(x_coeffs, cfg["beta"])
    try:
        thetas, fids = cqp.ascent(config, sample, theta0, cfg["iterations"], cfg["fd_step"])
    except ValueError as exc:  # a guard on ascent's inputs exits 3; a failed check of
        # a value it computed is a linalg.InvariantError, which main reports
        raise ConfigError(str(exc)) from None
    # one pass checks each fidelity and builds its row from ascent's lists of
    # floats; a detail is built only for the first iteration that fails
    ceiling, rows, prev = best + cqp.MAX_FIDELITY_SLACK, [], fids[0]
    for k, theta, f in zip(itertools.count(), thetas, fids):
        if not f <= ceiling:
            raise CheckFailure("train-fidelity-bound", f"iteration {k}: fidelity {f!r} "
                               f"exceeds F*(beta) = {best!r}")
        if not f >= prev - 1e-12:
            raise CheckFailure("train-monotone", f"iteration {k}: fidelity fell "
                               f"{prev!r} -> {f!r}")
        rows.append([k, f, *theta])
        prev = f
    final = prev
    _check(final >= cfg["require_fidelity"], "train-converged",
           lambda: f"final fidelity {final:.6f} < {cfg['require_fidelity']}")
    header = ["iteration", "fidelity"] + [f"theta_{j}" for j in range(2 * n)]
    return header, rows, [f"train-cqp: n={n}, {cfg['iterations']} iterations, "
                          f"fidelity {fids[0]:.6f} -> {final:.6f}, "
                          f"F* {best:.6f}, F* - final {best - final:.3e}"]


# trials per stacked equivalence pass: the default 50 trials are one block,
# and memory does not grow with --trials
_EQUIVALENCE_BLOCK = 64


def _equivalence_blocks(n: int, seeds: range):
    """Per block of at most _EQUIVALENCE_BLOCK seeds: (the block's seeds, its
    unitaries u (k, d, d) from one expm_i call, its x and w coefficient rows
    (k, 2n)).  Each seed's generator draws as the one-trial route does: the
    Hermitian of linalg.random_unitary, then x, then w, so u[i] has the bits
    of random_unitary(d, np.random.default_rng(seed))."""
    d, m = 2 ** n, 2 * n
    for start in range(0, len(seeds), _EQUIVALENCE_BLOCK):
        block = seeds[start:start + _EQUIVALENCE_BLOCK]
        rngs = [np.random.default_rng(seed) for seed in block]
        us = linalg.expm_i(np.stack([linalg.random_hermitian(d, rng) for rng in rngs]))
        xs = np.array([rng.uniform(-1.0, 1.0, m) for rng in rngs])
        ws = np.array([rng.uniform(-1.0, 1.0, m) for rng in rngs])
        yield block, us, xs, ws


def _cmd_equivalence(cfg):
    n = cfg["n"]
    _require(cfg["trials"] >= 1, "trials", "must be >= 1")
    config = cqp.PerceptronConfig.type_ii(n)
    rows = []
    for block, us, xs, ws in _equivalence_blocks(n, _derived_seeds(cfg, 0, cfg["trials"])):
        phi_defects, state_defects = cqp.equivalence_defects(config, us, xs, ws)
        # checked in seed order, so the first failing seed is the one named
        for seed, phi_defect, state_defect in zip(block, phi_defects.tolist(),
                                                  state_defects.tolist()):
            _check(phi_defect <= 1e-10 and state_defect <= 1e-10, "equivalence-defect",
                   lambda: f"seed={seed}: phi defect {phi_defect:.3e}, "
                   f"state defect {state_defect:.3e}")
            rows.append([seed, n, phi_defect, state_defect])
    header = ["seed", "n", "phi_defect", "state_defect"]
    return header, rows, [f"equivalence: {len(rows)} trials, "
                          f"max defect {max(max(r[2:]) for r in rows):.3e}"]


def _cmd_decompose(cfg):
    theta1, theta2 = cfg["theta1"], cfg["theta2"]
    # the generator's entries are sums of the two angles
    _require(math.isfinite(abs(theta1) + abs(theta2)), "theta1, theta2",
             "|theta1| + |theta2| must be finite")
    factors, circuit, recon, compiled = circuits.decompose_report(theta1, theta2)
    _check(recon <= 1e-9, "decompose-reconstruction", lambda: f"defect {recon:.3e}")
    _check(compiled <= 1e-9, "decompose-compilation", lambda: f"defect {compiled:.3e}")
    lines = [f"# two-level factors ({len(factors)})"]
    lines += circuits.format_two_level(factors)
    lines.append(f"# compiled circuit ({len(circuit.gates)} gates)")
    lines += circuits.format_circuit(circuit)
    return None, lines, [f"decompose: theta1={theta1:.6f}, theta2={theta2:.6f}, "
                         f"{len(factors)} factors, {len(circuit.gates)} gates, "
                         f"reconstruction {recon:.3e}, compiled {compiled:.3e}"]


_HANDLERS = {
    "verify-basis": _cmd_verify_basis,
    "omega-count": _cmd_omega_count,
    "verify-gqft": _cmd_verify_gqft,
    "gqft-distance": _cmd_gqft_distance,
    "trotter-sweep": _cmd_trotter_sweep,
    "swap-test": _cmd_swap_test,
    "train-cqp": _cmd_train_cqp,
    "equivalence": _cmd_equivalence,
    "decompose": _cmd_decompose,
}


_COMMON_FLAGS = {  # every command's flags besides its config keys, with their help
    "config": "key = value config file",
    "out": "output report path",
    "seed": "64-bit RNG seed",
}
# each command's flags, spelled in full, and their dests: the subparser's options
_FLAG_DESTS = {command: {f"--{key.replace('_', '-')}": key
                         for key in itertools.chain(_COMMON_FLAGS, keys)}
               for command, keys in _COMMAND_KEYS.items()}
_VALUE_FLAGS = frozenset(itertools.chain.from_iterable(_FLAG_DESTS.values()))


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _names_value_flag(token: str) -> bool:
    """Whether token is a value flag or a prefix of one (an abbreviation,
    which argparse resolves, or reports as ambiguous); "--" alone is not."""
    return (token.startswith("--") and len(token) > 2
            and any(flag.startswith(token) for flag in _VALUE_FLAGS))


def _join_float_values(argv: list[str]) -> list[str]:
    """argv with each value flag, spelled in full or abbreviated, and a
    following token that parses as a float, or as a comma list of them (split
    as _coerce splits), joined into --flag=value.  argparse takes a token that
    starts with '-' for a flag unless it looks like -1 or -.5, so it would
    leave --beta -1e-3, --bet -1e-3 or --thetas -1,2 without a value."""
    joined: list[str] = []
    for token in argv:
        if (token.startswith("-") and joined and _names_value_flag(joined[-1])
                and all(_is_float(p) for p in token.split(",") if p.strip())):
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    return joined


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level argument parser and each command's subparser of it, built
    on first use and reused by every main() call.

    Each parse returns a fresh namespace whose flags default to None, so no
    value carries over from one call to the next.  argparse is imported here,
    not with the module: an argv the flag table reads never needs it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="cliffsim",
        description="Clifford-algebra quantum network verification tools")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, flags in _FLAG_DESTS.items():
        p = sub.add_parser(command)
        for flag, dest in flags.items():
            p.add_argument(flag, dest=dest, default=None, help=_COMMON_FLAGS.get(dest))
    return parser, sub.choices


def _table_parse(command: str, rest: list[str]) -> SimpleNamespace | None:
    """The namespace command's subparser gives rest, when every token of rest
    is --flag value or --flag=value with the flag spelled in full and a value
    that is not empty and does not start with '-'; else None."""
    dests = _FLAG_DESTS[command]
    values = dict.fromkeys(dests.values())
    tokens = iter(rest)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, "")
        if flag not in dests or value[:1] in ("", "-"):
            return None
        values[dests[flag]] = value
    return SimpleNamespace(command=command, **values)


def _parse(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """argv's namespace, from the flag table, else argv[0]'s subparser when
    argv[0] names a command, else from the top-level parser (see the module
    docstring); SystemExit as argparse raises it."""
    if argv and argv[0] in _FLAG_DESTS:
        args = _table_parse(argv[0], argv[1:])
        if args is None:
            args = _build_parser()[1][argv[0]].parse_args(_join_float_values(argv[1:]))
            args.command = argv[0]
        return args
    return _build_parser()[0].parse_args(_join_float_values(argv))


def _write_report(path: Path, header, payload, meta: list[str]) -> None:
    """Write the report as os.fsencode bytes: an argv token that is not valid
    in the filesystem encoding gets its own bytes back, where write_text raises."""
    lines = []
    if header is not None:
        lines.append(",".join(header))
        # one % per run of rows with the same cell types, the bytes of one per row;
        # (*chain,) and not tuple(chain), for the free lists (see _cell_types)
        for kinds, run in itertools.groupby(payload, _cell_types):
            run = list(run)
            lines.append("\n".join([_row_template(kinds)] * len(run))
                         % (*itertools.chain.from_iterable(run),))
    else:
        lines += payload
    lines += [f"# {m}" for m in meta]
    path.write_bytes(os.fsencode("\n".join(lines) + "\n"))


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args.command, args)
        header, payload, summary = _HANDLERS[args.command](cfg)
    except ConfigError as exc:
        print(f"ERROR invalid config: {exc}", file=sys.stderr)
        return 3
    except CheckFailure as exc:
        print(f"FAIL {exc.name} ({exc.detail})")
        return 1
    except linalg.InvariantError as exc:
        print(f"FAIL invariant ({exc})")
        return 1
    suffix = ".csv" if header is not None else ".txt"
    out = Path(args.out) if args.out is not None else Path(f"{args.command}{suffix}")
    # out as printable text: an undecodable byte shows as \xNN, whatever stdout's error handler
    shown = os.fsencode(out).decode(sys.getfilesystemencoding(), "backslashreplace")
    meta = [f"seed = {cfg['seed']}",
            f"version = {__version__}",
            f"command = cliffsim {' '.join(argv)}"]
    try:
        _write_report(out, header, payload, meta)
    except OSError as exc:
        print(f"ERROR invalid config: cannot write report {shown}: {exc}", file=sys.stderr)
        return 3
    for line in summary:
        print(line)
    print(f"OK wrote {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
