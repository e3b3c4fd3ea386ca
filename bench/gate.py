"""Per-job correctness gate.

A job passes when cliffsim exited 0, wrote a complete report, the report's
own claims hold when re-checked here from the report text alone, and (for
jobs that have stored reference rows) its data rows match the reference:
tokens that are not numbers must be equal, numbers must agree within
``ATOL``.  Integer cells differ by at least 1 when they differ at all, so
they must match exactly; float cells may move by an eigensolver-sized
amount in their last digits.
"""
from __future__ import annotations

import math
import re

import numpy as np

# Reference tolerance for float cells.  Replacing the Jacobi eigensolver by
# LAPACK's eigh moves train-cqp cells by up to 1.4e-10 after 60
# finite-difference steps, and every other float by under 1e-13.
ATOL = 1e-8

TROTTER_RS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)  # CLI default --rs
SWAP_SHOTS = (1000, 10000, 100000)                        # CLI default --shots

METADATA = ("# seed = ", "# version = ", "# command = ")


class GateFailure(Exception):
    pass


def _fail(cond: bool, detail: str) -> None:
    if not cond:
        raise GateFailure(detail)


def _options(argv) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _columns(command: str, opts: dict[str, str]) -> list[tuple[str, type]]:
    if command == "verify-basis":
        return [("n", int), ("blade_count", int), ("max_hermiticity_defect", float),
                ("max_generator_relation_defect", float), ("gram_rank", int)]
    if command == "omega-count":
        return [("n", int), ("omega_parity_rule", int), ("omega_bruteforce", int)]
    if command == "verify-gqft":
        return [("theta", float), ("n", int), ("seed", int),
                ("unitarity_defect", float), ("factorization_error", float)]
    if command == "gqft-distance":
        return [("theta", float), ("n", int), ("seed", int),
                ("distance", float), ("bound", float)]
    if command == "trotter-sweep":
        return [("r", int), ("t", float), ("measured_error", float),
                ("bound_simple", float), ("bound_full", float),
                ("bound_commutator", float), ("omega", int)]
    if command == "swap-test":
        return [("shots", int), ("seed", int), ("zero_count", int),
                ("estimate", float), ("exact_overlap", float)]
    if command == "train-cqp":
        n = int(opts["n"])
        return ([("iteration", int), ("fidelity", float)]
                + [(f"theta_{j}", float) for j in range(2 * n)])
    if command == "equivalence":
        return [("seed", int), ("n", int), ("phi_defect", float), ("state_defect", float)]
    raise GateFailure(f"no report schema for command {command!r}")


def _parse_csv(text: str, columns) -> list[dict]:
    data = [line for line in text.splitlines() if not line.startswith("#")]
    _fail(bool(data), "report is empty")
    names = [name for name, _ in columns]
    _fail(data[0].split(",") == names, f"header {data[0]!r} != {','.join(names)!r}")
    rows = []
    for lineno, line in enumerate(data[1:], start=2):
        cells = line.split(",")
        _fail(len(cells) == len(columns), f"line {lineno}: {len(cells)} cells, want {len(columns)}")
        row = {}
        for (name, kind), cell in zip(columns, cells):
            try:
                row[name] = kind(cell)
            except ValueError:
                raise GateFailure(f"line {lineno}: {name}={cell!r} is not {kind.__name__}") from None
            _fail(math.isfinite(row[name]), f"line {lineno}: {name}={cell!r} is not finite")
        rows.append(row)
    return rows


def _gqft_grid(rows, opts) -> None:
    thetas = [float(t) for t in opts["thetas"].split(",")]
    trials, seed, n = int(opts["trials"]), int(opts["seed"]), int(opts["n"])
    want = [(t, n, seed + i) for t in thetas for i in range(trials)]
    got = [(r["theta"], r["n"], r["seed"]) for r in rows]
    _fail(got == want, f"(theta, n, seed) rows {got} != {want}")


def _check_rows(command: str, opts: dict[str, str], rows: list[dict]) -> None:
    seed = int(opts["seed"])
    if command == "verify-basis":
        n = int(opts["n"])
        _fail(len(rows) == 1, f"{len(rows)} rows, want 1")
        r = rows[0]
        _fail(r["n"] == n and r["blade_count"] == 4 ** n, f"n/blade_count {r}")
        _fail(r["gram_rank"] == 4 ** n, f"gram_rank {r['gram_rank']} != {4 ** n}")
        _fail(r["max_hermiticity_defect"] <= 1e-12, "basis-hermiticity exceeds 1e-12")
        _fail(r["max_generator_relation_defect"] <= 1e-12, "generator-relations exceeds 1e-12")
    elif command == "omega-count":
        _fail(len(rows) == 1 and rows[0]["n"] == int(opts["n"]), f"rows {rows}")
        r = rows[0]
        _fail(r["omega_parity_rule"] == r["omega_bruteforce"], f"omega disagreement {r}")
    elif command == "verify-gqft":
        _gqft_grid(rows, opts)
        for r in rows:
            _fail(r["unitarity_defect"] <= 1e-10, f"unitarity defect {r}")
            _fail(r["factorization_error"] <= 1e-10, f"factorization error {r}")
    elif command == "gqft-distance":
        _gqft_grid(rows, opts)
        for r in rows:
            n, theta = r["n"], r["theta"]
            bound = 2.0 ** (1.5 * n) * theta * n * math.sqrt(2.0) * math.exp(theta * n * math.sqrt(2.0))
            _fail(math.isclose(r["bound"], bound, rel_tol=1e-12, abs_tol=1e-300),
                  f"bound {r['bound']!r} != envelope {bound!r}")
            _fail(0.0 <= r["distance"] <= r["bound"], f"distance above bound {r}")
    elif command == "trotter-sweep":
        n, terms = int(opts["n"]), int(opts["terms"])
        _fail([r["r"] for r in rows] == list(TROTTER_RS), "r grid differs from the default")
        omegas = {r["omega"] for r in rows}
        _fail(len(omegas) == 1, f"omega varies across rows: {omegas}")
        if terms == 4 ** n - 1:
            # every non-identity Pauli word anticommutes with half of all 4^n words
            want = terms * 4 ** n // 4
            _fail(omegas == {want}, f"omega {omegas} != {want} for the full basis")
        for r in rows:
            _fail(r["t"] == 1.0, f"t {r['t']} != 1")
            _fail(r["measured_error"] <= r["bound_full"], f"trotter-bound fails at r={r['r']}")
            _fail(r["bound_simple"] <= r["bound_full"], f"bound_simple > bound_full at r={r['r']}")
    elif command == "swap-test":
        _fail([r["shots"] for r in rows] == list(SWAP_SHOTS), "shot grid differs from the default")
        overlap = rows[0]["exact_overlap"]
        _fail(0.0 <= overlap <= 1.0 + 1e-12, f"overlap {overlap} outside [0, 1]")
        p0 = (1.0 + overlap ** 2) / 2.0
        for idx, r in enumerate(rows):
            shots, zeros = r["shots"], r["zero_count"]
            _fail(r["seed"] == seed + 1 + idx, f"row seed {r['seed']} != {seed + 1 + idx}")
            _fail(r["exact_overlap"] == overlap, "exact_overlap differs between rows")
            _fail(0 <= zeros <= shots, f"zero_count {zeros} outside 0..{shots}")
            est = math.sqrt(max(2.0 * zeros / shots - 1.0, 0.0))
            _fail(abs(r["estimate"] - est) <= 1e-12, f"estimate {r['estimate']} != {est}")
            spread = 8.0 * math.sqrt(p0 * (1.0 - p0) / shots) + 1e-12
            _fail(abs(est ** 2 - overlap ** 2) <= spread, f"swap-concentration fails at {shots} shots")
    elif command == "train-cqp":
        iterations = int(opts["iterations"])
        _fail([r["iteration"] for r in rows] == list(range(iterations + 1)),
              f"iterations column is not 0..{iterations}")
        fids = [r["fidelity"] for r in rows]
        _fail(all(0.0 <= f <= 1.0 for f in fids), "fidelity outside [0, 1]")
        for k in range(1, len(fids)):
            _fail(fids[k] >= fids[k - 1] - 1e-12, f"train-monotone fails at iteration {k}")
        _fail(fids[-1] >= float(opts["require-fidelity"]), f"final fidelity {fids[-1]} too low")
    elif command == "equivalence":
        n, trials = int(opts["n"]), int(opts["trials"])
        _fail([(r["seed"], r["n"]) for r in rows] == [(seed + i, n) for i in range(trials)],
              "seed/n columns differ from the requested trials")
        for r in rows:
            _fail(r["phi_defect"] <= 1e-10 and r["state_defect"] <= 1e-10,
                  f"equivalence-defect fails at seed {r['seed']}")


def _xy_yx(theta1: float, theta2: float) -> np.ndarray:
    # X(x)Y and Y(x)X commute and square to I, so the exponential factors
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    eye = np.eye(4, dtype=complex)
    xy, yx = np.kron(x, y), np.kron(y, x)
    return ((math.cos(theta1) * eye + 1j * math.sin(theta1) * xy)
            @ (math.cos(theta2) * eye + 1j * math.sin(theta2) * yx))


def _block(tokens) -> np.ndarray:
    _fail(len(tokens) == 5 and tokens[0] == "block", f"bad block {' '.join(tokens)!r}")
    try:
        m = np.array([complex(t) for t in tokens[1:]]).reshape(2, 2)
    except ValueError:
        raise GateFailure(f"bad block entries {tokens[1:]}") from None
    _fail(np.abs(m @ m.conj().T - np.eye(2)).max() <= 1e-9, "block is not unitary")
    return m


_FACTOR = re.compile(r"twolevel dim=4 i=(\d) j=(\d) (block .*)$")
_GATE = re.compile(r"(cx|cu) target=(\d) controls=(\S+) (block .*)$")
_SECTION = re.compile(r"# (two-level factors|compiled circuit) \((\d+)( gates)?\)$")


def _check_decompose(opts: dict[str, str], text: str) -> None:
    lines = [line for line in text.splitlines() if not line.startswith(METADATA)]
    _fail(len(lines) >= 2, "netlist is truncated")
    sections: dict[str, list[str]] = {}
    current = None
    for line in lines:
        m = _SECTION.match(line)
        if m:
            current = m.group(1)
            sections[current] = [m.group(2)]
        else:
            _fail(current is not None, f"line outside a section: {line!r}")
            sections[current].append(line)
    _fail(set(sections) == {"two-level factors", "compiled circuit"}, f"sections {list(sections)}")
    for name, body in sections.items():
        _fail(int(body[0]) == len(body) - 1, f"{name}: header says {body[0]}, has {len(body) - 1}")
    u = _xy_yx(float(opts["theta1"]), float(opts["theta2"]))

    product = np.eye(4, dtype=complex)
    for line in sections["two-level factors"][1:]:
        m = _FACTOR.match(line)
        _fail(m is not None, f"bad factor line {line!r}")
        i, j = int(m.group(1)), int(m.group(2))
        _fail(0 <= i < j < 4, f"bad factor indices {i}, {j}")
        embed = np.eye(4, dtype=complex)
        embed[np.ix_([i, j], [i, j])] = _block(m.group(3).split())
        product = product @ embed
    _fail(np.linalg.norm(product - u) <= 1e-9, "two-level factors do not reconstruct U")

    circuit = np.eye(4, dtype=complex)
    for line in sections["compiled circuit"][1:]:
        m = _GATE.match(line)
        _fail(m is not None, f"bad gate line {line!r}")
        target = int(m.group(2))
        controls = [] if m.group(3) == "-" else [
            tuple(int(v) for v in c.split(":")) for c in m.group(3).split(",")]
        block = _block(m.group(4).split())
        t_mask = 1 << (2 - target)
        gate = np.eye(4, dtype=complex)
        for base in range(4):
            if not base & t_mask and all(((base >> (2 - q)) & 1) == p for q, p in controls):
                idx = [base, base | t_mask]
                gate[np.ix_(idx, idx)] = block
        circuit = gate @ circuit
    _fail(np.linalg.norm(circuit - u) <= 1e-9, "compiled circuit does not reproduce U")


def _tokens(text: str) -> list[list[str]]:
    return [re.split(r"[,\s]+", line) for line in text.splitlines()
            if not line.startswith(METADATA)]


def _compare(text: str, reference: str) -> None:
    got, want = _tokens(text), _tokens(reference)
    _fail(len(got) == len(want), f"{len(got)} lines, reference has {len(want)}")
    for lineno, (g_line, w_line) in enumerate(zip(got, want), start=1):
        _fail(len(g_line) == len(w_line), f"line {lineno}: token count differs from reference")
        for g, w in zip(g_line, w_line):
            if g == w:
                continue
            try:
                close = abs(complex(g) - complex(w)) <= ATOL
            except ValueError:
                close = False
            _fail(close, f"line {lineno}: {g!r} != reference {w!r}")


def check_job(argv, exit_code: int, stdout: str, text: str | None,
              reference: str | None = None) -> None:
    """Raise GateFailure unless the job's run and report pass every check."""
    command, opts = argv[0], _options(argv)
    _fail(exit_code == 0, f"exit code {exit_code}: {stdout.strip()[-200:]!r}")
    _fail(stdout.splitlines()[-1:] == [f"OK wrote {opts['out']}"], "no 'OK wrote' line")
    _fail(text is not None, "report missing")
    _fail(f"# seed = {opts['seed']}" in text.splitlines(), "seed metadata missing")
    if command == "decompose":
        _check_decompose(opts, text)
    else:
        _check_rows(command, opts, _parse_csv(text, _columns(command, opts)))
    if reference is not None:
        _compare(text, reference)
