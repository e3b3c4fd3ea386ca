"""Span tracer installed from outside the program.

``Tracer.install`` wraps every public function of the layer modules, and
every public plain method of the classes they define, then rebinds each
wrapped function in every loaded ``cliffsim`` module that holds it under
any name (``cqp`` and ``gqft`` import ``basis_state`` by name, the package
root re-exports several).  ``uninstall`` puts every original back.

Each call records one span: function, parent span, start, end, job and
whether it raised.  Spans stay in memory (flat arrays, about 40 bytes each)
until the caller aggregates them; a span's self time is its duration
minus the durations of its direct children, and minus the time the tracer
spent inside it keying eigensolver inputs.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "cliffsim"
LAYERS = ("linalg", "clifford", "simulator", "cqp", "trotter", "gqft", "circuits", "cli")
EIGEN = "linalg.hermitian_eigen"


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # function id -> "layer.qualname"
        self.fn_id: dict[str, int] = {}
        self.fn: array = array("i")         # per span: function id
        self.parent: array = array("q")     # per span: parent span, -1 at top level
        self.start: array = array("d")
        self.end: array = array("d")
        self.raised: array = array("b")
        self.job: array = array("q")
        self.eigen_inputs: dict[int, tuple[int, bool]] = {}  # span -> (d, repeated in job)
        self.hidden: dict[int, float] = {}  # span -> tracer time spent inside it
        self._stack: list[int] = []
        self._job = -1
        self._seen: set[bytes] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(owner, attribute, qualified name) for every function to wrap."""
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield mod, name, f"{layer}.{name}"
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            yield obj, attr, f"{layer}.{name}.{attr}"

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for owner, attr, qualname in list(self._targets()):
            original = vars(owner)[attr]
            wrapper = self._wrap(original, qualname)
            self._rebind(owner, attr, original, wrapper)
            if inspect.ismodule(owner):
                wrapped[id(original)] = (original, wrapper)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                pair = wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    self._rebind(mod, attr, value, pair[1])

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def begin_job(self, job: int) -> None:
        self._job = job
        self._seen = set()

    def _wrap(self, fn, qualname: str):
        fid = self.fn_id.setdefault(qualname, len(self.names))
        if fid == len(self.names):
            self.names.append(qualname)
        observe_eigen = qualname == EIGEN
        stack, fn_ids, parent, start, end, raised, job, hidden = (
            self._stack, self.fn, self.parent, self.start, self.end, self.raised, self.job,
            self.hidden)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(fn_ids)
            if observe_eigen:
                t0 = perf_counter()
                self._observe_eigen(sid, args[0] if args else kwargs["h"])
                if stack:  # the caller's span must not count the keying as its own time
                    hidden[stack[-1]] = hidden.get(stack[-1], 0.0) + perf_counter() - t0
            fn_ids.append(fid)
            parent.append(stack[-1] if stack else -1)
            job.append(self._job)
            raised.append(0)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                end[sid] = perf_counter()
                stack.pop()

        return wrapper

    def _observe_eigen(self, sid: int, h) -> None:
        m = np.ascontiguousarray(h, dtype=complex)
        key = m.tobytes() + repr(m.shape).encode()
        repeated = key in self._seen
        self._seen.add(key)
        self.eigen_inputs[sid] = (m.shape[0] if m.ndim == 2 else 0, repeated)

    # -- aggregation --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.fn)

    def summarize(self, lo: int, hi: int) -> dict[str, dict]:
        """Per-function calls, self seconds and errors over spans [lo, hi)."""
        child = [self.hidden.get(sid, 0.0) for sid in range(lo, hi)]
        for sid in range(lo, hi):
            p = self.parent[sid]
            if p >= lo:
                child[p - lo] += self.end[sid] - self.start[sid]
        calls, self_s, errors = Counter(), Counter(), Counter()
        for sid in range(lo, hi):
            name = self.names[self.fn[sid]]
            calls[name] += 1
            self_s[name] += self.end[sid] - self.start[sid] - child[sid - lo]
            errors[name] += self.raised[sid]
        return {name: {"calls": calls[name], "self_s": self_s[name], "errors": errors[name]}
                for name in calls}

    def eigen_summary(self, lo: int, hi: int) -> dict[str, float]:
        inputs = [v for sid, v in self.eigen_inputs.items() if lo <= sid < hi]
        dims = Counter(d for d, _ in inputs)
        out = {f"calls_d{d}": dims[d] for d in (2, 4, 8, 16, 64)}
        out["repeat_frac"] = (sum(r for _, r in inputs) / len(inputs)) if inputs else 0.0
        return out
