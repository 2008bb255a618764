"""Layer tracer for the benchmark, attached to ``contactsde`` from outside.

``Tracer.install()`` replaces the public entry points of every package
module with timing wrappers and ``Tracer.uninstall()`` puts the originals
back.  A function imported by name into another module (``cli`` imports
``integrate_augmented``; ``verification`` imports ``integrate``,
``integrate_augmented``, ``integrate_batch_final`` and ``coarsen``) is
replaced in every namespace that holds it.

Every wrapped call keeps the time its wrapped children took, so a layer's
self time is its calls' duration minus that of the wrapped calls they made.
Coarse calls (CLI commands, catalog builds, verification and flow drivers)
are kept as spans ``(id, parent_id, name, start, end)``; fine calls (vector
fields, guards, tapes, tree evaluations) are too many to keep one by one and
are summed per name and per enclosing span.  Everything stays in memory
until ``spans_document`` is written out at the end of the run.
"""
from __future__ import annotations

import time

import contactsde
from contactsde import catalog, cli, expr, flow, geometry, verification

_MODULES = (contactsde, expr, geometry, flow, verification, catalog, cli)

# Traced entry points as (owner, attribute): calls of the first list are kept
# as spans, calls of the second are summed under their enclosing span.
_SPAN_FUNCTIONS = [
    (cli, "main"),
    (catalog.CatalogEntry, "system"),
    (flow, "sample_brownian"),
    (flow, "coarsen"),
    (flow, "integrate"),
    (flow, "integrate_augmented"),
    (flow, "integrate_batch_final"),
    (verification, "contact_defect"),
    (verification, "conformal_factor_check"),
    (verification, "finite_difference_jacobian"),
    (verification, "convergence_study"),
    (verification, "defect_convergence"),
    (verification, "monte_carlo"),
    (geometry, "check_integrability"),
    (geometry, "sample_states"),
]
_FINE_FUNCTIONS = [
    (expr, "parse"),
    (expr, "compile_tape"),
    (expr, "evaluate"),
    (geometry, "jacobi_bracket"),
    (geometry, "jacobi_bracket_expr"),
    (geometry, "reeb_derivative"),
    (geometry.HamiltonianSystem, "hamiltonian"),
    (geometry.HamiltonianSystem, "gradient"),
    (geometry.HamiltonianSystem, "vector_field"),
    (geometry.HamiltonianSystem, "vector_field_jacobian"),
    (geometry.HamiltonianSystem, "reeb_rate"),
    (geometry.HamiltonianSystem, "diffusion_matrix"),
    (geometry.HamiltonianSystem, "drift_diffusion"),
    (geometry.HamiltonianSystem, "drift_batch"),
    (geometry.HamiltonianSystem, "diffusion_batch"),
    (geometry.HamiltonianSystem, "prepare"),
    (geometry.DarbouxChart, "guard"),
    (geometry.DarbouxChart, "guard_batch"),
    (geometry.SasakiEinsteinChart, "guard"),
    (geometry.SasakiEinsteinChart, "guard_batch"),
]
TAPE_CALL = "expr.EvalTape.__call__"


def _qualified(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Deterministic counters read from the arguments of a few entry points.
def _count_drift(counters, args, kwargs):
    if _arg(args, kwargs, 1, "i") == 0:
        counters["drift_evals"] += 1


def _count_batch_drift(counters, args, kwargs):
    counters["drift_evals"] += 1


def _count_state_steps(counters, args, kwargs):
    counters["state_steps"] += _arg(args, kwargs, 2, "path").n_steps


def _count_augmented_steps(counters, args, kwargs):
    counters["augmented_steps"] += _arg(args, kwargs, 2, "path").n_steps


def _count_batch_steps(counters, args, kwargs):
    counters["batch_steps"] += _arg(args, kwargs, 2, "increments").shape[2]


def _count_normals(counters, args, kwargs):
    counters["normals"] += _arg(args, kwargs, 0, "d") * _arg(args, kwargs, 1, "n_steps")


_HOOKS = {
    "geometry.HamiltonianSystem.vector_field": _count_drift,
    "geometry.HamiltonianSystem.drift_batch": _count_batch_drift,
    "flow.integrate": _count_state_steps,
    "flow.integrate_augmented": _count_augmented_steps,
    "flow.integrate_batch_final": _count_batch_steps,
    "flow.sample_brownian": _count_normals,
}


class Tracer:
    """Span and self-time recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans = []          # (id, parent_id, name, start, end), all traced ops
        self.fine = {}           # (enclosing span id, name) -> [calls, seconds]
        self._patches = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh per-operation tally; kept spans are not cleared."""
        self.calls = {}          # name -> [calls, total seconds, self seconds]
        self.counters = {
            "drift_evals": 0, "state_steps": 0, "augmented_steps": 0,
            "batch_steps": 0, "normals": 0,
        }
        self._child = [0.0]      # child-time accumulators of the open calls
        self._open_spans = [None]

    # -- spans opened by the benchmark itself --------------------------------

    def begin(self, name: str):
        """Open a span around code of the benchmark (one operation)."""
        span_id = len(self.spans)
        self.spans.append(None)
        self._open_spans.append(span_id)
        self._child.append(0.0)
        return span_id, name, time.perf_counter()

    def end(self, token) -> float:
        span_id, name, start = token
        stop = time.perf_counter()
        self._child.pop()
        self._open_spans.pop()
        self.spans[span_id] = (span_id, self._open_spans[-1], name, start, stop)
        return stop - start

    # -- wrappers --------------------------------------------------------------

    def _tally(self, name: str) -> list:
        return self.calls.setdefault(name, [0, 0.0, 0.0])

    def _wrap(self, name: str, fn, keep_span: bool):
        tracer = self
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(tracer.counters, args, kwargs)
            child = tracer._child
            open_spans = tracer._open_spans
            parent_span = open_spans[-1]
            if keep_span:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
                open_spans.append(span_id)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stop = clock()
                inner = child.pop()
                duration = stop - start
                child[-1] += duration
                tally = tracer.calls.get(name)
                if tally is None:
                    tally = tracer._tally(name)
                tally[0] += 1
                tally[1] += duration
                tally[2] += duration - inner
                if keep_span:
                    open_spans.pop()
                    tracer.spans[span_id] = (span_id, parent_span, name, start, stop)
                else:
                    per_span = tracer.fine.setdefault((parent_span, name), [0, 0.0])
                    per_span[0] += 1
                    per_span[1] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_tape(self, fn):
        # Leaf fast path: a tape calls nothing that is traced.
        tracer = self
        clock = time.perf_counter

        def tape_call(tape, values):
            start = clock()
            try:
                return fn(tape, values)
            finally:
                duration = clock() - start
                tracer._child[-1] += duration
                tally = tracer.calls.get(TAPE_CALL)
                if tally is None:
                    tally = tracer._tally(TAPE_CALL)
                tally[0] += 1
                tally[1] += duration
                tally[2] += duration
                per_span = tracer.fine.setdefault((tracer._open_spans[-1], TAPE_CALL), [0, 0.0])
                per_span[0] += 1
                per_span[1] += duration

        tape_call.__wrapped__ = fn
        return tape_call

    def _patch(self, owner, attr: str, replacement) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        for module in _MODULES:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr in _SPAN_FUNCTIONS:
            fn = getattr(owner, attr)
            self._patch(owner, attr, self._wrap(_qualified(owner, attr), fn, True))
        for owner, attr in _FINE_FUNCTIONS:
            fn = getattr(owner, attr)
            self._patch(owner, attr, self._wrap(_qualified(owner, attr), fn, False))
        self._patch(expr.EvalTape, "__call__", self._wrap_tape(expr.EvalTape.__call__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- read-out ----------------------------------------------------------------

    def self_seconds(self, *names: str) -> float:
        return sum((self.calls[n][2] for n in names if n in self.calls), 0.0)

    def total_seconds(self, *names: str) -> float:
        return sum((self.calls[n][1] for n in names if n in self.calls), 0.0)

    def count(self, *names: str) -> int:
        return sum(self.calls[n][0] for n in names if n in self.calls)

    def layer_self_seconds(self, layer: str) -> float:
        prefix = layer + "."
        return sum((t[2] for n, t in self.calls.items() if n.startswith(prefix)), 0.0)

    def spans_document(self) -> dict:
        return {
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
                for s in self.spans
            ],
            "fine_calls": [
                {"parent": parent, "name": name, "calls": c, "seconds": t}
                for (parent, name), (c, t) in self.fine.items()
            ],
        }
