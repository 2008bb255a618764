"""Contact charts, Hamiltonian vector fields, Jacobi brackets, and the
complete-integrability check.

Two coordinate models are provided.

Darboux chart (dimension 2n+1, coordinates ``q1..qn, p1..pn, z``)::

    eta  = dz - p dq          reeb = d/dz
    X_H  = H_p d/dq - (H_q + p H_z) d/dp + (p.H_p - H) d/dz

Sasaki-Einstein chart (dimension 5, coordinates
``theta1, theta2, phi1, phi2, psi``)::

    eta  = (d psi + cos(theta1) d phi1 + cos(theta2) d phi2) / 3
    reeb = 3 d/dpsi
    X_H  = sum_i 3/sin(theta_i) (H_phi_i - H_psi cos(theta_i)) d/dtheta_i
           - sum_i 3/sin(theta_i) H_theta_i d/dphi_i
           + 3 (H + sum_i cot(theta_i) H_theta_i) d/dpsi

Each chart states its contact structure once, as expressions over its
coordinates: the components of eta, the structural upper entries of d_eta
(``d_eta_upper_entries_exprs``) and its constant Reeb field.  A shared base
class compiles that statement and derives every other form from it: the
numeric ``eta``, ``d_eta``, ``d_eta_upper`` and ``reeb`` at a state or a
batch, through the module's one tape evaluator ``_eval``, and the symbolic
``reeb_derivative_expr``.  Each chart writes ``X_H`` out as above.

Each chart states its singular set once as well, as ``margin_exprs``:
``sin(theta1)`` and ``sin(theta2)`` on Sasaki-Einstein, none on Darboux.  A
state is on the chart when no margin's absolute value is below ``MARGIN``:
one method of the base class, ``_check_margins``, owns that rule, for a
state or a batch.  Every numeric query calls its tapes directly, and the
tape owns the domain rule of a batch.

The coordinate formulas above are normative.  Contracting them into the
defining relations gives ``eta(X_H) = sigma H`` with a chart-dependent sign
``sigma`` (Darboux: -1, Sasaki-Einstein: +1); ``check_intrinsic_relations``
reports residuals with respect to that convention and does not "fix" either
formula.

The systems that ``flow`` steps, the state and the state augmented with its
flow Jacobian J and log_lambda, are each one ``_Stage``, built once per
``HamiltonianSystem`` from the structure of its roots' expressions.
Constant zeros are skipped; one tape call computes the other roots and
the chart's margins, which the chart's margin rule judges.  Row r of the
diffusion is applied over its structural nonzeros only (the roots that are
not a constant 0.0 or -0.0), summed left to right in ascending channel
order, ``((g_r,k1 dw_k1 + g_r,k2 dw_k2) + ...)``, so the bits depend on no
matrix product's summation order.  Each stage generates that update once as
straight-line code, like a tape, for a single path (a list of Python
floats) and for numpy rows, and a single path's Heun steps as one
generated run.  A stage steps only the rows that move: a row whose value
no step can change is a constant of the stage, which its roots read as a
``expr.const``.  A batch steps through two more generated
forms, built on its first batch call: Heun's step and the midpoint image,
each one grouped text in which the tape's operations, an inline margin
test and the update are scheduled together, bound once to arrays the
caller owns and then only called.  Every form performs the operations of
the per-row update in the same order, but the tape's ``math`` and numpy
functions may round ``exp``, ``log`` and ``^`` apart in the last bit, so a
path alone can differ from the same path in a batch.  The augmented roots
per Hamiltonian are X_H, each entry of DX_H J summed left to right in
ascending c over the c where DX_H[a,c] is not a constant zero and J[c,b]
can leave zero when J starts from I, and -R(H), as expressions over x, J
and log_lambda.

Every Jacobi bracket comes from one formula, ``_bracket``, in the arithmetic
its caller passes: numbers for the numeric brackets, expressions for
``jacobi_bracket_expr``.  The numeric ones come from one engine,
``_brackets``, which compiles the jets ``(X_f..., f, R(f))`` of its
functions as one tape set, guards the states once, evaluates d_eta's entries
once and screens jets and brackets alike for non-finite values.  The
integrability check runs one SVD per distinct matrix of its integrals'
fields, keyed by the matrix's bits.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import reprlib
import weakref
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import expr
from .errors import (
    ConfigError, DomainError, NumericalFailure, SingularChartPoint, WrongIntegralCount,
)

__all__ = [
    "DarbouxChart", "SasakiEinsteinChart", "chart_by_id",
    "HamiltonianSystem", "contact_vector_field", "check_intrinsic_relations",
    "jacobi_bracket", "jacobi_bracket_expr", "reeb_derivative",
    "check_integrability", "IntegrabilityReport", "weak_leibniz_diagnostic",
    "sample_states", "contact_nondegeneracy",
]

MARGIN = 1e-9  # reject a state at which a chart margin's absolute value is below this
# ``_jet_keys``' odd multiplier (2**64 over the golden ratio) and fold shift.
_KEY_MULTIPLIER, _KEY_SHIFT = np.uint64(0x9E3779B97F4A7C15), np.uint64(32)


def _is_zero(e) -> bool:
    """A constant zero, 0.0 or -0.0: a structural zero of a stage's roots."""
    return isinstance(e, expr.Const) and e.value == 0.0


def _eval(tape, x: np.ndarray) -> np.ndarray:
    """The values of the tape set ``tape`` (n expressions) at ``x`` as one
    array: shape (n,) for one state, (B, n) for a batch (B, dim), under the
    tape's domain rule."""
    if x.ndim == 1:
        return np.array(tape(x.tolist()))
    values = tape(x.T)
    # A value that reads no coordinate is a float64 scalar; assignment broadcasts it.
    out = np.empty((x.shape[0], len(values)))
    for r, value in enumerate(values):
        out[:, r] = value
    return out


def _composed_heun(stage, y, w, dt):
    """Heun's step composed of ``stage.fields`` and ``stage.advance``: a
    step off its stage's generated forms."""
    k0 = stage.fields(y)
    k1 = stage.fields(stage.advance(y, w, dt, k0))
    return stage.advance(y, w, dt, k0, k1)


def _composed_image(stage, y, w, dt, z):
    """The midpoint image ``y + a(z) dt + g(z) dw`` composed of
    ``stage.fields`` and ``stage.advance``: a batch's off its bound image."""
    return stage.advance(y, w, dt, stage.fields(z))


class _Stage:
    """One system that ``flow`` steps, held by its structure: the state's,
    the augmented state's or the state's with log_lambda, as ``role`` names
    it.  Its roots, ``drift`` (m,) then ``diffusion`` row-major (m, d), that
    are not a constant zero (0.0 or -0.0) form one tape set, ``tape``, in
    root order, constants included; the chart's margins follow them, for the
    chart to judge.  Row r of ``rows`` is ``(drift slot, ((k, slot), ...))``
    over the channels k of its structural nonzeros, ascending; a slot indexes
    the values that ``fields`` returns, and a constant zero has none.

    The stage steps only the rows that move.  ``moving`` is None when it
    steps every row of the state it is given, else the indices, ascending,
    of the rows of a wider state that its m rows, its ``layout`` and every
    form below stand for; the other rows of that state hold constants that
    the stage's roots read as ``expr.const`` values.  ``flow._run`` takes a
    state of the wider width, steps its moving rows and returns histories of
    that width, whose constant rows hold their initial values.

    ``rows`` is compiled once into the two forms of ``advance``, each one
    generated straight-line function (``_generate``).  Row r becomes
    ``y[r] + dt * k[a] + (k[i1] * w[c1] + k[i2] * w[c2] + ...)``: the drift
    term first, then the noise terms summed left to right in ascending
    channel order c1 < c2 < ..., so the bits depend on no matrix product's
    summation order.  Heun's form reads ``0.5 * dt`` for ``dt`` and
    ``(k0[i] + k1[i])`` for ``k[i]``, and scales the noise sum by 0.5.  One
    text serves a single path, a list of Python floats, and a batch of numpy
    rows.

    A single path's Heun steps have one more generated form, the whole run:
    ``heun_run(y, ws, dt, rows)`` steps the state ``y``, a list of m floats,
    once per increments list that ``ws`` yields (d floats each).  The state
    stays in locals from step to step.  Each state is screened first, with
    ``math.isfinite`` of the row sum and, only when that is not finite,
    entry by entry (a sum of finite floats is non-finite only when it
    overflows), then appended to ``rows``, an ``array('d')``.  Then both
    tape evaluations run inline, formatted from the tape's own subterm walk
    of its roots (``expr._lines``) with one set of names per evaluation,
    with Euler's predictor and Heun's trapezoid between and after them.  Per
    root and row a step performs exactly the operations of ``fields`` and
    ``advance``, in the same order, so its bits are theirs.  A step leaves
    the hot text on a margin below ``MARGIN`` at either evaluation (an
    inline test generated from it, which raises) or on an
    ``ArithmeticError`` or ``ValueError``, and the run takes that step with
    ``_composed_heun`` in place, which raises exactly their errors, and
    carries on from its result, as a batch form does.  When ``ws`` is
    exhausted the last state is screened and appended and the run returns
    None; at a non-finite state, which it does not append, it stops and
    returns that state's index, counted from its own ``y``.

    A batch, (m, B) rows, has two generated forms of its own, built on the
    first batch call (``_generate_batch``), each bound before it steps:
    ``heun_binder(B)(y, w, p, out)`` returns Heun's step and
    ``image_binder(B)(y, w, z, out)`` the midpoint image ``advance(y, w,
    dt, fields(z))``, each a closure of ``dt``.  Each is one grouped text
    (``expr._schedule``, the scheduler of a tape's array mode): the tape's
    operations at ``y`` (or ``z``), a margin test generated from
    ``MARGIN``, then the update; Heun's form writes its predictor into
    ``p``, evaluates the tape there, tests the margins again and writes its
    trapezoid into ``out``.  Like operations of several rows run as one
    numpy call on basic slices of the buffers the tape's values live in,
    and each row's last operation writes into the caller's array, so
    nothing is restacked.  The scheduler emits the text bound, as it emits
    a tape's: ``heun_binder(B)`` gives each group of operations a scratch
    array, or the dead one it reuses, and makes their slices views, once;
    ``bind`` makes the slices of the caller's arrays views, once; the step
    is only calls with their outputs positional, and allocates no array.  Per
    element the operations and their order are those of ``fields`` and
    ``advance``, so the bits are theirs.  The step is called with numpy's
    floating-point flags raising, which its caller sets (``flow._loop``, once
    per run); a flag, or a margin below ``MARGIN``, sends the whole step to
    ``_composed_heun`` or ``_composed_image``, which run with the flags
    ignored and raise exactly their errors, and the result goes into
    ``out`` either way.  Every array belongs to the caller's run, so a shared stage
    stays thread-safe.  The run and both batch forms hold their stage by a
    weak reference, so that a stage and its forms form no cycle and a
    dropped system frees them at once.  Each text is compiled under a name
    of its role and form (``expr._factory``), so a profiler tells the stages
    apart; a text that two stages generate (SE's state and conformal stages)
    is compiled once.  No other
    module of the package reads ``rows``: ``flow`` drives a stage through
    ``moving``, ``fields``, ``advance``, ``heun_run``, ``heun_binder`` and
    ``image_binder`` only."""

    def __init__(self, chart, drift, diffusion, d: int, layout, role: str = "stage",
                 moving=None):
        self.chart = chart
        self.d = d
        self.role = role
        self.moving = None if moving is None else tuple(moving)
        roots = (*drift, *diffusion)
        slot = itertools.count()
        slots = [None if _is_zero(e) else next(slot) for e in roots]
        kept = [e for e, s in zip(roots, slots) if s is not None]
        self.tape = expr.compile_tape([*kept, *chart.margin_exprs], layout)
        self._margins = len(kept)  # the slot of the first margin
        noise = slots[len(drift):]
        self.rows = tuple(
            (a, tuple((k, s) for k, s in enumerate(noise[r * d:(r + 1) * d]) if s is not None))
            for r, a in enumerate(slots[:len(drift)])
        )
        self._generate()

    def _updates(self, y: str, w: str, dt: str, k, half: bool = False) -> list:
        """Per row r, the text of ``y_r + dt * a + (g_1 * w_c1 + ...)``;
        ``y`` and ``w`` format a row and a channel, ``k`` maps a slot to its
        text, and ``half`` scales the noise sum by 0.5."""
        out = []
        for r, (a, row) in enumerate(self.rows):
            text = y.format(r)
            if a is not None:
                text += f" + {dt} * {k(a)}"
            if row:
                noise = " + ".join(f"{k(i)} * {w.format(c)}" for c, i in row)
                text += f" + 0.5 * ({noise})" if half else f" + ({noise})"
            out.append(text)
        return out

    def _generate(self) -> None:
        """Compile ``rows`` into ``_euler(y, w, dt, k)``, ``_heun(y, w, dt,
        k0, k1)`` and ``heun_run(y, ws, dt, rows)`` through ``expr``'s cached
        text compiler."""
        def listed(texts, open_="[", close="]"):
            return f"{open_}\n" + "".join(f"    {t},\n" for t in texts) + close

        self._euler, self._heun = expr._factory(
            "def make():\n    def euler(y, w, dt, k):\n"
            + expr._block(2, ["return " + listed(self._updates("y[{}]", "w[{}]", "dt", "k[{}]".format))])
            + "    def heun(y, w, dt, k0, k1):\n        h_dt = 0.5 * dt\n"
            + expr._block(2, ["return " + listed(self._updates(
                "y[{}]", "w[{}]", "h_dt", "(k0[{0}] + k1[{0}])".format, True))])
            + "    return euler, heun\n", f"{self.role} advance")()

        # The run: y_r and w_c in locals, the first evaluation's values in
        # s-locals, the predictor in p_r and the second evaluation's in
        # t-locals.  Both evaluations' texts are formatted from the tape's
        # one walk.
        walk, m = self.tape._walk, len(self.rows)
        consts = walk[2]
        s_lines, k0 = expr._lines(walk, [f"y{i}" for i in range(m)], "s")
        t_lines, k1 = expr._lines(walk, [f"p{i}" for i in range(m)], "t")

        def evaluation(lines, k):
            margins = k[self._margins:]
            return [*lines, *([f"if {' or '.join(f'abs({v}) < margin' for v in margins)}:",
                               "    raise FloatingPointError"] if margins else [])]

        step = [*evaluation(s_lines, k0),
                *(f"p{r} = {t}" for r, t in enumerate(self._updates("y{}", "w{}", "dt",
                                                                     k0.__getitem__))),
                *evaluation(t_lines, k1)]
        state = "".join(f"y{r}, " for r in range(m))
        # A sum of finite floats is non-finite only when it overflows: then
        # the entries are screened one by one.
        screen = [f"if not (isfinite({' + '.join(f'y{r}' for r in range(m))})"
                  f" or {' and '.join(f'isfinite(y{r})' for r in range(m))}):",
                  f"    return (len(rows) - start) // {m}",
                  f"rows.extend(({state}))"]
        trapezoid = self._updates("y{}", "w{}", "h_dt", lambda i: f"({k0[i]} + {k1[i]})", True)
        make = expr._factory(
            f"def make(pow, sin, cos, exp, log, isfinite, margin, cold_heun"
            f"{expr._params(consts)}):\n"
            "    def heun_run(y, ws, dt, rows):\n"
            + expr._block(2, [f"{state}= y", "h_dt = 0.5 * dt", "start = len(rows)",
                         f"for {''.join(f'w{c}, ' for c in range(self.d)).rstrip() or '()'} in ws:"])
            + expr._block(3, [*screen, "try:"])
            + expr._block(4, [*step, f"{state}= " + listed(trapezoid, "(", ")"), "continue"])
            + expr._block(3, ["except (ArithmeticError, ValueError):", "    pass",
                              f"{state}= cold_heun([{state}], "
                              f"[{''.join(f'w{c}, ' for c in range(self.d))}], dt)"])
            + expr._block(2, [*screen, "return None"])
            + "    return heun_run\n", f"{self.role} heun_run")
        self.heun_run = make(*expr._SCALAR_FUNCTIONS, math.isfinite, MARGIN,
                             functools.partial(_composed_heun, weakref.proxy(self)), *consts)

    def _generate_batch(self) -> None:
        """Compile the two batch forms' binders, ``heun_binder`` and
        ``image_binder``, through ``expr``'s cached text compiler and set
        them on the instance, over the class methods that call here first."""
        ops, refs, targets = [], {}, {}
        walk, m = self.tape._walk, len(self.rows)

        def emit(key, target=None):
            # An operation on like operands is done once, except one that
            # writes a row of the caller's arrays.
            if target is None and key in refs:
                return refs[key]
            ref = ("t", len(ops))
            if target is None:
                refs[key] = ref
            else:
                targets[len(ops)] = target
            ops.append(key)
            return ref

        def evaluate(read):
            """The tape's operations at the state whose slot i ``read(i)``
            references: ``(phase, values)``."""
            start, mapped = len(ops), []

            def ref(kind, i):
                return read(i) if kind == "y" else mapped[i] if kind == "t" else (kind, i)
            for op, *args in walk[0]:
                mapped.append(emit((op, *(ref(*a) for a in args))))
            return range(start, len(ops)), [ref(*r) for r in walk[1]]

        def update(k, dt, half, target):
            """The operations of ``_updates``' rows, row r written into
            ``(target, r)``: ``(phase, the operations that write the rows)``."""
            start, written = len(ops), []
            for r, (a, row) in enumerate(self.rows):
                terms = [emit(("*", dt, k(a)))] if a is not None else []
                if row:
                    noise = functools.reduce(lambda s, p: emit(("+", s, p)),
                                             (emit(("*", k(i), ("w", c))) for c, i in row))
                    terms.append(emit(("*", ("s", "0.5"), noise)) if half else noise)
                value = ("y", r)
                for j, term in enumerate(terms):
                    value = emit(("+", value, term), (target, r) if j == len(terms) - 1 else None)
                written.append(emit(("copy", value), (target, r)) if not terms else value)
            return range(start, len(ops)), written

        def margins(values):
            return values[self._margins:]

        def check(blocks):
            # A margin below the bound leaves the hot text as a flag does.
            tests = " and ".join(f"absolute({b}{f', {a}' if a else ''}).min(initial=margin)"
                                 " >= margin" for b, a in blocks)
            return f"if not ({tests}):\n    raise FloatingPointError"

        sizes = {"y": m, "z": m, "p": m, "out": m, "w": self.d}

        def binder(name, arrays, phases, inputs, cold, head=()):
            (shared, bind, step), _ = expr._schedule(ops, phases, inputs, sizes, targets,
                                                     check=check)
            return (f"    def {name}(width):\n" + expr._block(2, shared)
                    + f"        def bind({arrays}):\n" + expr._block(3, bind)
                    + "            def step(dt):\n" + expr._block(4, [*head, "try:"])
                    + expr._block(5, [*step, "return out"])
                    + expr._block(4, ["except ArithmeticError:", "    pass",
                                 "with errstate(all='ignore'):", f"    copyto(out, {cold})",
                                 "return out"])
                    + "            return step\n        return bind\n")

        # Heun: the tape at y, the predictor into p, the tape at p, the trapezoid into out.
        first, k0 = evaluate(lambda i: ("y", i))
        predict, p = update(k0.__getitem__, ("s", "dt"), False, "p")
        second, k1 = evaluate(p.__getitem__)
        trapezoid, _ = update(lambda i: emit(("+", k0[i], k1[i])), ("s", "h_dt"), True, "out")
        heun = binder("heun_binder", "y, w, p, out",
                      [(first, margins(k0)), (predict, ()), (second, margins(k1)), (trapezoid, ())],
                      {"y": "y", "w": "w"}, "cold_heun(y, w, dt)", ["h_dt = 0.5 * dt"])
        # The midpoint image: the tape at z, the Euler update from y into out.
        # Its text computes no value of Heun's, so it shares none of its operations.
        refs.clear()
        at_z, k = evaluate(lambda i: ("z", i))
        euler, _ = update(k.__getitem__, ("s", "dt"), False, "out")
        image = binder("image_binder", "y, w, z, out", [(at_z, margins(k)), (euler, ())],
                       {"z": "z", "y": "y", "w": "w"}, "cold_image(y, w, dt, z)")
        consts = walk[2]
        make = expr._factory(
            f"def make({', '.join(expr._ARRAY_NAMES.values())}, absolute, empty, "
            f"errstate, copyto, cold_heun, cold_image, margin{expr._params(consts)}):\n"
            + heun + image
            + "    return heun_binder, image_binder\n", f"{self.role} batch")
        self.heun_binder, self.image_binder = make(
            *expr._ARRAY_FUNCTIONS, np.absolute, np.empty, np.errstate, np.copyto,
            functools.partial(_composed_heun, weakref.proxy(self)),
            functools.partial(_composed_image, weakref.proxy(self)),
            MARGIN, *map(np.array, consts))

    def heun_binder(self, width):
        """Heun's step of a batch of ``width`` paths, bound in two stages:
        ``heun_binder(width)`` makes the step's scratch arrays and returns
        ``bind(y, w, p, out)``, which binds them to the caller's arrays, the
        state ``y`` (m, width), increments ``w`` (d, width), the predictor
        ``p`` and the step ``out``, (m, width) arrays that alias neither
        ``y`` nor each other.  ``bind`` returns ``step(dt)``, which writes
        the step into ``out`` and returns it, to be called with numpy's
        floating-point flags raising; the steps bound from one
        ``heun_binder(width)`` share its scratch arrays, so they run one at
        a time.  Generated on the first call (``_generate_batch``)."""
        self._generate_batch()
        return self.heun_binder(width)

    def image_binder(self, width):
        """The midpoint image ``advance(y, w, dt, fields(z))`` of a batch,
        bound as ``heun_binder`` is: ``image_binder(width)`` returns
        ``bind(y, w, z, out)``, whose ``step(dt)`` writes the image into
        ``out``, which aliases neither ``y`` nor ``z``, and returns it."""
        self._generate_batch()
        return self.image_binder(width)

    # A generated function does not pickle: an unpickled stage generates its own.
    def __getstate__(self):
        return {k: v for k, v in vars(self).items()
                if k not in ("_euler", "_heun", "heun_run", "heun_binder", "image_binder")}

    def __setstate__(self, state):
        vars(self).update(state)
        self._generate()

    def fields(self, y) -> tuple:
        """The values at a single path (a list of m floats) or a batch (m, B)
        from one tape call, the chart's margins last, for the chart to judge.
        On a ``DomainError`` (a margin of exactly 0 divides by zero) the
        chart judges its own margin tape's values first, so an off-chart
        path raises ``SingularChartPoint`` ahead of the fault."""
        chart = self.chart
        try:
            k = self.tape(y)
        except DomainError:
            chart._check_margins(y, chart._margin_tape(y[:chart.dim]))
            raise
        chart._check_margins(y, k[self._margins:])
        return k

    def advance(self, y, dw, dt, k0, k1=None):
        """``y + a dt + g dw`` at the fields ``k0``; given ``k1`` too, Heun's
        trapezoid ``y + 0.5 dt (a0 + a1) + 0.5 (g0 + g1) dw``.  ``y`` and
        ``dw`` are lists of m and d floats, returning a list, or (m, B) and
        (d, B) arrays, returning an array."""
        out = self._euler(y, dw, dt, k0) if k1 is None else self._heun(y, dw, dt, k0, k1)
        return out if type(y) is list else np.array(out)


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

class _ContactChart:
    """Every form of a chart's contact structure, derived from the one
    statement the chart makes of it: ``eta_exprs()``, the components of eta;
    ``d_eta_upper_entries_exprs()``, the structural entries ``(a, b, expr)``
    of d_eta with a < b, whose (b, a) entries are the exact negatives; and
    ``reeb_field``, the constant Reeb field.  The numeric forms take a state
    (dim,) or a batch (B, dim) and run compiled tape sets through ``_eval``.

    The chart states its singular set once too, as ``margin_exprs``:
    expressions over its coordinates, each read as ``|margin| >= MARGIN``
    on the chart.  ``_check_margins`` alone applies that rule: ``guard`` to
    the values of the chart's margin tape, ``_Stage.fields`` to those of its
    one tape call, which ends with the margins."""

    def __init__(self):
        entries = self.d_eta_upper_entries_exprs()
        self._eta_tape = expr.compile_tape(self.eta_exprs(), self.names)
        self._d_eta_slots = tuple((a, b) for a, b, _ in entries)
        self._d_eta_tape = expr.compile_tape([e for _, _, e in entries], self.names)
        self._margin_tape = expr.compile_tape(self.margin_exprs, self.names)

    def eta(self, x: np.ndarray) -> np.ndarray:
        return _eval(self._eta_tape, x)

    def d_eta_upper(self, x: np.ndarray):
        """Structural entries (a, b, value) of d_eta at ``x``."""
        values = _eval(self._d_eta_tape, x)
        return [(a, b, values[..., k]) for k, (a, b) in enumerate(self._d_eta_slots)]

    def d_eta(self, x: np.ndarray) -> np.ndarray:
        m = np.zeros((*x.shape[:-1], self.dim, self.dim))
        for a, b, value in self.d_eta_upper(x):
            m[..., a, b] = value
            m[..., b, a] = -value
        return m

    def reeb(self, x: np.ndarray) -> np.ndarray:
        return np.array(self.reeb_field)

    def reeb_derivative_expr(self, f: expr.Expr) -> expr.Expr:
        """iota_R df, summed over the nonzero components of the Reeb field."""
        return functools.reduce(expr.add, (
            expr.mul(expr.const(r), expr.differentiate(f, name))
            for name, r in zip(self.names, self.reeb_field) if r != 0.0
        ))

    def guard(self, x) -> None:
        """Reject a state, a list of ``dim`` floats or a (dim,) array, or a
        batch (B, dim) that is off the chart, by ``_check_margins`` on the
        values of ``margin_exprs``."""
        if type(x) is not list:
            x = x.tolist() if x.ndim == 1 else x.T
        self._check_margins(x, self._margin_tape(x))

    def _check_margins(self, x, margins) -> None:
        """The margin rule: a state is off the chart when a margin's
        absolute value is below ``MARGIN``; a NaN margin is not below.  ``x``
        is one state, a list, or a batch of rows (n, B), one column per path,
        whose first ``dim`` entries or rows are the chart coordinates, and
        ``margins`` are the values of ``margin_exprs`` there.
        ``SingularChartPoint`` names the first off-chart path's first such
        margin and its chart coordinates, in the same words for a state
        alone and for a batch."""
        if type(x) is not list:
            if not any((abs(m) < MARGIN).any() for m in margins):
                return
            off = np.logical_or.reduce([abs(m) < MARGIN for m in margins])
            path = int(off.argmax())
            x, margins = x[:, path].tolist(), [m[path] for m in margins]
        for margin, value in zip(self.margin_exprs, margins):
            if abs(value) < MARGIN:
                raise SingularChartPoint(f"|{expr.to_source(margin)}| below {MARGIN:g} "
                                         f"at state {tuple(map(float, x[:self.dim]))}")

    def guard_batch(self, states: np.ndarray) -> None:
        # Kept by name for bench/layertrace.py, which patches it; src/ calls guard.
        self.guard(states)


class DarbouxChart(_ContactChart):
    """Canonical chart: eta = dz - p dq, Reeb field d/dz, sigma = -1."""

    kind = "darboux"
    sigma = -1.0
    margin_exprs = ()  # no singular points

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.dim = 2 * n + 1
        self.names = tuple(
            [f"q{j}" for j in range(1, n + 1)]
            + [f"p{j}" for j in range(1, n + 1)]
            + ["z"]
        )
        self.reeb_field = (0.0,) * (2 * n) + (1.0,)
        super().__init__()

    def eta_exprs(self) -> list:
        n = self.n
        return ([expr.negate(expr.var(f"p{j}")) for j in range(1, n + 1)]
                + [expr.const(0.0)] * n + [expr.const(1.0)])

    def d_eta_upper_entries_exprs(self) -> list:
        one = expr.const(1.0)
        return [(j, self.n + j, one) for j in range(self.n)]

    def vector_field_exprs(self, h: expr.Expr) -> list:
        n = self.n
        dq = [expr.differentiate(h, f"q{j}") for j in range(1, n + 1)]
        dp = [expr.differentiate(h, f"p{j}") for j in range(1, n + 1)]
        dz = expr.differentiate(h, "z")
        comps = list(dp)
        for j in range(n):
            comps.append(expr.negate(expr.add(dq[j], expr.mul(expr.var(f"p{j+1}"), dz))))
        acc = expr.negate(h)
        for j in range(n):
            acc = expr.add(acc, expr.mul(expr.var(f"p{j+1}"), dp[j]))
        comps.append(acc)
        return comps

    def sample_states(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-2.0, 2.0, size=(count, self.dim))


class SasakiEinsteinChart(_ContactChart):
    """Homogeneous toric chart on the five-dimensional space T^{1,1}."""

    kind = "sasaki-einstein"
    sigma = 1.0
    n = 2
    dim = 5
    names = ("theta1", "theta2", "phi1", "phi2", "psi")
    reeb_field = (0.0, 0.0, 0.0, 0.0, 3.0)
    # The coordinates break down where sin(theta_i) = 0.
    margin_exprs = (expr.sin(expr.var("theta1")), expr.sin(expr.var("theta2")))

    def eta_exprs(self) -> list:
        three = expr.const(3.0)
        return [expr.const(0.0), expr.const(0.0),
                expr.div(expr.cos(expr.var("theta1")), three),
                expr.div(expr.cos(expr.var("theta2")), three),
                expr.const(1.0 / 3.0)]

    def d_eta_upper_entries_exprs(self) -> list:
        three = expr.const(3.0)
        return [(i, i + 2, expr.negate(expr.div(expr.sin(expr.var(f"theta{i + 1}")), three)))
                for i in range(2)]

    def vector_field_exprs(self, h: expr.Expr) -> list:
        three = expr.const(3.0)
        th = [expr.var("theta1"), expr.var("theta2")]
        d_th = [expr.differentiate(h, "theta1"), expr.differentiate(h, "theta2")]
        d_ph = [expr.differentiate(h, "phi1"), expr.differentiate(h, "phi2")]
        d_ps = expr.differentiate(h, "psi")
        comps = []
        for i in range(2):
            comps.append(
                expr.mul(
                    expr.div(three, expr.sin(th[i])),
                    expr.sub(d_ph[i], expr.mul(d_ps, expr.cos(th[i]))),
                )
            )
        for i in range(2):
            comps.append(expr.negate(expr.mul(expr.div(three, expr.sin(th[i])), d_th[i])))
        acc = h
        for i in range(2):
            acc = expr.add(acc, expr.mul(expr.div(expr.cos(th[i]), expr.sin(th[i])), d_th[i]))
        comps.append(expr.mul(three, acc))
        return comps

    def sample_states(self, count: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty((count, 5))
        out[:, 0] = rng.uniform(0.1, math.pi - 0.1, size=count)
        out[:, 1] = rng.uniform(0.1, math.pi - 0.1, size=count)
        out[:, 2] = rng.uniform(0.0, 2.0 * math.pi, size=count)
        out[:, 3] = rng.uniform(0.0, 2.0 * math.pi, size=count)
        out[:, 4] = rng.uniform(0.0, 4.0 * math.pi, size=count)
        return out


def chart_by_id(kind: str, n: int | None = None):
    """Construct a chart from its string id ("darboux" needs ``n``)."""
    if kind == "darboux":
        if n is None:
            raise ConfigError("chart 'darboux' requires n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError(f"chart 'darboux' needs an integer n >= 1, got {n!r}")
        return DarbouxChart(n)
    if kind == "sasaki-einstein":
        return SasakiEinsteinChart()
    raise ConfigError(f"unknown chart kind {kind!r}")


# ---------------------------------------------------------------------------
# Hamiltonian systems
# ---------------------------------------------------------------------------

class HamiltonianSystem:
    """A chart together with a drift Hamiltonian H_0, noise Hamiltonians
    H_1..H_d, and one compiled tape set per query, holding exactly the
    expressions it returns: the value, gradient, ``X_H``, ``DX_H`` and
    ``R(H)`` of every H_i, and the diffusion columns; and the three
    ``_Stage`` objects that ``flow`` steps: the state's (``_state_stage``),
    the augmented state's (``_augmented_stage``, over x, J row-major and
    log_lambda, whose roots per H_i are ``X_{H_i}``, ``DX_{H_i} J`` and
    ``-R(H_i)``) and the state's with log_lambda (``_conformal_stage``, roots
    ``X_{H_i}`` and ``-R(H_i)``, for a caller that reads no J).  Each tape
    set and stage is built on its first use, so a command pays only for
    what it queries; parsing and name validation (``prepare``) happen in
    ``__init__``, so a configuration error is raised there.

    The per-state methods (``hamiltonian``, ``gradient``, ``vector_field``,
    ``vector_field_jacobian``, ``reeb_rate``, ``diffusion_matrix``,
    ``drift_diffusion``) take one state ``(dim,)`` or a batch ``(B, dim)``
    and give a result with the same leading axes; each set is one call of
    one evaluator, ``_eval``, as are the jets behind the brackets.
    ``_eval`` calls the tape directly, and the tape holds the domain rule
    for both shapes.

    Constants, numbers that may name neither a chart coordinate nor a
    function, are substituted at build time, so every compiled tape reads
    only chart coordinates (the augmented one also J, in slots ``J[c,b]``,
    which no parsed name can equal).  A system never changes what it
    computes, and it is safe to share between threads or pickle to workers:
    two concurrent first uses of one set may both compile it, with equal
    results, and a pickle carries the sets built so far.
    """

    def __init__(self, chart, h0, noise=(), constants=None):
        self.chart = chart
        try:
            values = dict(constants or {})
            if any(isinstance(v, bool) for v in values.values()):
                raise TypeError("a boolean is not a number")
            self.constants = {name: float(v) for name, v in values.items()}
        except (TypeError, ValueError):
            raise ConfigError(f"constants must be numbers, got {constants!r}") from None
        shadowed = sorted(set(self.constants) & {*chart.names, *expr.FUNCTIONS})
        if shadowed:
            raise ConfigError(f"constants shadow chart coordinates or functions: {shadowed}")
        if not isinstance(noise, (list, tuple)):
            raise ConfigError(f"noise must be a list of expressions, got {noise!r}")
        self.hamiltonians = tuple(map(self.prepare, (h0, *noise)))

    # -- expressions, tape sets and stages, each built on first use ------------

    @functools.cached_property
    def vector_field_exprs(self) -> tuple:
        """``X_{H_i}`` per Hamiltonian, as expressions."""
        return tuple(tuple(self.chart.vector_field_exprs(h)) for h in self.hamiltonians)

    @functools.cached_property
    def _jacobian_exprs(self) -> tuple:
        """``DX_{H_i}`` per Hamiltonian, row-major (dim, dim)."""
        return tuple(tuple(expr.differentiate(c, name) for c in comps for name in self.chart.names)
                     for comps in self.vector_field_exprs)

    @functools.cached_property
    def _rate_exprs(self) -> tuple:
        """``R(H_i)`` per Hamiltonian."""
        return tuple(map(self.chart.reeb_derivative_expr, self.hamiltonians))

    def _tapes(self, sets) -> tuple:
        return tuple(expr.compile_tape(e, self.chart.names) for e in sets)

    @functools.cached_property
    def _h_tapes(self) -> tuple:
        return self._tapes([h] for h in self.hamiltonians)

    @functools.cached_property
    def _grad_tapes(self) -> tuple:
        return self._tapes([expr.differentiate(h, c) for c in self.chart.names]
                           for h in self.hamiltonians)

    @functools.cached_property
    def _field_tapes(self) -> tuple:
        return self._tapes(self.vector_field_exprs)

    @functools.cached_property
    def _jacobian_tapes(self) -> tuple:
        return self._tapes(self._jacobian_exprs)

    @functools.cached_property
    def _reeb_tapes(self) -> tuple:
        return self._tapes([rate] for rate in self._rate_exprs)

    @functools.cached_property
    def _diffusion_tape(self) -> expr.EvalTape:
        """The diffusion columns, row-major (dim, d)."""
        return expr.compile_tape(self._diffusion(self.vector_field_exprs), self.chart.names)

    @staticmethod
    def _diffusion(roots) -> list:
        """Row-major (m, d) diffusion from the roots (m,) of each H_i, H_0's first."""
        return [e for row in zip(*roots[1:]) for e in row]

    def _stage(self, roots, layout, role: str = "stage", moving=None) -> _Stage:
        return _Stage(self.chart, roots[0], self._diffusion(roots), self.d, layout, role, moving)

    @functools.cached_property
    def _state_stage(self) -> _Stage:
        return self._stage(self.vector_field_exprs, self.chart.names, "state")

    @functools.cached_property
    def _augmented_stage(self) -> _Stage:
        """x, J row-major, then log_lambda; per H the roots are X_H, DX_H J
        and -R(H).  Entry (a, b) of DX_H J sums ``DX_H[a,c] * J[c,b]`` left to
        right in ascending c over the c where ``DX_H[a,c]`` is not a constant
        zero and ``J[c,b]`` is live, a constant 0.0 where there is none:
        ``expr.mul`` folds a zero factor to 0.0 and ``expr.add`` drops a 0.0
        term, so neither kind of zero product is formed.

        The live set is where J, started from I, can ever be nonzero.  With
        P the pairs (a, c) at which some ``DX_{H_i}[a,c]`` is not a constant
        zero, it holds every (a, a) and is closed under: (a, c) in P and
        (c, b) live make (a, b) live.  A dead entry's every product has a
        dead J factor: it stays +0.0, as it did when its ``±0.0`` products
        were formed, since ``+0.0 + (±0.0)`` is +0.0.  No J entry, predictor
        or midpoint is ever -0.0 (``y + t`` is -0.0 only when both are), so
        dropping a ``±0.0`` product from a live entry's sum changes no bit of
        a step.

        The stage steps only the rows that move, decided here once, from the
        live set and P, before any product is formed.  Entry (a, b) moves
        when some (a, c) in P has (c, b) live; the others are constant: the
        dead entries, which hold 0.0, and the diagonal entries that no
        product reaches, which hold 1.0 (on SE, J[2,2], J[3,3] and J[4,4]).
        log_lambda moves when some R(H_i) is not a constant zero.  The chart
        rows always move.  A constant J entry enters the roots as
        ``expr.const`` 0.0 or 1.0, so ``expr.mul`` folds its ``* 1.0``
        products: ``x * 1.0`` is ``x`` for every float.  A constant row holds
        its initial value exactly under both schemes, and the midpoint test
        would gain nothing from it: its |dy| is 0 and it adds at most 1 to
        ``max(1, max|y|)``.  A non-finite ``DX_H[a,c]`` still reaches the
        step in the root of (a, c), through ``DX_H[a,c] * J[c,c]`` or, where
        J[c,c] is constant, ``DX_H[a,c]`` itself, so the run fails at the
        same step.

        The contract: the J rows are exact only from a state whose constant
        rows hold J = I and log_lambda = 0 and whose other J entries lie in
        the live set, as ``integrate_augmented``'s J = I does."""
        dim = self.dim
        pairs = {(a, c) for dx in self._jacobian_exprs for a in range(dim) for c in range(dim)
                 if not _is_zero(dx[a * dim + c])}
        live = grown = {(a, a) for a in range(dim)}
        while grown:
            grown = {(a, b) for a, c in pairs for c2, b in grown if c == c2} - live
            live = live | grown
        moves = {(a, b) for a, c in pairs for c2, b in live if c == c2}
        kept = sorted(moves)  # row-major
        jac = {(c, b): expr.var(f"J[{c},{b}]") if (c, b) in moves else expr.const(float(c == b))
               for c in range(dim) for b in range(dim)}
        rated = [dim * (dim + 1)] if self._rated else []  # log_lambda's row, if it moves

        def product(dx):
            for a, b in kept:
                yield functools.reduce(expr.add, (
                    expr.mul(dx[a * dim + c], jac[c, b])
                    for c in range(dim) if not _is_zero(dx[a * dim + c])), expr.const(0.0))

        roots = [(*comps, *product(dx), *([expr.negate(rate)] if rated else []))
                 for comps, dx, rate in zip(self.vector_field_exprs, self._jacobian_exprs,
                                            self._rate_exprs)]
        moving = [*range(dim), *(dim + a * dim + b for a, b in kept), *rated]
        layout = [*self.chart.names, *(f"J[{a},{b}]" for a, b in kept)]
        return self._stage(roots, layout + (["log(lambda)"] if rated else []), "augmented",
                           None if len(moving) == dim * (dim + 1) + 1 else moving)

    @functools.cached_property
    def _conformal_stage(self) -> _Stage:
        """x then log_lambda; per H the roots are X_H and -R(H).  log_lambda
        is a constant row, held at 0, unless ``_rated``; on SE it is, and
        the stage has the state stage's roots and texts."""
        rated = self._rated
        roots = [(*comps, *([expr.negate(rate)] if rated else []))
                 for comps, rate in zip(self.vector_field_exprs, self._rate_exprs)]
        return self._stage(roots, [*self.chart.names] + (["log(lambda)"] if rated else []),
                           "conformal", None if rated else range(self.dim))

    @functools.cached_property
    def _rated(self) -> bool:
        """Whether log_lambda moves: some R(H_i) is not a constant zero."""
        return not all(map(_is_zero, self._rate_exprs))

    # -- basic queries ------------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.hamiltonians) - 1

    @property
    def dim(self) -> int:
        return self.chart.dim

    def context(self, x: np.ndarray) -> dict:
        return dict(zip(self.chart.names, (float(v) for v in x)))

    def prepare(self, f) -> expr.Expr:
        """Parse (if needed) and close an expression over this system's
        constants, leaving only chart coordinates free.  Anything but a
        string or an expression tree is a ``ConfigError``, as is a tree too
        deep for the recursive walks."""
        if not isinstance(f, (str, *expr.NODE_TYPES)):
            raise ConfigError(f"expected an expression, got {f!r}")
        names = list(self.chart.names) + list(self.constants)
        tree = expr.parse(f, names) if isinstance(f, str) else f
        try:
            tree = expr.substitute(tree, self.constants)
            extra = expr.free_variables(tree) - set(self.chart.names)
        except RecursionError:
            what = reprlib.repr(f) if isinstance(f, str) else "an expression tree"
            raise ConfigError(f"expression nested too deeply: {what}") from None
        if extra:
            raise ConfigError(f"expression references unknown names {sorted(extra)}")
        return tree

    # -- evaluation at a state (dim,) or a batch (B, dim) --------------------

    def hamiltonian(self, i: int, x: np.ndarray):
        return _eval(self._h_tapes[i], x)[..., 0]

    def gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        return _eval(self._grad_tapes[i], x)

    def vector_field(self, i: int, x: np.ndarray) -> np.ndarray:
        self.chart.guard(x)
        return _eval(self._field_tapes[i], x)

    def vector_field_jacobian(self, i: int, x: np.ndarray) -> np.ndarray:
        self.chart.guard(x)
        return _eval(self._jacobian_tapes[i], x).reshape(*x.shape[:-1], self.dim, self.dim)

    def reeb_rate(self, i: int, x: np.ndarray):
        return _eval(self._reeb_tapes[i], x)[..., 0]

    def diffusion_matrix(self, x: np.ndarray) -> np.ndarray:
        self.chart.guard(x)
        return _eval(self._diffusion_tape, x).reshape(*x.shape[:-1], self.dim, self.d)

    def drift_diffusion(self, x: np.ndarray):
        """Drift vector X_{H_0}(x) and diffusion columns X_{H_k}(x); the state
        is guarded once, by ``vector_field``."""
        return (self.vector_field(0, x),
                _eval(self._diffusion_tape, x).reshape(*x.shape[:-1], self.dim, self.d))

    # Kept by name for bench/layertrace.py, which patches them; src/ does not call them.
    def drift_batch(self, states: np.ndarray) -> np.ndarray:
        return self.vector_field(0, states)

    def diffusion_batch(self, states: np.ndarray) -> np.ndarray:
        return self.diffusion_matrix(states)


# ---------------------------------------------------------------------------
# Geometric operations
# ---------------------------------------------------------------------------

def contact_vector_field(sys: HamiltonianSystem, i: int, x) -> np.ndarray:
    """Value of the contact Hamiltonian vector field X_{H_i} at ``x``."""
    return sys.vector_field(i, np.asarray(x, dtype=float))


def check_intrinsic_relations(sys: HamiltonianSystem, i: int, x):
    """Residuals of the defining relations of X_{H_i} at ``x``.

    Returns ``(r1, r2)`` where ``r1 = |eta(X) - sigma H|`` and ``r2`` is the
    sup norm of ``dH - (-sigma iota_X d_eta + R(H) eta)`` as a covector, with
    the chart's sign convention ``sigma``.  Callers compare against their own
    tolerance.
    """
    x = np.asarray(x, dtype=float)
    chart = sys.chart
    xh = sys.vector_field(i, x)
    eta = chart.eta(x)
    m = chart.d_eta(x)
    h = sys.hamiltonian(i, x)
    grad = sys.gradient(i, x)
    rate = sys.reeb_rate(i, x)
    r1 = abs(float(eta @ xh) - chart.sigma * h)
    contraction = xh @ m  # (iota_X d_eta)_b = sum_a X_a d_eta[a, b]
    resid = grad - (-chart.sigma * contraction + rate * eta)
    return r1, float(np.max(np.abs(resid)))


def _bracket(ops, zero, d_eta_upper, jf, jg):
    """The Jacobi bracket ``d_eta(X_f, X_g) + f R(g) - g R(f)`` from the
    jets ``(X_f..., f, R(f))`` of f and g and the structural upper entries
    ``(a, b, coeff)`` of d_eta, in the arithmetic ``ops`` (``operator`` for
    numbers, ``expr`` for expressions) starting from ``zero``.
    d_eta(X_f, X_g) sums coeff * (Xf_a Xg_b - Xf_b Xg_a) over the entries, so
    [f, f] vanishes exactly and swapping arguments negates the value bit for
    bit."""
    total = zero
    for a, b, coeff in d_eta_upper:
        paired = ops.sub(ops.mul(jf[a], jg[b]), ops.mul(jf[b], jg[a]))
        total = ops.add(total, ops.mul(coeff, paired))
    return ops.sub(ops.add(total, ops.mul(jf[-2], jg[-1])), ops.mul(jg[-2], jf[-1]))


def _jet(chart, f: expr.Expr) -> list:
    """The jet ``(X_f components..., f, R(f))`` of ``f`` as expressions."""
    return [*chart.vector_field_exprs(f), f, chart.reeb_derivative_expr(f)]


def _brackets(sys: HamiltonianSystem, operation: str, funcs, pairs, x):
    """The jets of ``funcs`` at a state (dim,) or a batch (B, dim) ``x``,
    shape (..., len(funcs), dim + 2), and the list of brackets
    [funcs[i], funcs[j]] for each (i, j) of ``pairs``.  The jets are one
    tape set, ``x`` is guarded once and d_eta's entries are evaluated once.
    A non-finite jet or bracket is ``NumericalFailure(operation, ...)``."""
    chart = sys.chart
    tape = expr.compile_tape([e for f in funcs for e in _jet(chart, sys.prepare(f))], chart.names)
    x = np.asarray(x, dtype=float)
    chart.guard(x)
    jets = _eval(tape, x).reshape(*x.shape[:-1], len(funcs), chart.dim + 2)
    columns = np.moveaxis(jets, -1, 0)  # (dim + 2, ..., len(funcs))
    d_eta = chart.d_eta_upper(x)
    with np.errstate(all="ignore"):
        brackets = [_bracket(operator, 0.0, d_eta, columns[..., i], columns[..., j])
                    for i, j in pairs]
    if not (np.isfinite(jets).all() and np.isfinite(brackets).all()):
        raise NumericalFailure(operation, "non-finite values")
    return jets, brackets


def jacobi_bracket(sys: HamiltonianSystem, f, g, x) -> float:
    """Jacobi bracket [f, g] at ``x``:
    ``d_eta(X_f, X_g) + f R(g) - g R(f)``, with R the Reeb derivative.
    """
    _, (value,) = _brackets(sys, "jacobi_bracket", (f, g), [(0, 1)], x)
    return float(value)


def jacobi_bracket_expr(sys: HamiltonianSystem, f, g) -> expr.Expr:
    """The bracket [f, g] as a symbolic expression over chart coordinates.

    Useful for nesting (Jacobi identity, iterated brackets)."""
    chart = sys.chart
    return _bracket(expr, expr.const(0.0), chart.d_eta_upper_entries_exprs(),
                    _jet(chart, sys.prepare(f)), _jet(chart, sys.prepare(g)))


def reeb_derivative(sys: HamiltonianSystem, f, x) -> float:
    """Derivative of ``f`` along the Reeb field at ``x`` (iota_R df)."""
    rate = sys.chart.reeb_derivative_expr(sys.prepare(f))
    tape = expr.compile_tape([rate], sys.chart.names)
    return float(_eval(tape, np.asarray(x, dtype=float))[0])


def weak_leibniz_diagnostic(sys: HamiltonianSystem, f, g, h, x):
    """Residuals of two candidate product rules for the bracket at ``x``.

    Returns ``(flat_correction, scaled_correction)`` where the first is the
    residual of ``[f, gh] = [f,g]h + g[f,h] - [f,1]`` and the second of
    ``[f, gh] = [f,g]h + g[f,h] - g h [f,1]``.  Diagnostic only; no rule is
    asserted.  A non-finite jet or bracket is a ``NumericalFailure``.
    """
    g = sys.prepare(g)
    h = sys.prepare(h)
    funcs = (f, expr.mul(g, h), g, h, expr.const(1.0))
    pairs = [(0, j) for j in range(1, 5)]
    jets, brackets = _brackets(sys, "weak_leibniz_diagnostic", funcs, pairs, x)
    b_gh, b_g, b_h, b_1 = map(float, brackets)
    gv, hv = float(jets[2, -2]), float(jets[3, -2])
    flat = b_gh - (b_g * hv + gv * b_h - b_1)
    scaled = b_gh - (b_g * hv + gv * b_h - gv * hv * b_1)
    return flat, scaled


def _jet_keys(columns) -> np.ndarray:
    """A 64-bit hash per state of its words ``columns`` (uint64 arrays (B,)).
    Each word is xored in, multiplied by an odd constant, and the high half
    folded into the low half.  A multiply moves bits only upward: without
    the fold, two words that differ only in their sign bits cancel (FNV-1a
    over words merged 77 of SE's 476 distinct matrices into shared keys).
    Equal words give equal keys, and unequal words may too."""
    keys = np.zeros(len(columns[0]), np.uint64)
    for column in columns:
        keys ^= column
        keys *= _KEY_MULTIPLIER
        keys ^= keys >> _KEY_SHIFT
    return keys


def _min_singular_value(mats: np.ndarray) -> float:
    """The smallest singular value over the matrices ``mats`` (B, r, c), from
    one SVD per distinct matrix.  Each matrix is keyed by its exact float64
    bits (so -0.0 and 0.0 stay apart) through ``_jet_keys``, and the states
    are sorted by key.  A matrix is left out only when its bits equal those
    of its predecessor in that order, so a hash collision never lets one
    matrix stand in for another: it costs one more SVD."""
    bits = mats.view(np.uint64)
    columns = [bits[:, i, j] for i in range(mats.shape[1]) for j in range(mats.shape[2])]
    keys = _jet_keys(columns)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeated = keys[1:] == keys[:-1]  # entry i: sorted state i + 1 repeats state i
    if repeated.any():
        for column in columns:
            column = column[order]
            repeated &= column[1:] == column[:-1]
        mats = mats[np.concatenate((order[:1], order[1:][~repeated]))]
    return np.linalg.svd(mats, compute_uv=False)[:, -1].min()


@dataclass(eq=False)
class IntegrabilityReport:
    """Outcome of the involution/independence check for n+1 first integrals."""

    n_integrals: int
    n_samples: int
    max_pairwise_bracket: float
    max_reeb_bracket: float
    min_singular_value: float
    bracket_tol: float
    independence_tol: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "IntegrabilityReport":
        return cls(**data)


def check_integrability(
    sys: HamiltonianSystem,
    integrals: Sequence,
    sample_states: np.ndarray,
    tol: float = 1e-10,
    independence_tol: float = 1e-6,
) -> IntegrabilityReport:
    """Check that ``integrals`` (h_0 = 1, h_1, ..., h_n) are in involution and
    independent over the sampled states.

    Reports the largest pairwise bracket |[h_i, h_j]| (i, j >= 1), the
    largest Reeb bracket |[h_i, 1]|, and the smallest singular value of the
    (n+1) x (2n+1) matrix of Hamiltonian vector fields over the samples.
    That minimum runs one SVD per distinct matrix (``_min_singular_value``)
    and keeps the bits of one SVD per state: a matrix left out has the bits
    of one that is kept, whose SVD is the one it would have had, and a
    minimum does not depend on the order of its values.
    ``tol`` and ``independence_tol`` must be finite numbers >= 0, not booleans.
    """
    if not all(isinstance(t, (int, float)) and not isinstance(t, bool) and 0.0 <= t < math.inf
               for t in (tol, independence_tol)):
        raise ConfigError(f"tol and independence_tol must be finite numbers >= 0, "
                          f"got {tol!r} and {independence_tol!r}")
    n = sys.chart.n
    if len(integrals) != n + 1:
        raise WrongIntegralCount(
            f"expected {n + 1} integrals for a {sys.dim}-dimensional chart, got {len(integrals)}"
        )
    funcs = [sys.prepare(f) for f in integrals]
    if funcs[0] != expr.Const(1.0):
        raise WrongIntegralCount("the first integral must be the constant 1")
    states = np.asarray(sample_states, dtype=float)
    if states.ndim != 2 or len(states) < 1 or states.shape[1] != sys.dim:
        raise ConfigError(
            f"sample_states must have shape (B >= 1, {sys.dim}), got {states.shape}"
        )
    # [h_i, 1]: the d_eta term vanishes for a constant only after
    # contraction, so compute it honestly.
    pairs = [(i, 0) for i in range(1, n + 1)]
    pairs += [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    jets, brackets = _brackets(sys, "check_integrability", funcs, pairs, states)
    reeb, pair = np.array(brackets[:n]), np.array(brackets[n:])
    min_sv = _min_singular_value(jets[:, :, :sys.dim])
    max_reeb = np.abs(reeb).max()
    max_pair = np.abs(pair).max(initial=0.0)

    passed = max_pair <= tol and max_reeb <= tol and min_sv >= independence_tol
    return IntegrabilityReport(
        n_integrals=n + 1,
        n_samples=len(states),
        max_pairwise_bracket=float(max_pair),
        max_reeb_bracket=float(max_reeb),
        min_singular_value=float(min_sv),
        bracket_tol=float(tol),
        independence_tol=float(independence_tol),
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# Test and diagnostic utilities
# ---------------------------------------------------------------------------

def sample_states(chart, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` chart states away from coordinate singularities."""
    rng = np.random.default_rng(seed)
    return chart.sample_states(count, rng)


def contact_nondegeneracy(chart, x) -> float:
    """|det| of d_eta restricted to ker(eta) at ``x``; nonzero iff the contact
    condition eta ^ (d_eta)^n != 0 holds there."""
    x = np.asarray(x, dtype=float)
    eta = chart.eta(x)
    # rows of vh spanning the orthogonal complement of eta = kernel basis
    _, _, vh = np.linalg.svd(eta[None, :])
    kernel = vh[1:]
    restricted = kernel @ chart.d_eta(x) @ kernel.T
    return abs(float(np.linalg.det(restricted)))
