import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsde import catalog, expr, geometry as geo
from contactsde.errors import DomainError, ExprSyntaxError, UnknownIdentifier

NAMES = ["q1", "q2", "p1", "p2", "z", "m", "gamma", "theta1", "phi1"]


def flatten_sum(e):
    if isinstance(e, expr.BinOp) and e.op == "+":
        return flatten_sum(e.left) + flatten_sum(e.right)
    return [e]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_hamiltonian_summands():
    e = expr.parse("p1^2/(2*m) + (q1^2+q2^2)/2 + gamma*z", NAMES)
    # only neutral-element folding is applied, so the parenthesised potential
    # stays one summand
    assert len(flatten_sum(e)) == 3
    value = expr.evaluate(e, dict(q1=1, q2=0, p1=2, p2=0, z=0, m=1, gamma=0.5))
    assert value == 2.5


def test_parse_constant():
    assert expr.parse("1", NAMES) == expr.Const(1.0)


def test_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse("p1 + * q1", NAMES)
    assert err.value.token == "*"
    assert err.value.position == 5


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        expr.parse("p1 + w", ["p1"])
    assert err.value.name == "w"


def test_parse_rejects_variable_exponent():
    with pytest.raises(ExprSyntaxError):
        expr.parse("p1^q1", NAMES)
    # constant arithmetic in the exponent folds and is accepted
    e = expr.parse("q1^(3 - 1)", NAMES)
    assert expr.evaluate(e, {"q1": 3.0}) == 9.0


def test_parse_precedence():
    assert expr.evaluate(expr.parse("2^3^2", NAMES), {}) == 512.0  # right assoc
    assert expr.evaluate(expr.parse("-2^2", NAMES), {}) == -4.0    # ^ binds above unary minus
    assert expr.evaluate(expr.parse("1 - 2 - 3", NAMES), {}) == -4.0
    assert expr.evaluate(expr.parse("q1^-2", NAMES), {"q1": 2.0}) == 0.25


def test_parse_functions_and_errors():
    assert expr.evaluate(expr.parse("log(exp(1))", NAMES), {}) == 1.0
    with pytest.raises(ExprSyntaxError):
        expr.parse("tan(q1)", NAMES)
    with pytest.raises(ExprSyntaxError):
        expr.parse("q1 +", NAMES)
    with pytest.raises(ExprSyntaxError):
        expr.parse("(q1", NAMES)
    with pytest.raises(ValueError):
        expr.parse("q1", [])


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_derivative_examples():
    ctx = dict(q1=0.7, p1=1.3, z=2.0, m=1.5, gamma=0.5, theta1=0.0)
    d = expr.differentiate(expr.parse("gamma*z", NAMES), "z")
    assert expr.evaluate(d, ctx) == 0.5
    d = expr.differentiate(expr.parse("p1^2/(2*m)", NAMES), "p1")
    assert expr.evaluate(d, ctx) == pytest.approx(1.3 / 1.5, abs=1e-15)
    d = expr.differentiate(expr.parse("(1/3)*cos(theta1)", NAMES), "theta1")
    assert expr.evaluate(d, {"theta1": 0.0}) == 0.0
    assert expr.evaluate(d, {"theta1": math.pi / 2}) == pytest.approx(-1.0 / 3.0, abs=1e-15)


def _random_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return expr.Const(round(float(rng.uniform(-3, 3)), 3))
        return expr.Var(str(rng.choice(names)))
    kind = rng.choice(["+", "-", "*", "/", "^", "sin", "cos", "exp", "log", "neg"])
    a = _random_expr(rng, names, depth - 1)
    if kind in "+-*":
        b = _random_expr(rng, names, depth - 1)
        return {"+": expr.add, "-": expr.sub, "*": expr.mul}[kind](a, b)
    if kind == "/":
        b = _random_expr(rng, names, depth - 1)
        safe = expr.add(expr.Const(2.0), expr.mul(b, b))  # bounded away from zero
        return expr.div(a, safe)
    if kind == "^":
        return expr.power(expr.mul(a, a), expr.Const(float(rng.integers(1, 4))))
    if kind == "log":
        return expr.log(expr.add(expr.Const(1.5), expr.mul(a, a)))
    if kind == "exp":
        return expr.exp(expr.mul(expr.Const(0.1), a))
    if kind == "neg":
        return expr.negate(a)
    return {"sin": expr.sin, "cos": expr.cos}[kind](a)


def test_derivative_matches_finite_differences(rng):
    names = ["x", "y", "w"]
    h = 1e-6
    checked = 0
    for _ in range(100):
        e = _random_expr(rng, names, 4)
        for v in names:
            d = expr.differentiate(e, v)
            ctx = {n: float(rng.uniform(-1.5, 1.5)) for n in names}
            up = dict(ctx, **{v: ctx[v] + h})
            dn = dict(ctx, **{v: ctx[v] - h})
            try:
                fd = (expr.evaluate(e, up) - expr.evaluate(e, dn)) / (2 * h)
                exact = expr.evaluate(d, ctx)
            except DomainError:
                continue
            assert abs(exact - fd) <= 1e-5 * (1.0 + abs(exact))
            checked += 1
    assert checked > 200


def test_derivative_linearity(rng):
    names = ["x", "y"]
    for _ in range(25):
        f = _random_expr(rng, names, 3)
        g = _random_expr(rng, names, 3)
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        combo = expr.add(expr.mul(expr.Const(a), f), expr.mul(expr.Const(b), g))
        d_combo = expr.differentiate(combo, "x")
        df, dg = expr.differentiate(f, "x"), expr.differentiate(g, "x")
        for _ in range(4):
            ctx = {n: float(rng.uniform(-1.5, 1.5)) for n in names}
            try:
                lhs = expr.evaluate(d_combo, ctx)
                rhs = a * expr.evaluate(df, ctx) + b * expr.evaluate(dg, ctx)
            except DomainError:
                continue
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_second_derivatives_compose(rng):
    e = expr.parse("sin(q1*p1) + q1^3", ["q1", "p1"])
    d2 = expr.differentiate(expr.differentiate(e, "q1"), "q1")
    ctx = {"q1": 0.7, "p1": -0.4}
    h = 1e-4
    up = expr.evaluate(e, {"q1": 0.7 + h, "p1": -0.4})
    dn = expr.evaluate(e, {"q1": 0.7 - h, "p1": -0.4})
    mid = expr.evaluate(e, ctx)
    fd2 = (up - 2 * mid + dn) / h**2
    assert expr.evaluate(d2, ctx) == pytest.approx(fd2, abs=1e-6)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_examples():
    assert expr.evaluate(expr.parse("gamma*z", NAMES), {"gamma": 0.5, "z": 2.0}) == 1.0
    v = expr.evaluate(expr.parse("(1/3)*cos(theta1)", NAMES), {"theta1": 0.0})
    assert v == pytest.approx(1.0 / 3.0, abs=1e-16)


def test_eval_domain_errors():
    with pytest.raises(DomainError) as err:
        expr.evaluate(expr.parse("log(z)", NAMES), {"z": -1.0})
    assert err.value.node is not None
    with pytest.raises(DomainError):
        expr.evaluate(expr.parse("q1/(p1 - p1)", NAMES), {"q1": 1.0, "p1": 2.0})
    with pytest.raises(DomainError):
        expr.evaluate(expr.parse("(q1 - 2)^0.5", NAMES), {"q1": 1.0})


def test_eval_unbound_variable():
    with pytest.raises(UnknownIdentifier):
        expr.evaluate(expr.parse("q1 + z", NAMES), {"q1": 1.0})


# ---------------------------------------------------------------------------
# tapes
# ---------------------------------------------------------------------------

def test_tape_single_push_for_constant():
    tape = expr.compile_tape(expr.Const(1.0), NAMES)
    assert len(tape) == 0  # a constant is a parameter, not an operation
    assert tape([0.0] * len(NAMES)) == 1.0
    assert expr.compile_tape(expr.Const(1.0), [])([]) == 1.0


def test_tape_loads_and_divide():
    tape = expr.compile_tape(expr.parse("p1/m", NAMES), ["q1", "p1", "z", "m"])
    assert len(tape) == 1  # loads are not operations; the division is
    assert tape([0.0, 3.0, 0.0, 2.0]) == 1.5


def test_tape_unknown_slot():
    with pytest.raises(UnknownIdentifier):
        expr.compile_tape(expr.parse("p1/m", NAMES), ["q1", "p1", "z"])


def test_tape_matches_tree_bitwise(rng):
    names = ["x", "y", "w"]
    matched = 0
    for _ in range(60):
        e = _random_expr(rng, names, 4)
        tape = expr.compile_tape(e, names)
        for _ in range(20):
            ctx = {n: float(rng.uniform(-2, 2)) for n in names}
            values = [ctx[n] for n in names]
            try:
                tree_val = expr.evaluate(e, ctx)
            except DomainError as tree_err:
                with pytest.raises(DomainError) as tape_err:
                    tape(values)
                assert str(tape_err.value) == str(tree_err)
                continue
            assert tape(values) == tree_val  # identical ops in identical order
            matched += 1
    assert matched > 400


def test_tape_batch_matches_scalar(rng):
    e = expr.parse("sin(q1)*p1 + exp(0.1*z) - q1/(2 + p1^2)", ["q1", "p1", "z"])
    tape = expr.compile_tape(e, ["q1", "p1", "z"])
    batch = rng.uniform(-2, 2, size=(32, 3))
    vec = tape([batch[:, 0], batch[:, 1], batch[:, 2]])
    for i in range(32):
        scalar = tape([float(batch[i, 0]), float(batch[i, 1]), float(batch[i, 2])])
        assert vec[i] == pytest.approx(scalar, abs=1e-15)


def test_tape_domain_error_carries_node():
    e = expr.parse("1/z", NAMES)
    tape = expr.compile_tape(e, ["z"])
    expected = f"division by zero in {e!r}"
    with pytest.raises(DomainError) as err:
        tape([0.0])
    assert str(err.value) == expected
    with pytest.raises(DomainError) as err:
        expr.evaluate(tape, {"z": np.float64(0.0)})
    assert str(err.value) == expected


@pytest.mark.parametrize("source, column, fault", [
    ("log(q1) + 1/(q1 - 2)", [1.0, -1.0, 2.0], "log of non-positive value"),
    ("log(q1) + 1/(q1 - 2)", [1.0, 2.0, -1.0], "division by zero"),
    ("log(q1 + 2) + sin(q1*1e300*1e300)", [1e-310, 1.0, -3.0], "sin of infinite value"),
    ("log(q1 + 2) + q1^0.5", [1.0, -1.0, -3.0], "invalid power"),
], ids=["log", "division", "sin_inf", "power"])
def test_tape_batch_raises_the_domain_error_of_its_first_faulting_path(source, column, fault):
    # Path 1 faults first; path 2 faults too, with another message.  A batch
    # used to return NaN or inf with a RuntimeWarning.
    tape = expr.compile_tape(expr.parse(source, NAMES), ["q1"])
    alone = []
    for value in column[1:]:
        with pytest.raises(DomainError) as err:
            tape([value])
        alone.append(str(err.value))
    assert alone[0].startswith(fault) and alone[1] != alone[0]
    for batch in ([np.array(column)], np.array([column])):
        with pytest.raises(DomainError) as err:
            tape(batch)
        assert str(err.value) == alone[0]


def test_tape_batch_overflow_that_no_path_raises_alone_is_inf():
    tape = expr.compile_tape(expr.parse("q1*q1", NAMES), ["q1"])
    assert tape([1e200]) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tape([np.array([1.0, 1e200])]).tolist() == [1.0, math.inf]


@pytest.mark.parametrize("source", ["sin(z*1e300*1e300)", "cos(z*1e300*1e300)"])
@pytest.mark.parametrize("z", [1.0, -1.0])
def test_trig_of_infinity_is_a_domain_error_in_both_evaluators(source, z):
    e = expr.parse(source, NAMES)
    with pytest.raises(DomainError) as tree_err:
        expr.evaluate(e, {"z": z})
    with pytest.raises(DomainError) as tape_err:
        expr.compile_tape(e, ["z"])([z])
    assert str(tape_err.value) == str(tree_err.value)
    assert str(tree_err.value).startswith(f"{source[:3]} of infinite value in Func(")


def test_tape_set_matches_one_expression_tapes_bitwise(rng):
    names = ["x", "y", "w"]
    batch = rng.uniform(-2, 2, size=(3, 16))
    for _ in range(20):
        base = [_random_expr(rng, names, 4) for _ in range(3)]
        # Derivatives, a product of two roots and a repeated root share subterms.
        exprs = [*base, *(expr.differentiate(e, n) for e in base for n in names),
                 expr.mul(base[0], base[1]), base[0]]
        tape = expr.compile_tape(exprs, names)
        singles = [expr.compile_tape(e, names) for e in exprs]
        assert len(tape) <= sum(map(len, singles))
        for k in range(batch.shape[1]):
            values = [float(v) for v in batch[:, k]]
            got = tape(values)
            assert type(got) is tuple and len(got) == len(exprs)
            assert np.array(got).tobytes() == np.array([t(values) for t in singles]).tobytes()
        columns = list(batch)
        for got, single in zip(tape(columns), singles):
            assert np.asarray(got).tobytes() == np.asarray(single(columns)).tobytes()


def test_tape_set_keys_constants_by_bits():
    # Const(0.0) == Const(-0.0), but 0.0 - x and -0.0 - x differ at x = 0.
    x = expr.Var("x")
    tape = expr.compile_tape(
        [expr.BinOp("-", expr.Const(0.0), x), expr.BinOp("-", expr.Const(-0.0), x)], ["x"])
    assert len(tape) == 2
    got = tape([0.0])
    assert got == (0.0, -0.0)
    assert [math.copysign(1.0, v) for v in got] == [1.0, -1.0]
    assert [np.signbit(v).tolist() for v in tape([np.zeros(2)])] == [[False, False], [True, True]]


def _unshared(e):
    """``e`` rebuilt node by node, so no two of its subtrees are one object."""
    if isinstance(e, expr.BinOp):
        return expr.BinOp(e.op, _unshared(e.left), _unshared(e.right))
    if isinstance(e, expr.Func):
        return expr.Func(e.fn, _unshared(e.arg))
    return dataclasses.replace(e)


def _node_ids(roots) -> list:
    out, stack = [], list(roots)
    while stack:
        e = stack.pop()
        out.append(id(e))
        stack.extend(getattr(e, f) for f in ("left", "right", "arg") if hasattr(e, f))
    return out


def test_a_shared_subtree_compiles_to_the_text_of_its_copies(rng):
    # The code generator walks a subtree shared by reference once; the text
    # must be the one that unshared, equal subtrees give.
    names = ["x", "y", "w"]
    slots = [f"values[{i}]" for i in range(len(names))]
    for _ in range(20):
        base = [_random_expr(rng, names, 4) for _ in range(3)]
        shared = [*base, *(expr.differentiate(e, n) for e in base for n in names),
                  expr.mul(base[0], base[1]), expr.add(base[2], base[2]), base[0]]
        copies = [_unshared(e) for e in shared]
        ids = _node_ids(shared)
        assert len(set(ids)) < len(ids)
        assert len(set(_node_ids(copies))) == len(_node_ids(copies))
        walk = expr._walk(shared, names)
        assert walk == expr._walk(copies, names)
        assert expr._lines(walk, slots, "s") == expr._lines(expr._walk(copies, names), slots, "s")


@pytest.mark.parametrize("sources, z", [
    (["z + 1", "1/z + log(z)", "log(z)"], 0.0),
    (["z + 1", "log(z)", "1/z + log(z)"], 0.0),
    (["exp(1000*z)", "1/(z - 1)"], 1.0),
    (["1/(z - 1)", "exp(1000*z)"], 1.0),
])
def test_tape_set_raises_the_domain_error_of_its_first_faulting_root(sources, z):
    roots = [expr.parse(source, NAMES) for source in sources]
    with pytest.raises(DomainError) as tree_err:
        for root in roots:
            expr.evaluate(root, {"z": z})
    with pytest.raises(DomainError) as tape_err:
        expr.compile_tape(roots, ["z"])([z])
    assert str(tape_err.value) == str(tree_err.value)
    assert tape_err.value.node == tree_err.value.node


def test_tape_set_pickle_round_trip():
    import pickle

    roots = [expr.parse(s, NAMES) for s in ("sin(q1)*p1", "1", "p1", "sin(q1)*p1 - q1/(2 + p1^2)")]
    for e in (roots, roots[3]):
        tape = expr.compile_tape(e, ["q1", "p1"])
        back = pickle.loads(pickle.dumps(tape))
        assert (back.exprs, back.layout, len(back)) == (tape.exprs, tape.layout, len(tape))
        assert back([0.3, -1.2]) == tape([0.3, -1.2])
    with pytest.raises(DomainError, match="division by zero"):
        pickle.loads(pickle.dumps(expr.compile_tape([expr.parse("1/q1", NAMES)], ["q1"])))([0.0])


_AUGMENTED_STAGE_BOUND = {"sasaki-einstein-t11": 74, "dissipative-2d": 75}


@pytest.mark.parametrize("system_id, bound", [("sasaki-einstein-t11", 64), ("dissipative-2d", 42)])
def test_augmented_tape_set_computes_shared_subterms_once(system_id, bound):
    # The set (X_H, DX_H, R(H)) of every H compiled whole, as the augmented
    # stage once ran it, and the augmented stage's own tape of the roots
    # that are not constant zeros and the chart's margins, in which DX_H J
    # is summed over the structural nonzeros of DX_H and of J.
    system = catalog.get_entry(system_id).system()
    names = system.chart.names
    roots = [
        e for h, comps in zip(system.hamiltonians, system.vector_field_exprs)
        for e in (*comps, *(expr.differentiate(c, name) for c in comps for name in names),
                  system.chart.reeb_derivative_expr(h))
    ]
    tape = expr.compile_tape(roots, names)
    assert len(tape.exprs) == (system.d + 1) * (system.dim * (system.dim + 1) + 1)
    assert len(tape) <= bound
    assert len(system._augmented_stage.tape) <= _AUGMENTED_STAGE_BOUND[system_id]


# ---------------------------------------------------------------------------
# array mode: grouped calls against the per-root text
# ---------------------------------------------------------------------------

def _per_root_array(tape):
    """The oracle: the tape's per-root text bound to numpy functions and
    float64 constants, one ufunc call per operation, as array mode ran before
    like operations were grouped."""
    consts = tape._walk[2]
    lines, names = expr._lines(tape._walk, [f"values[{i}]" for i in range(len(tape.layout))])
    value = "(" + "".join(f"{n}, " for n in names) + ")" if isinstance(tape.exprs, tuple) else names[0]
    namespace = {}
    exec(f"def make(pow, sin, cos, exp, log{expr._params(consts)}):\n    def tape(values):\n"
         + "".join(f"        {line}\n" for line in lines) + f"        return {value}\n    return tape\n",
         namespace)
    run = namespace["make"](np.power, np.sin, np.cos, np.exp, np.log, *map(np.float64, consts))

    def oracle(rows):
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            return run(list(rows))
    return oracle


def _grouped_text(tape):
    ops, results, consts = tape._walk
    return expr._grouped_source(ops, results, isinstance(tape.exprs, tuple), len(consts))


def _per_call(tape) -> str:
    """The tape's grouped text as one line per call, as array mode ran it
    before its groups were bound: each view ``vN = <slice>`` expanded back
    into the calls that read it, and each call written ``gN = fn(operands)``,
    or ``gN = fn(operands, out=gM)`` where gN reuses gM's buffer.  Scalar
    lines stay as they are."""
    lines = [line.strip() for line in _grouped_text(tape).splitlines()]
    views = dict(line.split(" = ") for line in lines if re.fullmatch(r"v\d+ = .*", line))
    reused = dict(line.split(" = ") for line in lines if re.fullmatch(r"g\d+ = g\d+", line))
    out = []
    for line in lines:
        call = re.fullmatch(r"(\w+)\((.*), (g\d+)\)", line)
        if call:
            fn, args, group = call.groups()
            args = ", ".join(views.get(a, a) for a in args.split(", "))
            out.append(f"{group} = {fn}({args}"
                       + (f", out={reused[group]})" if group in reused else ")"))
        elif re.fullmatch(r"t\d+ = .*", line):
            out.append(line)
    return "\n".join(out)


def _dense_system():
    return geo.HamiltonianSystem(
        geo.DarbouxChart(2), "exp(0.1*q1)*p1^2/2 + log(2 + q2^2)*p2^2 + sin(q1)*cos(q2) + z^3/3",
        ["0.1*sin(p1)", "cos(q2)*p2 - z"])


def _array_mode_tapes() -> dict:
    out = {}
    for system_id in ("dissipative-2d", "sasaki-einstein-t11"):
        system = catalog.get_entry(system_id).system()
        for stage in ("state", "augmented", "conformal"):
            out[f"{system_id}/{stage}"] = (system, getattr(system, f"_{stage}_stage").tape)
    se = catalog.get_entry("sasaki-einstein-t11").system()
    jets = [e for f in ("1", "(1/3)*cos(theta1)", "(1/3)*cos(theta2)")
            for e in geo._jet(se.chart, se.prepare(f))]
    out["sasaki-einstein-t11/jets"] = (se, expr.compile_tape(jets, se.chart.names))
    dense = _dense_system()
    for stage in ("state", "augmented"):
        out[f"dense/{stage}"] = (dense, getattr(dense, f"_{stage}_stage").tape)
    return out


_ARRAY_MODE_TAPES = _array_mode_tapes()


def _batch(system, tape, width, seed=0):
    """(n, width) C-ordered inputs: chart states, then uniform J and log lambda."""
    rng = np.random.default_rng(seed)
    states = system.chart.sample_states(width, rng).T
    return np.ascontiguousarray(
        np.vstack([states, rng.uniform(-1, 1, size=(len(tape.layout) - len(states), width))]))


def _bits(values) -> list:
    return [(type(v), np.shape(v), np.asarray(v).tobytes()) for v in values]


@pytest.mark.parametrize("width", [1, 7, 1024, 1031, 5000])
@pytest.mark.parametrize("name", list(_ARRAY_MODE_TAPES))
def test_grouped_array_mode_matches_the_per_root_text_bit_for_bit(name, width):
    system, tape = _ARRAY_MODE_TAPES[name]
    rows = _batch(system, tape, width)
    expected = _bits(_per_root_array(tape)(rows))
    transposed = np.ascontiguousarray(rows.T).T  # as _eval passes x.T
    for layout in (rows, transposed, [row.copy() for row in rows]):
        assert _bits(tape(layout)) == expected


@pytest.mark.parametrize("sources, layout, texts", [
    (["q1*p1", "q1*p2"], ["q1", "q2", "p1", "p2"], ["multiply(rows[0:1], rows[2:4])"]),
    (["q1*p2", "q2*p1"], ["q1", "q2", "p1", "p2"], ["multiply(rows[0:2], rows[3:1:-1])"]),
    (["q1*q2", "q2*q1"], ["q1", "q2"], ["multiply(rows[0:2], rows[1::-1])"]),
    (["sin(q1) + 1", "sin(p1) + 1", "sin(q2) + 2"], ["q1", "p1", "q2"],
     ["sin(rows[0:3])", "add(g0[0:2], c0)", "add(g0[2:3], c1)"]),
])
def test_grouped_slices_read_the_rows_of_the_per_root_text(sources, layout, texts):
    # A repeated row broadcasts as a one-row block, a falling row is a
    # negative step, and a group splits where its constant operand differs.
    tape = expr.compile_tape([expr.parse(source, NAMES) for source in sources], layout)
    assert all(text in _per_call(tape) for text in texts)
    for width in (7, 1031):
        rows = np.random.default_rng(width).uniform(0.5, 2.0, size=(len(layout), width))
        assert _bits(tape(rows)) == _bits(_per_root_array(tape)(rows))


def test_grouped_text_runs_fewer_calls_than_operations():
    counts = {name: (len(tape), len(_per_call(tape).splitlines()))
              for name, (_, tape) in _ARRAY_MODE_TAPES.items()}
    assert all(calls < ops for ops, calls in counts.values())
    assert counts["dissipative-2d/state"] == (34, 16)
    assert counts["sasaki-einstein-t11/state"] == (26, 13)
    assert counts["sasaki-einstein-t11/jets"] == (24, 12)


def test_grouped_text_writes_no_input_and_no_returned_row():
    # Every operand is a basic slice and every call writes a group.  A group
    # that reuses a dead group's buffer (``g6 = g2``) writes it only after
    # the last call that reads the dead group, and no returned row lives in
    # a reused buffer.  (A returned row written over would fail the
    # bit-for-bit test above.)  Every tape here reuses at least one buffer.
    for name, (system, tape) in _ARRAY_MODE_TAPES.items():
        lines = [line.strip() for line in _grouped_text(tape).splitlines()]
        views = dict(line.split(" = ") for line in lines if re.fullmatch(r"v\d+ = .*", line))
        reuses = [line.split(" = ") for line in lines if re.fullmatch(r"g\d+ = g\d+", line)]
        calls = [re.fullmatch(r"\w+\((.*), (\w+)\)", line).groups()
                 for line in lines if re.fullmatch(r"\w+\(.*\)", line)]
        returned = next(line for line in lines if line.startswith("return (")).split("(", 1)[1]
        assert reuses, name
        assert not any("[[" in line or "take(" in line for line in lines)
        assert all(re.fullmatch(r"g\d+", group) for _, group in calls), name

        def reads(args):
            return {re.match(r"\w+", views.get(a, a)).group() for a in args.split(", ")}
        for group, dead in reuses:
            first = next(n for n, (_, out) in enumerate(calls) if out == group)
            assert not any(dead in reads(args) for args, _ in calls[first:]), (name, group, dead)
            assert not re.search(rf"\b{dead}\[", returned), (name, group, dead)
        rows = _batch(system, tape, 7)
        before = rows.tobytes()
        tape(rows)
        assert rows.tobytes() == before


@pytest.mark.parametrize("system_id", ["dissipative-2d", "sasaki-einstein-t11"])
def test_grouped_text_control_with_two_members_swapped_misses(system_id):
    # Negative control: the first two-row view of the input in the state
    # tape reads its rows in swapped order, in every call that reads it.
    # On these 1024 states it misses the per-root text by 1.98 on
    # dissipative-2d in both p rows (gamma*p1 and gamma*p2 swap) and by
    # 15.7 in the z row, and on SE by 26.9 in the theta rows (3/sin(theta_i))
    # and by 0.89 in the margins (sin(theta1) and sin(theta2) swap).
    system, tape = _ARRAY_MODE_TAPES[f"{system_id}/state"]
    text = _grouped_text(tape)
    start = next(int(a) for a, b in re.findall(r"rows\[(\d+):(\d+)\]", text) if int(b) - int(a) == 2)
    swapped = text.replace(f"rows[{start}:{start + 2}]",
                           f"rows[{start + 1}:{start - 1 if start else ''}:-1]", 1)
    assert swapped != text
    namespace = {}
    exec(swapped, namespace)
    consts = tape._walk[2]
    control = namespace["make"](*expr._ARRAY_FUNCTIONS, np.empty, *map(np.float64, consts))
    rows = _batch(system, tape, 1024)
    expected = _per_root_array(tape)(rows)
    got = control(rows)
    miss = max(float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) for a, b in zip(got, expected))
    assert miss > 0.5
    assert _bits(tape(rows)) == _bits(expected)


@pytest.mark.parametrize("column, first", [
    ([[1.0, 2.0, -1.0], [1.0, -1.0, 2.0]], "log(p1)"),   # path 1 faults in p1, path 2 in q1
    ([[1.0, -1.0, 2.0], [1.0, 2.0, -1.0]], "log(q1)"),
    ([[1.0, -1.0], [1.0, -1.0]], "log(q1)"),             # both roots of path 1: q1 first
])
def test_a_fault_inside_a_grouped_call_raises_its_first_faulting_paths_error(column, first):
    e = expr.parse("log(q1) + log(p1)", NAMES)
    tape = expr.compile_tape([e], ["q1", "p1"])
    assert "log(rows[0:2])" in _per_call(tape)  # both logs are one call
    fault = {"log(q1)": expr.Func("log", expr.Var("q1")), "log(p1)": expr.Func("log", expr.Var("p1"))}
    for rows in (np.array(column), [np.array(c) for c in column], np.array(column).T.copy().T):
        with pytest.raises(DomainError) as err:
            tape(rows)
        assert err.value.node == fault[first]


def test_shared_tape_is_thread_safe_in_array_mode():
    from concurrent.futures import ThreadPoolExecutor

    system, _ = _ARRAY_MODE_TAPES["sasaki-einstein-t11/state"]
    batches = [_batch(system, system._state_stage.tape, 64 + i, seed=i) for i in range(32)]
    expected = [_bits(system._state_stage.tape(b)) for b in batches]
    # A fresh tape of the same roots builds its grouped text on a first call
    # that several threads may make at once.
    tape = expr.compile_tape(system._state_stage.tape.exprs, system._state_stage.tape.layout)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda b: _bits(tape(b)), batches, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


def test_eval_accepts_tape():
    e = expr.parse("q1 + 2*z", NAMES)
    tape = expr.compile_tape(e, ["q1", "z"])
    assert expr.evaluate(tape, {"q1": 1.0, "z": 2.0}) == 5.0
    with pytest.raises(UnknownIdentifier):
        expr.evaluate(tape, {"q1": 1.0})


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_round_trip_evaluation(rng):
    names = ["x", "y", "w"]
    for _ in range(30):
        e = _random_expr(rng, names, 4)
        back = expr.parse(expr.to_source(e), names)
        for _ in range(4):
            ctx = {n: float(rng.uniform(-2, 2)) for n in names}
            try:
                original = expr.evaluate(e, ctx)
            except DomainError:
                continue
            assert expr.evaluate(back, ctx) == original


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    c=st.integers(1, 3),
)
def test_round_trip_structured(a, b, c):
    e = expr.add(
        expr.mul(expr.Const(a), expr.sin(expr.Var("x"))),
        expr.power(expr.add(expr.Var("y"), expr.Const(b)), expr.Const(float(c))),
    )
    back = expr.parse(expr.to_source(e), ["x", "y"])
    ctx = {"x": 0.37, "y": -1.21}
    assert expr.evaluate(back, ctx) == expr.evaluate(e, ctx)


def test_substitute_folds_constants():
    e = expr.parse("gamma*z + m", NAMES)
    closed = expr.substitute(e, {"gamma": 2.0, "m": 1.0})
    assert expr.free_variables(closed) == frozenset({"z"})
    assert expr.evaluate(closed, {"z": 3.0}) == 7.0


def test_shared_tape_is_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    e = expr.parse("sin(q1)*p1 + q1^3 - p1/(2 + q1^2)", ["q1", "p1"])
    tape = expr.compile_tape(e, ["q1", "p1"])
    points = [(0.01 * i, -0.02 * i) for i in range(200)]
    expected = [tape([a, b]) for a, b in points]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda ab: tape([ab[0], ab[1]]), points))
    assert results == expected
