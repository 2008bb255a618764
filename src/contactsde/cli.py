"""Batch command-line interface.

Subcommands::

    simulate            integrate one trajectory, write CSV (t, coords..., lambda)
    verify-contact      contact-defect convergence + conformal-factor report (JSON)
    check-integrability involution/independence report for given first integrals
    bracket             Jacobi bracket of two expressions at a state
    monte-carlo         ensemble statistics of an observable at the final time
    convergence         strong self-convergence study against the finest grid
    list-systems        available catalog systems

Exit codes: 0 ok, 1 verification failed, 2 configuration error, 3 numerical
failure.  Every command is deterministic given (config, seed): outputs are
byte-identical across runs and worker counts.

The run configuration is a single JSON document; individual flags override
fields.  Reports embed the fully resolved "effective config", which reloads
to an equivalent run.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import catalog as cat
from . import geometry as geo
from . import verification as ver
from .errors import (
    ConfigError,
    DomainError,
    ExprSyntaxError,
    IndivisibleFactor,
    InvalidStep,
    MidpointDivergence,
    MissingTangentData,
    NumericalFailure,
    SingularChartPoint,
    UnknownIdentifier,
    WrongIntegralCount,
)
from .flow import SCHEMES, _conformal_factor, _integrate_conformal, _n_steps, sample_brownian

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

_CONFIG_ERRORS = (
    ConfigError, ExprSyntaxError, UnknownIdentifier, WrongIntegralCount,
    IndivisibleFactor, InvalidStep,
)
_NUMERICAL_ERRORS = (
    SingularChartPoint, MidpointDivergence, DomainError, NumericalFailure,
    MissingTangentData,
)


@dataclass
class RunConfig:
    system: object            # catalog id (str) or inline dict
    t0: float = 0.0
    T: float = 1.0
    dt: float = 1e-3
    scheme: str = "heun"
    seed: int = 0
    initial_state: Optional[list] = None
    params: dict = field(default_factory=dict)
    workers: int = 1
    conformal_factor: Optional[str] = None

    def to_dict(self) -> dict:
        # workers is an execution detail, deliberately left out: reports must
        # be byte-identical for any worker count.
        data = asdict(self)
        del data["workers"]
        return data


def _number(data: dict, name: str, kind, default):
    """Config field ``name`` converted by ``kind``; ``default`` if absent.
    No field takes a boolean, and an integer field takes no number that
    ``int`` would change."""
    value = data.get(name, default)
    if kind is int and (isinstance(value, bool)
                        or isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def load_config(path: Optional[str], args) -> RunConfig:
    data = {}
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = RunConfig(system=data.get("system", "dissipative-2d"))
    for name in ("t0", "T", "dt"):
        setattr(cfg, name, _number(data, name, float, getattr(cfg, name)))
    cfg.scheme = data.get("scheme", cfg.scheme)
    cfg.seed = _number(data, "seed", int, cfg.seed)
    cfg.initial_state = data.get("initial_state")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"params must be an object, got {params!r}")
    cfg.params = dict(params)
    cfg.workers = _number(data, "workers", int, 1)
    cfg.conformal_factor = data.get("conformal_factor")
    if cfg.conformal_factor is not None and not isinstance(cfg.conformal_factor, str):
        raise ConfigError(f"conformal_factor must be an expression, got {cfg.conformal_factor!r}")

    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "dt", None) is not None:
        cfg.dt = args.dt
    if getattr(args, "scheme", None) is not None:
        cfg.scheme = args.scheme
    if getattr(args, "workers", None) is not None:
        cfg.workers = args.workers

    if cfg.scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {cfg.scheme!r}")
    _n_steps(cfg.T - cfg.t0, cfg.dt)
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.seed >= 2**64:
        # Noise streams are seeded modulo 2^64: a larger seed would alias.
        raise ConfigError(f"seed must be < 2^64, got {cfg.seed}")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    return cfg


def resolve_system(cfg: RunConfig) -> geo.HamiltonianSystem:
    if isinstance(cfg.system, str):
        entry = cat.get_entry(cfg.system)
        system = entry.system(**cfg.params)
        if cfg.initial_state is None:
            cfg.initial_state = list(entry.default_initial_state)
        if cfg.conformal_factor is None and entry.conformal_factor_source is not None:
            params = dict(entry.default_params)
            params.update(cfg.params)
            cfg.conformal_factor = entry.conformal_factor_source(params, cfg.t0)
        return system
    if not isinstance(cfg.system, dict):
        raise ConfigError("system must be a catalog id or an inline object")
    if cfg.params:
        raise ConfigError(f"params {sorted(cfg.params)} apply to catalog systems only; "
                          "give an inline system's numbers in its constants")
    inline = dict(cfg.system)
    chart = geo.chart_by_id(inline.get("chart"), inline.get("n"))
    h0 = inline.get("h0", "0")
    if not isinstance(h0, str):
        raise ConfigError(f"h0 must be an expression, got {h0!r}")
    noise = inline.get("noise", [])
    if not isinstance(noise, list) or not all(isinstance(h, str) for h in noise):
        raise ConfigError(f"noise must be a list of expressions, got {noise!r}")
    system = geo.HamiltonianSystem(
        chart,
        h0,
        noise,
        constants=inline.get("constants", {}),
    )
    if cfg.initial_state is None:
        raise ConfigError("initial_state is required for inline systems")
    return system


def path_setup(args) -> tuple:
    """``(cfg, system, x0, path)`` of a command that integrates the seeded
    Brownian path of its configured grid."""
    cfg = load_config(args.config, args)
    system = resolve_system(cfg)
    n = _n_steps(cfg.T - cfg.t0, cfg.dt)
    x0 = initial_state(cfg, system)
    return cfg, system, x0, sample_brownian(system.d, n, cfg.dt, cfg.seed, t0=cfg.t0)


def initial_state(cfg: RunConfig, system: geo.HamiltonianSystem) -> np.ndarray:
    try:
        if isinstance(cfg.initial_state, list) and any(isinstance(v, bool)
                                                       for v in cfg.initial_state):
            raise TypeError("a boolean is not a number")
        x0 = np.asarray(cfg.initial_state, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(
            f"initial_state must be a list of numbers, got {cfg.initial_state!r}"
        ) from None
    if x0.shape != (system.dim,):
        raise ConfigError(
            f"initial_state must have length {system.dim}, got {x0.shape}"
        )
    return x0


def _write(text: str, out: Optional[str]) -> None:
    """``text`` to the file ``out``, or to stdout without one.  A file that
    cannot be written is a configuration error, like a config that cannot
    be read."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write output: {e}") from None


def _emit_json(payload: dict, out: Optional[str]) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_list_systems(args) -> int:
    entries = []
    for name in sorted(cat.CATALOG):
        entry = cat.CATALOG[name]
        system = entry.system()
        entries.append({
            "id": entry.id,
            "description": entry.description,
            "chart": system.chart.kind,
            "dim": system.dim,
            "noise_channels": system.d,
            "default_params": entry.default_params,
            "default_initial_state": list(entry.default_initial_state),
        })
    _emit_json({"systems": entries}, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg, system, x0, path = path_setup(args)
    states, log_lambdas = _integrate_conformal(system, x0, path, cfg.scheme)
    header = "t," + ",".join(system.chart.names) + ",lambda\n"
    # One format per row: t, the state and lambda, each with 17 significant digits.
    row = ",".join(["%.17g"] * (system.dim + 2)) + "\n"
    lines = [header]
    for i, (state, log_lambda) in enumerate(zip(states.tolist(), log_lambdas.tolist())):
        lines.append(row % (cfg.t0 + i * cfg.dt, *state, _conformal_factor(log_lambda, "simulate")))
    _write("".join(lines), args.out)
    if args.out:
        sys.stdout.write(json.dumps({"config": cfg.to_dict()}, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_verify_contact(args) -> int:
    cfg, system, x0, finest = path_setup(args)
    report, traj = ver._defect_ladder(system, x0, finest, cfg.scheme, args.levels)
    lam_dev = None
    if cfg.conformal_factor is not None:
        lam_dev = ver.conformal_factor_check(traj, cfg.conformal_factor)
    payload = {
        "config": cfg.to_dict(),
        "dt_levels": report.dts,
        "defect_sup": report.errors,
        "fitted_orders": report.orders,
        "max_defect_finest": report.errors[-1],
        "lambda_final": _conformal_factor(traj.log_lambda[-1], "verify-contact"),
        "lambda_max_deviation": lam_dev,
        "strict_contactomorphism": bool(np.all(traj.log_lambda == 0.0)),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_check_integrability(args) -> int:
    cfg = load_config(args.config, args)
    system = resolve_system(cfg)
    if not args.integral:
        raise ConfigError("at least one --integral is required")
    if args.samples < 1:
        raise ConfigError("samples must be >= 1")
    states = geo.sample_states(system.chart, args.samples, cfg.seed)
    report = geo.check_integrability(system, args.integral, states, tol=args.tol)
    payload = {"config": cfg.to_dict(), "integrals": list(args.integral)}
    payload.update(report.to_dict())
    _emit_json(payload, args.out)
    if not report.passed and not args.report_only:
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK


def cmd_bracket(args) -> int:
    cfg = load_config(args.config, args)
    system = resolve_system(cfg)
    if args.state is not None:
        try:
            x = np.array([float(v) for v in args.state.split(",")])
        except ValueError:
            raise ConfigError(f"state is not a comma-separated number list: {args.state!r}") from None
        if x.shape != (system.dim,):
            raise ConfigError(f"state must have {system.dim} components")
    else:
        x = initial_state(cfg, system)
    value = geo.jacobi_bracket(system, args.f, args.g, x)
    payload = {
        "config": cfg.to_dict(),
        "f": args.f,
        "g": args.g,
        "state": x.tolist(),
        "bracket": value,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_monte_carlo(args) -> int:
    cfg = load_config(args.config, args)
    system = resolve_system(cfg)
    x0 = initial_state(cfg, system)
    stats = ver.monte_carlo(
        system, x0, cfg.T, cfg.dt, args.paths, cfg.seed, args.observable,
        t0=cfg.t0, scheme=cfg.scheme, workers=cfg.workers,
    )
    payload = {"config": cfg.to_dict()}
    payload.update(stats.to_dict())
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_convergence(args) -> int:
    cfg, system, x0, finest = path_setup(args)
    report = ver.convergence_study(system, x0, finest, cfg.scheme, args.levels)
    payload = {"config": cfg.to_dict()}
    payload.update(report.to_dict())
    _emit_json(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser(commands=None) -> argparse.ArgumentParser:
    """The CLI's parser.  Every subcommand is listed, but only those named
    in ``commands`` (all when None) get their options: a parse reads only
    the subparser that an argument equal to its name selects, so a parser
    built for the words of ``argv`` parses ``argv``, and prints its help
    and errors, as the full one does."""
    parser = argparse.ArgumentParser(
        prog="contactsde",
        description="Simulate and verify stochastic contact Hamiltonian systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, func, options):
        p = sub.add_parser(name, help=help)
        if commands is None or name in commands:
            options(p)
        p.set_defaults(func=func)

    def common(p):
        p.add_argument("--config", default=None, help="path to a JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--dt", type=float, default=None, help="override step size")
        p.add_argument("--scheme", choices=SCHEMES, default=None, help="override scheme")
        p.add_argument("--workers", type=int, default=None, help="worker processes")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    def levels(p):
        common(p)
        p.add_argument("--levels", type=int, default=3, help="number of nested dt levels")

    def check_integrability(p):
        common(p)
        p.add_argument("--integral", action="append", default=[],
                       help="first integral source (repeatable; first must be 1)")
        p.add_argument("--samples", type=int, default=100, help="number of sampled states")
        p.add_argument("--tol", type=float, default=1e-10, help="bracket tolerance")
        p.add_argument("--report-only", action="store_true",
                       help="always exit 0; report the outcome only")

    def bracket(p):
        common(p)
        p.add_argument("-f", required=True, help="first expression")
        p.add_argument("-g", required=True, help="second expression")
        p.add_argument("--state", default=None, help="comma-separated state (default: initial state)")

    def monte_carlo(p):
        common(p)
        p.add_argument("--observable", required=True, help="expression over chart coordinates")
        p.add_argument("--paths", type=int, default=1000, help="number of noise streams")

    def list_systems(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    add("simulate", "integrate one trajectory to CSV", cmd_simulate, common)
    add("verify-contact", "contact-structure preservation report", cmd_verify_contact, levels)
    add("check-integrability", "involution/independence report", cmd_check_integrability,
        check_integrability)
    add("bracket", "Jacobi bracket of two expressions", cmd_bracket, bracket)
    add("monte-carlo", "ensemble statistics of an observable", cmd_monte_carlo, monte_carlo)
    add("convergence", "strong self-convergence study", cmd_convergence, levels)
    add("list-systems", "available catalog systems", cmd_list_systems, list_systems)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(set(argv)).parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except RecursionError:
        # The expression walks recurse once per level of nesting.  Parsing and
        # HamiltonianSystem.prepare name an expression too deep for them; one
        # deep enough only for its derivatives or its compiled tape ends here.
        print("config error: an expression is nested too deeply to differentiate or compile",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except _NUMERICAL_ERRORS as e:
        op = getattr(e, "operation", args.command)
        print(f"numerical failure in {op}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
