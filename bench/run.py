#!/usr/bin/env python3
"""contactsde benchmark: ensemble throughput and time-to-certificate.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The CLI runs in this process (``contactsde.cli.main``, ``--workers 1``).
Inputs depend only on ``--seed``; every operation of a run repeats them.  An
operation fails when a command exits nonzero, an oracle is missed, or its
outputs differ from the run's first operation.  ``--trace 1`` wraps the
package's public entry points (``layertrace.py``) and reports per-layer
figures instead of the end-to-end ones.  The last line of stdout is the JSON
result; the full record goes to ``.bench-out/`` in the checkout.  README.md
next to this file describes the workloads, oracles, metrics and the known
defects the inputs step around.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench-out")
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")

SETUP_PROBES = 9
# Times are reported as seconds on a host where ``reference_seconds`` takes
# exactly REFERENCE_NOMINAL_S and a fresh interpreter imports numpy in
# exactly SETUP_REFERENCE_NOMINAL_S, which cancels drift in host speed:
# operation times are scaled by the first over the kernel timings around
# them, a set-up probe's time by the second over the numpy import timed
# right before it.
REFERENCE_NOMINAL_S = 0.1
SETUP_REFERENCE_NOMINAL_S = 0.15
MIN_SAMPLES = 3
DEFECT_BOUND = 1e-3
SIN_MARGIN = 0.5
MAX_SEED_SCAN = 1000


def _import_package():
    """Import contactsde from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "contactsde", "__init__.py")):
        sys.stderr.write(f"bench: no contactsde sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import contactsde
    if not os.path.abspath(contactsde.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"bench: contactsde imported from {contactsde.__file__}, not {SRC}\n")
        sys.exit(2)
    return contactsde


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def run_cli(argv) -> tuple:
    """One in-process CLI command: (exit code, stdout, stderr)."""
    from contactsde import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _write_config(path: str, cfg: dict) -> str:
    with open(path, "w") as fh:
        json.dump(cfg, fh, sort_keys=True)
    return path


class EnsembleWorkload:
    """One ``monte-carlo`` command; the oracle is a closed-form variance."""

    def __init__(self, name, system, scheme, T, dt, paths, observable, variance):
        self.name = name
        self.system = system
        self.scheme = scheme
        self.T = T
        self.dt = dt
        self.paths = paths
        self.observable = observable
        self.variance = variance
        self.nominal_path_steps = paths * round(T / dt)

    def prepare(self, seed: int, work_dir: str) -> dict:
        cfg = {"system": self.system, "T": self.T, "dt": self.dt,
               "scheme": self.scheme, "seed": seed}
        path = _write_config(os.path.join(work_dir, f"{self.name}.json"), cfg)
        argv = ["monte-carlo", "--config", path, "--observable", self.observable,
                "--paths", str(self.paths), "--workers", "1"]
        return {"master_seed": seed, "skipped_seeds": [], "commands": {"monte-carlo": argv}}

    def outputs(self, inputs: dict, results: dict) -> dict:
        return {name: r[1].encode() for name, r in results.items()}

    def check(self, results: dict, outputs: dict) -> list:
        code, out, _ = results["monte-carlo"]
        if code != 0:
            return [f"monte-carlo exited {code}: {_last_line(results['monte-carlo'][2])}"]
        report = json.loads(out)
        n = report["n_paths"]
        theory = self.variance
        # Gaussian observable: the sample variance has stderr var * sqrt(2 / (n - 1)).
        stderr = theory * math.sqrt(2.0 / (n - 1))
        dev = abs(report["variance"] - theory)
        if n != self.paths or not dev <= 3.0 * stderr:
            return [f"variance {report['variance']!r} vs oracle {theory!r}: "
                    f"|dev| {dev:.3e} > 3 stderr {3 * stderr:.3e} (n={n})"]
        return []


SE_INTEGRALS = ("1", "(1/3)*cos(theta1)", "(1/3)*cos(theta2)")


class CertifyWorkload:
    """The structure-certification session of four commands on one seed."""

    levels = 4
    samples = 5000

    def __init__(self, name):
        self.name = name
        self.system = "sasaki-einstein-t11"
        self.scheme = "heun"
        self.T = 0.048
        self.dt = 6.25e-5
        n = round(self.T / self.dt)
        ladder = sum(n >> j for j in range(self.levels))
        # verify-contact and convergence each integrate the whole ladder;
        # simulate integrates the finest grid once.
        self.nominal_path_steps = 2 * ladder + n

    def _on_chart(self, system, x0, seed: int) -> bool:
        from contactsde import flow
        from contactsde.errors import DomainError, NumericalFailure, SingularChartPoint
        import numpy as np
        n = round(self.T / self.dt)
        path = flow.sample_brownian(system.d, n, self.dt, seed)
        try:
            for j in range(self.levels):
                states = flow.integrate(system, x0, flow.coarsen(path, 2 ** j), self.scheme).states
                if float(np.min(np.abs(np.sin(states[:, :2])))) < SIN_MARGIN:
                    return False
        except (SingularChartPoint, NumericalFailure, DomainError):
            return False
        return True

    def prepare(self, seed: int, work_dir: str) -> dict:
        from contactsde import catalog
        import numpy as np
        entry = catalog.get_entry(self.system)
        system = entry.system()
        x0 = np.array(entry.default_initial_state)
        skipped = []
        master = seed
        while not self._on_chart(system, x0, master):
            skipped.append(master)
            if len(skipped) >= MAX_SEED_SCAN:
                raise RuntimeError(f"no on-chart seed in [{seed}, {master}]")
            master += 1
        cfg = {"system": self.system, "T": self.T, "dt": self.dt,
               "scheme": self.scheme, "seed": master}
        path = _write_config(os.path.join(work_dir, f"{self.name}.json"), cfg)
        csv_path = os.path.join(work_dir, f"{self.name}.csv")
        integrals = []
        for source in SE_INTEGRALS:
            integrals += ["--integral", source]
        return {
            "master_seed": master,
            "skipped_seeds": skipped,
            "csv": csv_path,
            "commands": {
                "verify-contact": ["verify-contact", "--config", path, "--levels", str(self.levels)],
                "convergence": ["convergence", "--config", path, "--levels", str(self.levels)],
                "simulate": ["simulate", "--config", path, "--out", csv_path],
                "check-integrability": ["check-integrability", "--config", path,
                                        "--samples", str(self.samples), *integrals],
            },
        }

    def outputs(self, inputs: dict, results: dict) -> dict:
        out = {name: r[1].encode() for name, r in results.items()}
        if os.path.exists(inputs["csv"]):
            with open(inputs["csv"], "rb") as fh:
                out["simulate.csv"] = fh.read()
            os.remove(inputs["csv"])  # never let the next operation see a stale file
        return out

    def check(self, results: dict, outputs: dict) -> list:
        problems = [f"{name} exited {r[0]}: {_last_line(r[2])}"
                    for name, r in results.items() if r[0] != 0]
        if problems:
            return problems
        verify = json.loads(results["verify-contact"][1])
        if verify["strict_contactomorphism"] is not True or verify["lambda_final"] != 1.0:
            problems.append(f"lambda_final {verify['lambda_final']!r}, strict "
                            f"{verify['strict_contactomorphism']!r}")
        if not verify["max_defect_finest"] < DEFECT_BOUND:
            problems.append(f"max_defect_finest {verify['max_defect_finest']!r} >= {DEFECT_BOUND}")
        if json.loads(results["check-integrability"][1])["passed"] is not True:
            problems.append("integrability not passed")
        if "simulate.csv" not in outputs:
            return problems + ["simulate wrote no CSV"]
        margin = math.inf
        for line in outputs["simulate.csv"].decode().splitlines()[1:]:
            fields = line.split(",")
            margin = min(margin, abs(math.sin(float(fields[1]))), abs(math.sin(float(fields[2]))))
        if not margin >= SIN_MARGIN:
            problems.append(f"simulated path reaches |sin theta_i| = {margin:.3f} < {SIN_MARGIN}")
        return problems


_EPS, _GAMMA, _T = 0.1, 0.5, 1.0  # dissipative-2d default parameters and horizon
WORKLOADS = {w.name: w for w in (
    EnsembleWorkload(
        "ensemble-dissipative",
        "dissipative-2d", "heun", _T, 1e-3, 4096, "z",
        _EPS ** 2 * (1.0 - math.exp(-2.0 * _GAMMA * _T)) / (2.0 * _GAMMA),
    ),
    EnsembleWorkload(
        "ensemble-se-midpoint",
        "sasaki-einstein-t11", "midpoint", 0.005, 1e-5, 2048, "(1/3)*cos(theta1)", 0.005,
    ),
    CertifyWorkload("certify-se"),
)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

_SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import contactsde\n"
    "contactsde.catalog.get_entry(sys.argv[2]).system()\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)
_SETUP_REFERENCE_CHILD = (
    "import sys\n"
    "import numpy\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


def _time_to_ready(*args: str) -> float:
    """Seconds from starting a fresh interpreter to its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", *args],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return elapsed


def measure_setup(system_id: str) -> tuple:
    """Seconds from process start to ``import contactsde`` plus the catalog
    build of ``system_id``, in fresh interpreters.  Each such probe comes
    right after a reference probe, an interpreter that imports only numpy.
    The first pair only warms caches.  Returns (set-up times, reference
    times), index-paired."""
    setup, reference = [], []
    for _ in range(SETUP_PROBES + 1):
        reference.append(_time_to_ready(_SETUP_REFERENCE_CHILD))
        setup.append(_time_to_ready(_SETUP_CHILD, SRC, system_id))
    return setup[1:], reference[1:]


def reference_seconds() -> float:
    """Wall time of a fixed mix of interpreted arithmetic and small numpy
    ufunc calls that uses nothing from contactsde.  Timed before and after
    every operation, it measures how fast the host runs at that moment."""
    import numpy as np
    a = np.linspace(0.0, 1.0, 4096)
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    for _ in range(800):
        np.sin(a) * a + a / 3.0
    return time.perf_counter() - start


def at_reference_speed(times: list, references: list) -> float:
    """Mean of ``times`` scaled to the nominal reference speed, where
    ``references[i]`` and ``references[i + 1]`` bracket ``times[i]``: the
    total time over the total of the bracketing kernel means.  One kernel
    timing is too short to stand for the speed over a whole operation; the
    ratio of the totals averages that noise out."""
    bracket = sum(0.5 * (r0 + r1) for r0, r1 in zip(references, references[1:]))
    return sum(times) * REFERENCE_NOMINAL_S / bracket


def run_operation(workload, inputs: dict, tracer=None) -> dict:
    token = tracer.begin("op") if tracer is not None else None
    start = time.perf_counter()
    results = {name: run_cli(argv) for name, argv in inputs["commands"].items()}
    wall = time.perf_counter() - start
    if tracer is not None:
        wall = tracer.end(token)
    outputs = workload.outputs(inputs, results)
    return {
        "wall_s": wall,
        "problems": workload.check(results, outputs),
        "digests": {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())},
    }


def replay_noise(workload, inputs: dict) -> tuple:
    """Time public ``sample_brownian`` on the (seed, stream, d, n) set that
    ``monte_carlo`` draws for this ensemble: (seconds, normals)."""
    from contactsde import catalog, flow
    d = catalog.get_entry(workload.system).system().d
    n = round(workload.T / workload.dt)
    sample = getattr(flow.sample_brownian, "__wrapped__", flow.sample_brownian)
    start = time.perf_counter()
    for stream in range(workload.paths):
        sample(d, n, workload.dt, inputs["master_seed"], stream_index=stream)
    return time.perf_counter() - start, workload.paths * d * n


def layer_metrics(tracer, ops_wall: float, noise: tuple) -> dict:
    """Per-layer figures of one traced operation (``tracer`` reset before it)."""
    hs = "geometry.HamiltonianSystem."
    guards = [f"geometry.{c}.{g}" for c in ("DarbouxChart", "SasakiEinsteinChart")
              for g in ("guard", "guard_batch")]
    c = tracer.counters
    noise_s, noise_normals = noise

    def per_step(name, steps):
        return tracer.total_seconds(name) / steps * 1e6 if steps else 0.0

    steps = c["state_steps"] + c["augmented_steps"] + c["batch_steps"]
    return {
        "expr.tape_calls": ("count", tracer.count("expr.EvalTape.__call__")),
        "expr.tape_s": ("s", tracer.self_seconds("expr.EvalTape.__call__")),
        "expr.tree_evals": ("count", tracer.count("expr.evaluate")),
        "expr.tree_s": ("s", tracer.self_seconds("expr.evaluate")),
        "expr.self_s": ("s", tracer.layer_self_seconds("expr")),
        "geometry.dx_calls": ("count", tracer.count(hs + "vector_field_jacobian")),
        "geometry.dx_s": ("s", tracer.self_seconds(hs + "vector_field_jacobian")),
        "geometry.x_s": ("s", tracer.self_seconds(
            hs + "vector_field", hs + "diffusion_matrix", hs + "drift_diffusion")),
        "geometry.reeb_s": ("s", tracer.self_seconds(hs + "reeb_rate")),
        "geometry.batch_field_s": ("s", tracer.self_seconds(hs + "drift_batch", hs + "diffusion_batch")),
        "geometry.guard_s": ("s", tracer.self_seconds(*guards)),
        "geometry.integrability_s": ("s", tracer.self_seconds("geometry.check_integrability")),
        "geometry.self_s": ("s", tracer.layer_self_seconds("geometry")),
        "flow.rhs_evals_per_step": ("evals/step", c["drift_evals"] / steps if steps else 0.0),
        "flow.batch_step_us": ("us", per_step("flow.integrate_batch_final", c["batch_steps"])),
        "flow.augmented_step_us": ("us", per_step("flow.integrate_augmented", c["augmented_steps"])),
        "flow.state_step_us": ("us", per_step("flow.integrate", c["state_steps"])),
        "flow.augmented_integrations": ("count", tracer.count("flow.integrate_augmented")),
        "flow.noise_s": ("s", tracer.total_seconds("flow.sample_brownian") + noise_s),
        "flow.normals": ("count", c["normals"] + noise_normals),
        "flow.self_s": ("s", tracer.layer_self_seconds("flow")),
        "verification.contact_defect_s": ("s", tracer.self_seconds("verification.contact_defect")),
        "verification.conformal_check_s": ("s", tracer.self_seconds("verification.conformal_factor_check")),
        "verification.mc_self_s": ("s", tracer.self_seconds("verification.monte_carlo")),
        "verification.self_s": ("s", tracer.layer_self_seconds("verification")),
        "catalog.build_s": ("s", tracer.self_seconds("catalog.CatalogEntry.system")),
        "cli.self_s": ("s", tracer.self_seconds("cli.main")),
        "op_traced_s": ("s", ops_wall),
    }


def upper_percentile(samples: list):
    """The highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    k = n - 10
    if k < 1 or 100 * k // n < 50:
        return None
    return {"percentile": 100 * k // n, "value": sorted(samples)[k - 1]}


def metadata() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    pkg = os.path.join(SRC, "contactsde")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "source_sha256": source.hexdigest(),
        "load": "one process, CLI in-process, workers=1",
    }


def git_revision():
    """HEAD of the checkout, or None when it is not a git work tree.  The
    search for ``.git`` stops at the checkout's root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def compare_digests(workload: str, seed: int, digests: dict) -> dict:
    try:
        with open(DIGESTS_PATH) as fh:
            reference = json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        reference = None
    if reference is None:
        return {"reference": "none", "changed": []}
    changed = sorted(k for k in set(reference) | set(digests) if reference.get(k) != digests.get(k))
    return {"reference": "changed" if changed else "match", "changed": changed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _import_package()
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return _run(args, workload, work_dir)
    finally:
        for name in os.listdir(work_dir):
            os.remove(os.path.join(work_dir, name))
        os.rmdir(work_dir)


def _run(args, workload, work_dir: str) -> int:
    setup, setup_references = measure_setup(workload.system)
    inputs = workload.prepare(args.seed, work_dir)

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()

    # No warm-up operation: the interpreter has no JIT, and the set-up probes
    # and input generation already ran.
    # An operation is started only if it is predicted to end by the deadline.
    ops, untraced, traced = [], [], []
    references = [reference_seconds()]
    start = time.perf_counter()
    while True:
        op = run_operation(workload, inputs)
        ops.append(op)
        untraced.append(op["wall_s"])
        references.append(reference_seconds())
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                op = run_operation(workload, inputs, tracer)
            finally:
                tracer.uninstall()
            noise = replay_noise(workload, inputs) if isinstance(workload, EnsembleWorkload) else (0.0, 0)
            op["layers"] = layer_metrics(tracer, op["wall_s"], noise)
            ops.append(op)
            traced.append(op)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if len(untraced) >= MIN_SAMPLES and elapsed + per_round > args.seconds:
            break

    first = ops[0]["digests"]
    failed = 0
    for op in ops:
        if op["digests"] != first:
            op["problems"].append("outputs differ between repeats of the same operation")
        failed += bool(op["problems"])
    problems = sorted({p for op in ops for p in op["problems"]})

    wall = statistics.median(untraced)
    wall_ref = at_reference_speed(untraced, references)
    if tracer is None:
        metrics = {
            "setup_s": ("s", statistics.median(
                t * SETUP_REFERENCE_NOMINAL_S / r for t, r in zip(setup, setup_references))),
            "wall_ref_s": ("s", wall_ref),
            "path_steps_per_ref_s": ("1/s", workload.nominal_path_steps / wall_ref),
            "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        }
    else:
        metrics = {}
        for name in traced[0]["layers"]:
            unit, value = traced[0]["layers"][name]
            values = [op["layers"][name][1] for op in traced]
            if unit in ("count", "evals/step"):
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between traced operations: {values}")
                metrics[name] = (unit, value)
            else:
                metrics[name] = (unit, statistics.median(values))
        metrics["trace_overhead_ratio"] = ("ratio", metrics.pop("op_traced_s")[1] / wall)

    digest_check = compare_digests(workload.name, inputs["master_seed"], first)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "master_seed": inputs["master_seed"],
        "skipped_seeds": inputs["skipped_seeds"],
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": metadata(),
        "setup_s_samples": setup,
        "setup_reference_s_samples": setup_references,
        "wall_s_samples": untraced,
        "reference_s_samples": references,
        "wall_s_upper_percentile": upper_percentile(untraced),
        "nominal_path_steps": workload.nominal_path_steps,
        "attempted": len(ops),
        "failed": failed,
        "unscaled": {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "path_steps_per_s": {"value": workload.nominal_path_steps / wall, "unit": "1/s"},
            "failed_ratio": {"value": failed / len(ops), "unit": "ratio"},
        },
        "problems": problems,
        "digests": first,
        "digest_reference": digest_check,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(tracer.spans_document(), fh)

    print(f"workload {workload.name}: master seed {inputs['master_seed']}"
          f" (skipped {inputs['skipped_seeds']}), {len(ops)} operations, {failed} failed;"
          f" wall_s over {len(untraced)} samples, upper percentile {record['wall_s_upper_percentile']}")
    print("unscaled: " + ", ".join(
        f"{k} {m['value']:.6g} {m['unit']}" for k, m in record["unscaled"].items()))
    print(f"output digests vs reference: {digest_check['reference']}"
          + (f" (changed: {', '.join(digest_check['changed'])})" if digest_check["changed"] else ""))
    for p in problems:
        print(f"problem: {p}")
    print(f"record: {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
