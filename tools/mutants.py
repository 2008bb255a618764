"""Mutation runner: each mutant below is one exact-text edit of a file under
``src/contactsde`` that a named test must catch.

    python tools/mutants.py

For each mutant the runner copies ``src/`` into a temporary directory,
replaces the mutant's text there (it must occur exactly once, so a refactor
that removes it fails loudly here instead of passing), checks that
``contactsde`` imports from that copy and not from an installed one, and
runs ``python -m pytest -x -q -p no:cacheprovider`` on the mutant's tests
from the repository root.  A mutant is killed only when pytest exits 1 (a
test failed); exit 0 is a survivor, and any other code (an error in
collection, no test selected) is a broken run.

Exit status: 0 when every mutant is killed or is a survivor listed in
``ACCEPTED`` with its reason, 1 otherwise.  The script lives outside
``tests/`` so that pytest does not collect it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/contactsde
    old: str   # must occur exactly once in the file
    new: str
    tests: tuple  # pytest node ids, relative to the repository root
    why: str


MUTANTS = (
    Mutant("chart-margin-1e-30", "geometry.py",
           "MARGIN = 1e-9", "MARGIN = 1e-30",
           ("tests/test_flow.py::test_single_path_midpoint_run_equals_the_loop_it_replaced"
            "[se_leaves_the_chart-integrate]",),
           "The chart margin is what stops a path at sin(theta) = 0; a bound of "
           "1e-30 lets SE paths cross the singular set."),
    Mutant("midpoint-sweeps-500", "flow.py",
           "_MIDPOINT_SWEEPS = 50", "_MIDPOINT_SWEEPS = 500",
           ("tests/test_cli.py::test_single_path_run_stops_exit_3[midpoint-simulate]",),
           "The sweep cap decides when a midpoint step is a MidpointDivergence "
           "(exit 3) and so which step a run reports."),
    Mutant("midpoint-tolerance-1e-6", "flow.py",
           "_MIDPOINT_TOL = 1e-13", "_MIDPOINT_TOL = 1e-6",
           ("tests/test_flow.py::test_batch_midpoint_matches_the_out_of_place_sweep",),
           "A loose fixed-point tolerance stops the sweeps early: the midpoint "
           "states move in far more than their last bits."),
    Mutant("contact-defect-without-lambda", "verification.py",
           "- lam[:, None] * eta[0]", "- eta[0]",
           ("tests/test_acceptance.py::test_criterion_2_defect_convergence_dissipative",),
           "The contact defect compares phi*eta with lambda eta; without lambda "
           "a conformal (non-strict) flow reads as a defect of order 1."),
    Mutant("integrability-without-reeb", "geometry.py",
           " and max_reeb <= tol", "",
           ("tests/test_geometry.py::test_integrability_darboux_z_fails",),
           "A family is integrable only if every Reeb rate vanishes; dropping "
           "the condition passes z, whose Reeb rate is 1."),
    Mutant("integrability-independence-0", "geometry.py",
           "min_sv >= independence_tol", "min_sv >= 0.0",
           ("tests/test_geometry.py::test_integrability_dependent_family_fails",),
           "Independence needs the smallest singular value above the tolerance; "
           "0.0 passes a dependent family."),
    Mutant("fitted-orders-x1.05", "verification.py",
           "orders.append(math.log2(coarse / fine))",
           "orders.append(1.05 * math.log2(coarse / fine))",
           ("tests/test_verification.py::test_fitted_orders_are_the_log2_ratios_of_their_own_errors",),
           "Every order gate reads the fitted orders; inflated ones pass a "
           "scheme that converges more slowly than it reports."),
    Mutant("batch-margin-test-off", "geometry.py",
           'return f"if not ({tests}):\\n    raise FloatingPointError"', 'return "pass"',
           ("tests/test_flow.py::test_batch_cold_path_raises_todays_errors",),
           "The batch forms' inline margin test is the only chart guard of a "
           "batch step; without it an off-chart batch steps on silently."),
    Mutant("augmented-live-set-unclosed", "geometry.py",
           "        while grown:", "        while False:",
           ("tests/test_flow.py::test_augmented_stage_runs_as_every_product_stage",),
           "The live set of J must be closed under the products of DX_H; stopped "
           "at the identity, the augmented stage drops live products of J."),
    Mutant("tokenizer-unicode-mantissa", "expr.py",
           r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)", r"(?:\d+\.?\d*|\.\d+)",
           ("tests/test_expr.py::test_parse_rejects_numbers_outside_the_grammar",),
           "With \\d a number takes any Unicode decimal digit: 3 then U+0663 "
           "reads as 33.0."),
    Mutant("tokenizer-unicode-exponent", "expr.py",
           r"(?:[eE][+-]?[0-9]+)?", r"(?:[eE][+-]?\d+)?",
           ("tests/test_expr.py::test_parse_rejects_numbers_outside_the_grammar",),
           "With \\d an exponent takes any Unicode decimal digit: 1e then "
           "U+0663 reads as 1000.0."),
    Mutant("batch-forms-hold-their-stage", "geometry.py",
           "functools.partial(_composed_heun, weakref.proxy(self)),\n"
           "            functools.partial(_composed_image, weakref.proxy(self)),",
           "functools.partial(_composed_heun, self),\n"
           "            functools.partial(_composed_image, self),",
           ("tests/test_flow.py::test_a_stage_that_stepped_dies_with_its_system",),
           "A batch form that holds its stage strongly makes a reference cycle: "
           "a dropped system's stage lives until the cyclic collector runs."),
)

# Survivors accepted, by name, each with its reason.
ACCEPTED: dict = {}


def _apply(mutant: Mutant, src: Path) -> None:
    path = src / "contactsde" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name}: its text occurs {count} times in "
                         f"src/contactsde/{mutant.file}, not once:\n{mutant.old}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _run(mutant: Mutant) -> tuple:
    """``(verdict, detail)``: killed, survived or broken, and what pytest said."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        _apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import contactsde; print(contactsde.__file__)"],
                               cwd=ROOT, env=env, capture_output=True, text=True)
        imported = Path(where.stdout.strip()).resolve()
        if where.returncode != 0 or src.resolve() not in imported.parents:
            raise SystemExit(f"mutant {mutant.name}: contactsde imports from "
                             f"{where.stdout.strip() or where.stderr.strip()!r}, not from {src}")
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              *mutant.tests], cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=600)
    lines = run.stdout.strip().splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    detail = (failed or lines[-1:] or [f"exit {run.returncode}"])[0]
    verdict = {0: "survived", 1: "killed"}.get(run.returncode, "broken")
    return verdict, detail


def main() -> int:
    bad = 0
    for m in MUTANTS:
        start = time.perf_counter()
        verdict, detail = _run(m)
        note = ""
        if verdict == "survived" and m.name in ACCEPTED:
            note = f" (accepted: {ACCEPTED[m.name]})"
        elif verdict != "killed":
            bad += 1
            note = f"\n         why it matters: {m.why}"
        print(f"{verdict:8s} {m.name} [{time.perf_counter() - start:.1f} s] {detail}{note}",
              flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed or accepted")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
