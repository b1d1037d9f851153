"""Self-test of the benchmark's output checks and traced run.

    python3 perfbench/selftest.py          (from the root of a mixcap checkout)

1. Smoke: one short run (a single pass) of the solve workload must report correct.
2. Every check must pass on the real outputs of every workload for the
   default seed (0) and two others (1, 2), so failed_frac = 0 holds there.
3. Every check must reject perturbed copies of those outputs, so that a
   failed_frac of 0 is earned rather than a check that cannot fail.
4. The traced run of each workload must record spans in every layer at least
   once across the workloads; the self-time share of each layer per workload
   is printed (these shares predict which workload a layer change moves).

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import checks
import specgen
from run import Runner
from tracer import LAYERS

SEEDS = (0, 1, 2)


def _edit(text: str, row: int, column: str, fn) -> str:
    """The CSV text with one field of one data row replaced by fn(field)."""
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    fields = lines[row + 1].rstrip("\n").split(",")
    idx = header.index(column)
    fields[idx] = fn(fields[idx])
    lines[row + 1] = ",".join(fields) + "\n"
    return "".join(lines)


def _shift(delta: float):
    return lambda s: repr(float(s) + delta) if s not in ("+inf", "-inf") else "0.0"


def _scale_or_shift(s: str) -> str:
    v = float(s.lstrip("+"))
    return repr(v * 1.01 + 1e-3) if abs(v) != float("inf") else "0.0"


def _mc_shift(s: str) -> str:
    v = float(s)
    return repr(v - 0.2 if v > 0.5 else v + 0.2)


def _swap_input(s: str) -> str:
    parts = s.split()
    return " ".join(parts[1:] + parts[:1]) if len(set(parts)) > 1 else s


def _flip_bit(s: str) -> str:
    return ("0" if s[0] == "1" else "1") + s[1:]


PERTURBATIONS = {
    "capacity": [(0, "value", _shift(1e-6))],
    "ordered_check": [(0, "value", lambda s: "0" if s == "1" else "1"),
                      (1, "value", _shift(1e-6))],
    "eps_lb": [(0, "value", _shift(1e-6)), (0, "argmax_input", _swap_input)],
    "so_lb": [(0, "value", _scale_or_shift), (0, "theta2_mass", _shift(0.05))],
    "eps_wo": [(0, "value", _shift(1e-6))],
    "so_wo": [(0, "value", _scale_or_shift), (0, "rate", _shift(1e-6))],
    "fbl": [(0, "value", _shift(1e-6))],
    "fbl_mc": [(0, "value", _mc_shift), (0, "trials", lambda s: "0")],
    "lemmas": [(0, "members", _flip_bit), (1, "value", lambda s: "0"),
               (0, "value", _shift(1e-6))],
}


def check_workload(workload: str, seed: int, root: str, perturb: bool) -> list:
    """Run each job once; return failures of real outputs and accepted perturbations."""
    work = os.path.join(".perfbench", f"selftest-{workload}-{seed}")
    problems = []
    try:
        jobs = specgen.build(workload, seed, work)
        runner = Runner(root, work)
        ctx = checks.Context()
        _, outputs = runner.run_pass(jobs, ctx, None)
        problems += [f"{workload} seed {seed}: {f}" for f in runner.failures]
        if not perturb:
            return problems
        for job, (code, out) in zip(jobs, outputs):
            wrong = [(code + 1, out, "")]
            if job.kind == "refused":
                wrong.append((code, "value\n1\n", ""))
                wrong.append((code, out, "numerical failure: did not converge"))
            for row, column, fn in PERTURBATIONS.get(job.kind, []):
                wrong.append((code, _edit(out, row, column, fn), ""))
            for bad_code, bad_out, bad_err in wrong:
                err = bad_err or ("numerical failure: channel failed the ordering check"
                                  if job.kind == "refused" else "")
                if checks.check(ctx, job, bad_code, bad_out, err) is None:
                    problems.append(f"{workload} seed {seed}: {job.name} accepted a "
                                    f"perturbed output (exit {bad_code})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def _run(args, root):
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, os.path.join(here, "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    root = os.getcwd()
    problems = []

    smoke = _run(["--workload", "solve", "--seed", "0", "--seconds", "1", "--trace", "0"], root)
    print(f"smoke run (solve, seed 0): correct={smoke['correct']}")
    if not smoke["correct"]:
        problems.append("smoke run reported incorrect outputs")

    for seed in SEEDS:
        for workload in specgen.WORKLOADS:
            found = check_workload(workload, seed, root, perturb=seed == SEEDS[0])
            print(f"checks {workload:<10} seed {seed}: {'ok' if not found else 'FAILED'}")
            problems += found

    covered = set()
    print("self-time share per layer (traced run, seed 0):")
    print("  " + " ".join(f"{layer:>13}" for layer in LAYERS) + "   workload")
    for workload in specgen.WORKLOADS:
        result = _run(["--workload", workload, "--seed", "0", "--seconds", "1",
                       "--trace", "1"], root)
        if not result["correct"]:
            problems.append(f"traced run of {workload} is not byte-identical or not correct")
        shares = [result["metrics"][f"{layer}.self_share"]["value"] for layer in LAYERS]
        covered |= {layer for layer, s in zip(LAYERS, shares) if s > 0}
        print("  " + " ".join(f"{s:13.4f}" for s in shares) + f"   {workload}")
    missing = set(LAYERS) - covered
    if missing:
        problems.append(f"layers without a span in any workload: {sorted(missing)}")

    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest", "passed" if not problems else "FAILED")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
