"""End-to-end benchmark of the mixcap CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a mixcap checkout.  The workload seed generates the
spec files and the job list (specgen.py); the program sees only those.
Each job is a fresh ``python -m mixcap.cli`` subprocess with ``src`` on the
path, run one after another: a closed loop with one client and one job in
flight.  A pass is one run of the whole job list; passes repeat while one
more as long as the last still fits in S seconds.  Every output is checked
against the numpy references (checks.py) on the first pass and must be
byte-identical on the later ones.

--trace 0 reports the end-to-end metrics (medians over passes, set-up time
over repeated probes).  The pass times in the result are rescaled by the
time of a fixed unit of reference work done between the jobs (calib.py),
which follows the drift in speed of a shared host; the report also prints
them raw.  --trace 1 runs one checked subprocess pass, then the in-process
traced run (tracer.py), and reports the per-layer metrics; the traced and
untraced in-process outputs must match the subprocess bytes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import calib
import checks
import specgen
from tracer import LAYERS

SETUP_PROBES = 9
JOB_TIMEOUT = 100.0  # seconds; a job past this is killed and counts as failed
REF_EVERY = 2  # the reference work (calib.py) runs after every second CLI job of a pass
# Time of one unit of reference work on the baseline host (2-vCPU Xeon, see
# DESIGN.md); adjusted times are pass times rescaled to that host's speed.
REF_S = 0.18
UNITS = {"wall_adj_s": "s", "cpu_adj_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
         "wall_s": "s", "cpu_s": "s", "ref_wall_s": "s", "ref_cpu_s": "s"}


class Runner:
    """Spawns CLI jobs from the checkout root and accounts for their outcome."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.out_path = os.path.join(work, "stdout")
        self.err_path = os.path.join(work, "stderr")
        self.attempted = 0
        self.failures = []
        self.job_walls = {}

    def spawn(self, argv):
        """Run one CLI job; returns (exit code, stdout, stderr, wall s, cpu s, max RSS MB)."""
        self.attempted += 1
        return self._process([sys.executable, "-m", "mixcap.cli", *argv])

    def _process(self, cmd):
        with open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            killer = threading.Timer(JOB_TIMEOUT, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            text_out = out.read().decode("utf-8", "replace")
            text_err = err.read().decode("utf-8", "replace")
        return (proc.returncode, text_out, text_err, wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def fail(self, job_name: str, reason: str) -> None:
        self.failures.append(f"{job_name}: {reason}")

    def setup_probe(self, spec: str) -> float:
        """A job that stops before any numerical work: start, import, parse, load.

        ``capacity SPEC --gamma -1`` loads the spec and is refused (exit 1)
        by the budget check that precedes every solve; an earlier refusal of
        the flag (exit 2, argparse) would also be a correct answer.
        """
        code, out, err, wall, _, _ = self.spawn(["capacity", spec, "--gamma", "-1"])
        if code not in (1, 2) or out or "error:" not in err:
            self.fail(f"setup:{spec}", f"exit {code}, stderr {err.strip()[:80]!r}")
        return wall

    def run_pass(self, jobs, ctx, first):
        """One pass over the job list; checks outputs (first pass) or their bytes.

        The reference work runs after every REF_EVERY-th job and after the
        last; the pass reports the median of its times next to the job sums.
        """
        wall = cpu = peak = 0.0
        outputs, ref_walls, ref_cpus = [], [], []
        for j, job in enumerate(jobs):
            code, out, err, w, c, rss = self.spawn(job.argv)
            wall, cpu, peak = wall + w, cpu + c, max(peak, rss)
            self.job_walls.setdefault(job.name, []).append(w)
            outputs.append([code, out])
            if first is None:
                reason = checks.check(ctx, job, code, out, err)
                if reason is None and job.params.get("same_as_prev") and outputs[j - 1] != outputs[j]:
                    reason = "output differs from the same job at another --threads value"
            elif first[j] != outputs[j]:
                reason = "output differs from the first pass"
            else:
                reason = None
            if reason:
                self.fail(job.name, reason)
            if (j + 1) % REF_EVERY == 0 or j + 1 == len(jobs):
                ref_wall, ref_cpu = calib.timed()
                ref_walls.append(ref_wall)
                ref_cpus.append(ref_cpu)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak,
                "ref_wall_s": statistics.median(ref_walls),
                "ref_cpu_s": statistics.median(ref_cpus)}, outputs


def upper_percentile(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    return pct, sorted(values)[max(0, -(-pct * n // 100) - 1)]


def report(name, unit, values):
    med = statistics.median(values)
    tail = upper_percentile(values)
    tail_txt = f"p{tail[0]} {tail[1]:.6g}" if tail else "no percentile (fewer than 11 samples)"
    print(f"  {name:<14} median {med:.6g} {unit}; {tail_txt}; n={len(values)}")


def end_to_end(runner, jobs, ctx, seconds):
    specs = sorted({job.spec for job in jobs})
    runner.setup_probe(specs[0])  # warm-up: byte-compiles src on a fresh checkout
    setup = [runner.setup_probe(specs[i % len(specs)]) for i in range(SETUP_PROBES)]
    samples = {"wall_s": [], "cpu_s": [], "ref_wall_s": [], "ref_cpu_s": [], "peak_rss_mb": []}
    first = None
    begin = time.perf_counter()
    last = 0.0  # a pass starts only if one as long as the last still fits in the run
    while first is None or time.perf_counter() - begin + last <= seconds:
        start = time.perf_counter()
        stats, outputs = runner.run_pass(jobs, ctx, first)
        last = time.perf_counter() - start
        first = first or outputs
        for key, value in stats.items():
            samples[key].append(value)
    for adj, raw, ref in (("wall_adj_s", "wall_s", "ref_wall_s"),
                          ("cpu_adj_s", "cpu_s", "ref_cpu_s")):
        samples[adj] = [t * REF_S / r for t, r in zip(samples[raw], samples[ref])]
    samples["setup_s"] = setup
    print(f"workload passes: {len(samples['wall_s'])}, jobs per pass: {len(jobs)}")
    for key, values in samples.items():
        report(key, UNITS[key], values)
    print("per-job wall time (median over passes):")
    for name, values in runner.job_walls.items():
        print(f"  {name:<36} {statistics.median(values):.4f} s")
    return {key: {"value": statistics.median(samples[key]), "unit": UNITS[key]}
            for key in ("wall_adj_s", "cpu_adj_s", "peak_rss_mb", "setup_s")}


def per_layer(runner, jobs, ctx, seconds, work, spans_path):
    _, outputs = runner.run_pass(jobs, ctx, None)
    jobs_path = os.path.join(work, "jobs.json")
    result_path = os.path.join(work, "trace.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump([{"name": j.name, "argv": j.argv} for j in jobs], fh)
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, os.path.join(here, "tracer.py"), jobs_path,
                           result_path, spans_path, str(seconds)], env=runner.env, cwd=runner.root,
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"traced run failed: {proc.stderr.strip()[-400:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    for mode in ("plain", "traced"):
        for job, sub, got in zip(jobs, outputs, result[mode]):
            runner.attempted += 1
            if got != sub:
                runner.fail(job.name, f"{mode} in-process output differs from the subprocess bytes")
    with open(os.path.join(runner.root, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer"]
    metrics = {m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(f"traced passes: {result['passes']}; spans of the first written to {spans_path}")
    for layer in LAYERS:
        print(f"  {layer:<14} self-time share {result['metrics'].get(layer + '.self_share', 0):.4f}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=specgen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mixcap", "cli.py")):
        print("error: run from the root of a mixcap checkout (src/mixcap/cli.py not found)",
              file=sys.stderr)
        return 2
    work = os.path.join(".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        jobs = specgen.build(args.workload, args.seed, work)
        runner = Runner(root, work)
        ctx = checks.Context()
        if args.trace:
            spans = os.path.join(".perfbench", f"{args.workload}.spans.json")
            metrics = per_layer(runner, jobs, ctx, args.seconds, work, spans)
        else:
            metrics = end_to_end(runner, jobs, ctx, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(runner.failures)
    for line in runner.failures:
        print(f"FAILED {line}")
    print(f"failed_frac {failed / runner.attempted:.6g} ({failed} of {runner.attempted} jobs); "
          f"run took {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
