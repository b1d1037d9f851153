"""In-process traced run of a job list: per-layer spans and counters.

Run as a child of run.py (``python perfbench/tracer.py JOBS RESULT SPANS SECONDS``
from the checkout root, with ``src`` on PYTHONPATH).  It imports mixcap.cli,
then alternates an untraced and a traced pass over the jobs through
``mixcap.cli.main(argv)`` (which calls ``run_command``) until SECONDS have
passed.  Wrappers go around the public functions listed in LAYERS and are
installed at every module binding of each function, because the modules
import these names with ``from .x import y``; a missed binding aborts the
run.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import io
import json
import statistics
import sys
import time

LAYERS = {
    "cli": ("load_spec", "run_command"),
    "channel": ("mutual_information", "output_distribution", "channel_dispersion"),
    "first_order": ("eps_capacity", "rate_quantile", "eps_capacity_well_ordered"),
    "second_order": ("second_order_lb", "solve_s", "second_order_well_ordered"),
    "optimizer": ("constrained_capacity", "capacity_achieving_set"),
    "well_ordered": ("check_well_ordered",),
    "spectrum": ("convolve_n", "mc_tail", "feinstein_bound", "hayashi_nagaoka_bound",
                 "mixed_converse_bound", "exact_tail_bound"),
    "types_toolkit": ("expurgated_space", "decomposition_check", "enumerate_types"),
}

_current = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []     # (name, start, end, parent index, job index, raised)
        self.job = -1
        self.counts = {}
        self.cc_args = set()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def observe(self, name: str, args, kwargs, result) -> None:
        if name == "optimizer.constrained_capacity":
            self.add(name + ".iterations", result.iterations)
            cost = args[1] if len(args) > 1 else kwargs.get("cost")
            self.cc_args.add((args[0].rows.tobytes(),
                              None if cost is None else (cost.costs.tobytes(), cost.gamma)))
        elif name == "optimizer.capacity_achieving_set":
            self.add(name + ".reps", len(result.representatives))
        elif name == "spectrum.convolve_n":
            self.add(name + ".atoms_out", len(result.values))
        elif name == "spectrum.mc_tail":
            self.add(name + ".trials", result.trials)
        elif name == "types_toolkit.enumerate_types":
            self.add(name + ".types", len(result))


class Tracer:
    """Installs and removes span wrappers at every binding of the traced functions."""

    def __init__(self):
        self.rec = Recorder()
        self.bindings = []  # (module, attribute, original, wrapper)
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "mixcap" or name.startswith("mixcap.")}
        originals = {}
        for layer, names in LAYERS.items():
            for fn_name in names:
                originals[id(getattr(mods[f"mixcap.{layer}"], fn_name))] = f"{layer}.{fn_name}"
        for mod in mods.values():
            for attr, value in vars(mod).items():
                span = originals.get(id(value))
                if span is not None:
                    self.bindings.append((mod, attr, value, self._wrap(span, value)))
        self._originals = originals

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.rec
            parent = _current.get()
            idx = len(rec.spans)
            rec.spans.append(None)
            token = _current.set(idx)
            start = time.perf_counter()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                _current.reset(token)
                rec.spans[idx] = (name, start, time.perf_counter(), parent, rec.job, raised)
            rec.observe(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapper in self.bindings:
            setattr(mod, attr, wrapper)
        missed = [f"{mod.__name__}.{attr}" for mod in _mixcap_modules()
                  for attr, value in vars(mod).items() if id(value) in self._originals]
        if missed:
            raise RuntimeError(f"unwrapped bindings of traced functions: {missed}")
        wrapped = {self._originals[id(orig)] for _, _, orig, _ in self.bindings}
        if wrapped != set(self._originals.values()):
            raise RuntimeError(f"traced functions without a binding: "
                               f"{set(self._originals.values()) - wrapped}")

    def remove(self) -> None:
        for mod, attr, original, _ in self.bindings:
            setattr(mod, attr, original)


def _mixcap_modules():
    return [m for n, m in sys.modules.items() if n == "mixcap" or n.startswith("mixcap.")]


def run_pass(main, jobs, tracer=None):
    """Run every job through main(argv); returns (outputs, seconds per job)."""
    outputs, times = [], []
    for j, job in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.rec.job = j
            root = len(tracer.rec.spans)
            tracer.rec.spans.append(None)
            token = _current.set(root)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(job["argv"]))
            except SystemExit as exc:
                code = exc.code
        end = time.perf_counter()
        if tracer is not None:
            _current.reset(token)
            tracer.rec.spans[root] = ("job", start, end, None, j, False)
        outputs.append([code, out.getvalue()])
        times.append(end - start)
    return outputs, times


def summarize(rec: Recorder, job_time: float) -> dict:
    """Per-function calls / total_s / self_s, the extra counters, and layer shares."""
    child = [0.0] * len(rec.spans)
    for name, start, end, parent, _, _ in rec.spans:
        if parent is not None:
            child[parent] += end - start
    stats, layer_self = {}, {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, _, _, raised) in enumerate(rec.spans):
        if name == "job":
            continue
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "failed": 0, "failed_s": 0.0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child[i]
        layer_self[name.split(".")[0]] += end - start - child[i]
        if raised:
            s["failed"] += 1
            s["failed_s"] += end - start
    flat = {}
    for name, s in stats.items():
        for key, value in s.items():
            flat[f"{name}.{key}"] = value
    flat.update(rec.counts)
    cc_calls = flat.get("optimizer.constrained_capacity.calls", 0)
    flat["optimizer.constrained_capacity.distinct_ratio"] = (
        len(rec.cc_args) / cc_calls if cc_calls else 0.0)
    mc_s = flat.get("spectrum.mc_tail.total_s", 0.0)
    flat["spectrum.mc_tail.trials_per_s"] = (
        flat.get("spectrum.mc_tail.trials", 0) / mc_s if mc_s else 0.0)
    for layer, t in layer_self.items():
        flat[f"{layer}.self_share"] = t / job_time
    return flat


def main() -> int:
    jobs_path, result_path, spans_path, seconds = sys.argv[1:4] + [float(sys.argv[4])]
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    start = time.perf_counter()
    import mixcap.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    plain_times, traced_times, summaries = [], [], []
    plain_out = traced_out = spans = None
    begin = time.perf_counter()
    last = 0.0  # a pass pair starts only if one as long as the last still fits
    while not traced_times or time.perf_counter() - begin + last <= seconds:
        pair_start = time.perf_counter()
        outs, times = run_pass(mixcap.cli.main, jobs)
        plain_out = plain_out or outs
        plain_times.append(sum(times))
        tracer.rec = Recorder()
        tracer.install()
        try:
            outs, times = run_pass(mixcap.cli.main, jobs, tracer)
        finally:
            tracer.remove()
        traced_out = traced_out or outs
        traced_times.append(sum(times))
        summaries.append(summarize(tracer.rec, sum(times)))
        spans = spans or tracer.rec.spans
        last = time.perf_counter() - pair_start

    metrics = {}
    for key in summaries[0]:
        values = [s.get(key, 0) for s in summaries]
        metrics[key] = statistics.median(values)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_frac"] = (statistics.median(traced_times)
                                      / statistics.median(plain_times) - 1.0)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "plain": plain_out, "traced": traced_out,
                   "passes": len(traced_times)}, fh)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job", "raised"],
                   "jobs": [job["name"] for job in jobs], "spans": spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
