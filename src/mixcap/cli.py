"""Command-line interface: spec-file ingestion, dispatch, structured output.

Output goes to stdout as CSV by default (or JSON with --format json); every
numeric row carries a units column and a method tag.  Infinite values are
serialized as "+inf"/"-inf".  Given identical arguments, spec file and seed,
the primary output is byte-identical; the volatile run manifest (wall time)
only ever lands in the sidecar written next to --out files.

Exit codes: 0 success, 1 invalid input, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .channel import (
    CostSpec,
    Dmc,
    InputDist,
    MixedChannel,
    SlackParams,
    output_distribution,
)
from .first_order import eps_capacity, eps_capacity_well_ordered
from .optimizer import ConvergenceError, constrained_capacity
from .second_order import DEFAULT_TIE_TOL, second_order_lb, second_order_well_ordered
from .spectrum import (
    CodeParams,
    exact_tail_bound,
    feinstein_bound,
    hayashi_nagaoka_bound,
    mixed_converse_bound,
)
from .types_toolkit import (
    EnumerationCapError,
    decomposition_check,
    quantized_type,
)
from .well_ordered import NotWellOrderedError, check_well_ordered

log = logging.getLogger("mixcap")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2

INT64_MAX = 2**63 - 1  # --n reaches numpy's int64 counts
SEED_MAX = 2**64 - 1  # Philox keys seed + (k << 64) stay below 2**128
Z_POINTS_MAX = 10**6  # keeps each per-threshold array of validate-lemmas within 8 MB
THREADS_MAX = 256  # Monte-Carlo worker threads; each one is an OS thread
# MIXCAP_LOG's values, in any case (logging.getLevelNamesMapping needs Python 3.11)
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _fmt(v) -> str:
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float):
        if math.isinf(v):
            return "+inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(v)


def _bsc(p: float) -> Dmc:
    return Dmc([[1.0 - p, p], [p, 1.0 - p]])


_KINDS = {list: "a list", dict: "an object", int: "an integer", float: "a finite number"}


def _typed(value, kind, field: str):
    """``value`` if it is a JSON list, object, integer or finite number (never a boolean)."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted) or (
            kind is float and not math.isfinite(value)):
        raise ValueError(f"{field} must be {_KINDS[kind]}")
    return float(value) if kind is float else value


def _numbers(value, field: str) -> list:
    return [_typed(v, float, f"{field}[{i}]") for i, v in enumerate(_typed(value, list, field))]


def _atom(entry, field: str, channel):
    """(weight, channel(entry)) from one spec entry, errors prefixed by ``field``."""
    try:
        entry = _typed(entry, dict, "entry")
        return _typed(entry["weight"], float, "weight"), channel(entry)
    except KeyError as exc:
        raise ValueError(f"{field} is missing field {exc}")
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}")


def _matrix(entry) -> Dmc:
    rows = _typed(entry["rows"], list, "rows")
    return Dmc([_numbers(r, f"rows[{x}]") for x, r in enumerate(rows)])


def load_spec(path: str):
    """Parse and validate a channel spec file; returns (MixedChannel, CostSpec).

    Violations are rejected with messages naming the offending field; nothing
    is silently repaired.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file does not parse as JSON: {exc}")
    if not isinstance(doc, dict):
        raise ValueError("spec file top level must be an object")

    atoms = [_atom(a, f"atoms[{i}]", _matrix)
             for i, a in enumerate(_typed(doc.get("atoms", []), list, "atoms"))]
    if "generator" in doc:
        gen = _typed(doc["generator"], dict, "generator")
        family = gen.get("family")
        if family != "bsc":
            raise ValueError(f"generator.family {family!r} is not supported (only 'bsc')")
        params = _typed(gen.get("params", []), list, "generator.params")
        atoms += [_atom(e, f"generator.params[{i}]", lambda e: _bsc(_typed(e["p"], float, "p")))
                  for i, e in enumerate(params)]
    if not atoms:
        raise ValueError("spec file defines no atoms (need 'atoms' or 'generator')")
    try:
        mixed = MixedChannel(tuple(atoms))
    except ValueError as exc:
        raise ValueError(f"atoms: {exc}")

    for key in ("num_inputs", "num_outputs"):
        if key in doc and _typed(doc[key], int, key) != getattr(mixed, key):
            raise ValueError(f"{key} = {doc[key]} does not match the atom matrices "
                             f"({getattr(mixed, key)})")

    # a key is given or absent: null is never a value; a budget needs letter costs
    gamma = doc.get("gamma", "unconstrained")
    if gamma != "unconstrained":
        gamma = _typed(gamma, float, "gamma")
        if "cost" not in doc:
            raise ValueError("gamma needs a cost vector ('cost')")
    if "cost" not in doc:
        return mixed, CostSpec.free(mixed.num_inputs)
    costs = _numbers(doc["cost"], "cost")
    if len(costs) != mixed.num_inputs:
        raise ValueError(f"cost has {len(costs)} entries, need {mixed.num_inputs}")
    return mixed, CostSpec(np.asarray(costs), None if gamma == "unconstrained" else gamma)


class Emitter:
    """Accumulates rows and renders CSV or JSON deterministically."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.rows = []
        self.columns = None

    def row(self, **fields):
        if self.columns is None:
            self.columns = list(fields)
        self.rows.append({k: fields.get(k, "") for k in self.columns})

    def render(self, manifest: dict) -> str:
        if self.fmt == "json":
            payload = {"rows": self.rows, "manifest": manifest}
            return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for r in self.rows:
            buf.write(",".join(_fmt(r[c]) for c in self.columns) + "\n")
        return buf.getvalue()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return _fmt(obj)
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(float(obj))
    return obj


def _input_dist(args, cost: CostSpec) -> InputDist:
    """The --input-probs distribution (uniform when absent), within the budget."""
    k = len(cost.costs)
    if (text := args.input_probs) is None:
        p = InputDist.uniform(k)
    else:
        probs = []
        for t in text.split(",") if text.strip() else []:
            try:
                probs.append(float(t))
            except ValueError:
                raise ValueError(f"--input-probs entry {t.strip()!r} is not a number") from None
        if len(probs) != k:
            raise ValueError(f"--input-probs has {len(probs)} entries, the channel has {k} inputs")
        p = InputDist(np.asarray(probs))
    if not cost.admits(p):
        which = "--input-probs" if text is not None else "the uniform input (no --input-probs)"
        raise ValueError(f"{which} costs {cost.expected_cost(p):g} per letter, above the budget "
                         f"gamma = {cost.gamma:g} (--unconstrained lifts it)")
    return p


def _ranged(convert, lo, hi=math.inf):
    """An argparse type: ``convert(text)`` within [lo, hi]; NaN lies in no range."""
    def parse(text):
        value = convert(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        if value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}, got {value}")
        if value != value:
            raise argparse.ArgumentTypeError("must be a number, got nan")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'x'"
    return parse


def _output_flags(p: argparse.ArgumentParser, top: bool) -> None:
    # also attached to every subcommand (suppressed defaults) so the flags
    # work on either side of the subcommand name
    d = dict(default=argparse.SUPPRESS) if not top else {}
    p.add_argument("--format", choices=("csv", "json"),
                   **(d or {"default": "csv"}))
    p.add_argument("--out", metavar="PATH",
                   help="write primary output to PATH (manifest sidecar at PATH.manifest.json)",
                   **(d or {"default": None}))
    p.add_argument("--threads", type=_ranged(int, 1, THREADS_MAX), **(d or {"default": 1}))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is invalid input: one error line, exit 1
        raise ValueError(message)


def _parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="mixcap",
        description="coding rates of mixed memoryless channels",
    )
    _output_flags(ap, top=True)
    sub = ap.add_subparsers(dest="command", required=True)
    # every subcommand copies these actions: cheaper than adding them to each
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("spec", help="channel spec file (JSON)")
    budget = common.add_mutually_exclusive_group()
    budget.add_argument("--gamma", type=float, default=None)
    budget.add_argument("--unconstrained", action="store_true")
    _output_flags(common, top=False)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary, parents=[common])
        p.set_defaults(handler=handler)
        return p

    command("capacity", _cmd_capacity, "per-component constrained capacities")

    grid = _ranged(int, 1)
    p = command("eps-capacity", _cmd_eps_capacity, "first-order capacity at a given eps")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--well-ordered", action="store_true")
    p.add_argument("--grid", type=grid, default=32, help="accepted and ignored")

    p = command("second-order", _cmd_second_order, "second-order rate at the eps-capacity")
    p.add_argument("--eps", type=float, required=True)
    at = p.add_mutually_exclusive_group()  # the exact path evaluates at the eps-capacity
    at.add_argument("--rate", type=_ranged(float, -math.inf), default=None)
    at.add_argument("--well-ordered", action="store_true")
    p.add_argument("--tie-tol", type=float, default=DEFAULT_TIE_TOL,
                   help="at-rate classification width (default %(default)g)")
    p.add_argument("--grid", type=grid, default=32, help="accepted and ignored")

    p = command("check-well-ordered", _cmd_check_well_ordered,
                "test the capacity ordering of components")
    p.add_argument("--tol", type=float, default=None)

    n = _ranged(int, 1, INT64_MAX)
    p = command("fbl", _cmd_fbl, "finite-blocklength bounds")
    p.add_argument("--n", type=n, required=True)
    # log(M)/n of a code with 1 <= M < inf codewords
    p.add_argument("--rate", type=_ranged(float, 0.0, sys.float_info.max), required=True)
    p.add_argument("--bound", choices=("feinstein", "hn", "mixed-converse", "exact"),
                   required=True)
    p.add_argument("--eta", type=float, default=None, help="slack (default 1/sqrt(n))")
    p.add_argument("--trials", type=_ranged(int, 1), default=None,
                   help="Monte-Carlo trials, used for a tail whose type count exceeds "
                        "min(trials, ENUM_CAP = 10^6); smaller tails are exact")
    p.add_argument("--seed", type=_ranged(int, 0, SEED_MAX), default=0)
    p.add_argument("--input-probs", default=None, help="comma-separated input distribution")
    p.add_argument("--mc", action="store_true", help="force the Monte-Carlo path")

    p = command("validate-lemmas", _cmd_validate_lemmas, "decomposition and expurgation checks")
    p.add_argument("--n", type=n, nargs="+", default=[8, 12])
    p.add_argument("--z-points", type=_ranged(int, 1, Z_POINTS_MAX), default=50)
    p.add_argument("--gamma-slack", type=float, default=1.0)
    p.add_argument("--input-probs", default=None)
    return ap


def run_command(argv, args: argparse.Namespace | None = None) -> tuple[int, str, dict]:
    """Execute one CLI invocation; returns (exit code, primary output, manifest).

    ``args`` is argv already parsed, when the caller needed it parsed first.
    """
    if args is None:
        args = _parser().parse_args(argv)
    level = os.environ.get("MIXCAP_LOG") or "WARNING"
    if level.upper() not in LOG_LEVELS:
        raise ValueError(f"MIXCAP_LOG must be one of {', '.join(LOG_LEVELS)} (in any case), "
                         f"got {level!r}")
    logging.basicConfig(level=level.upper(), stream=sys.stderr)
    t0 = time.monotonic()
    emitter = Emitter(args.format)
    mixed, cost = load_spec(args.spec)
    if args.unconstrained or args.gamma is not None:  # exclusive: --unconstrained leaves gamma None
        cost = CostSpec(cost.costs, args.gamma)
    log.debug("loaded %d atoms (|X|=%d, |Y|=%d), gamma=%s", mixed.num_atoms,
              mixed.num_inputs, mixed.num_outputs, cost.gamma)
    args.handler(args, mixed, cost, emitter)
    manifest = {
        "command": args.command,
        "argv": list(argv),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "numpy": np.__version__,
    }
    out = emitter.render(manifest)
    manifest["wall_time_s"] = round(time.monotonic() - t0, 6)
    return EXIT_OK, out, manifest


def _cmd_capacity(args, mixed, cost, em: Emitter):
    for idx, (w, comp) in enumerate(mixed.atoms):
        res = constrained_capacity(comp, cost)
        em.row(quantity=f"capacity[{idx}]", value=res.capacity, units="nats",
               method="exact", weight=w, multiplier=res.multiplier,
               kt_slack=res.kt_slack)


def _cmd_eps_capacity(args, mixed, cost, em: Emitter):
    # the well-ordered path checks eps, then runs the ordering check itself
    res = (eps_capacity_well_ordered if args.well_ordered else eps_capacity)(mixed, cost, args.eps)
    method = "exact-formula" if args.well_ordered else "lower-bound"
    em.row(quantity="eps_capacity", value=res.capacity, units="nats", method=method,
           eps=args.eps, mass_below=res.mass_below, mass_at_or_below=res.mass_at_or_below,
           argmax_input=" ".join(_fmt(float(x)) for x in res.argmax_input.probs),
           achieving_component="" if res.achieving_component is None
           else res.achieving_component, upper_bound=res.upper_bound)


def _cmd_second_order(args, mixed, cost, em: Emitter):
    res = (second_order_well_ordered(mixed, cost, args.eps, args.tie_tol) if args.well_ordered
           else second_order_lb(mixed, cost, args.rate, args.eps, args.tie_tol))
    em.row(quantity="second_order", value=res.s_value, units="nats", method=res.method,
           eps=args.eps, rate=res.rate, theta2_mass=res.theta2_mass,
           gw_at_solution=res.gw_at_solution, open_boundary=res.open_boundary,
           input=" ".join(_fmt(float(x)) for x in res.input.probs))


def _cmd_check_well_ordered(args, mixed, cost, em: Emitter):
    tol = {} if args.tol is None else {"tol": args.tol}  # else the library's default
    report = check_well_ordered(mixed, cost, **tol)
    em.row(quantity="is_well_ordered", value=int(report.is_well_ordered), units="bool",
           method="exact", tolerance=report.tolerance,
           violations=len(report.violations), coverage=report.coverage)
    for q, (v, cum) in enumerate(report.capacity_spectrum):
        em.row(quantity=f"spectrum[{q}]", value=v, units="nats", method="exact",
               tolerance="", violations="", coverage=f"cumulative_weight={_fmt(cum)}")
    for v in report.violations:
        em.row(quantity="violation", value=v.observed_info, units="nats",
               method="exact", tolerance=report.tolerance,
               violations=f"pair=({v.theta},{v.theta_prime})", coverage=v.required)


def _cmd_fbl(args, mixed, cost, em: Emitter):
    eta = args.eta if args.eta is not None else 1.0 / math.sqrt(args.n)
    slack = SlackParams(eta=eta)
    code = CodeParams(args.n, args.rate)
    p = _input_dist(args, cost)
    outs = output_distribution(p, mixed)
    if args.mc and args.trials is None:
        raise ValueError("--mc requires --trials")
    if args.bound == "exact" and (args.mc or args.trials is not None):
        raise ValueError("--mc and --trials do not apply to --bound exact: "
                         "it has no Monte-Carlo path")
    mc = dict(mc_trials=args.trials, seed=args.seed, threads=args.threads, force_mc=args.mc)
    if args.bound == "feinstein":
        est = feinstein_bound(mixed, p, code, slack, **mc)
    elif args.bound == "hn":
        q_mix = np.cumsum(mixed.weights[:, None] * outs, axis=0)[-1]  # summed in atom order
        est = hayashi_nagaoka_bound(mixed, code, q_mix, slack, input_spec=p, **mc)
    elif args.bound == "mixed-converse":
        est = mixed_converse_bound(mixed, code, outs, slack, input_spec=p, **mc)
    else:
        est = exact_tail_bound(mixed, code, outs, input_spec=p)
    method = "mc" if est.trials else "exact"
    em.row(quantity=args.bound, value=est.value, units="probability", method=method,
           n=args.n, rate=args.rate, rate_units="nats", eta=eta, stderr=est.stderr,
           trials=est.trials, seed=est.seed, note=est.note)


def _cmd_validate_lemmas(args, mixed, cost, em: Emitter):
    p = _input_dist(args, cost)
    slack = SlackParams(eta=1.0, gamma_slack=args.gamma_slack)
    for n in args.n:
        comp_type = quantized_type(p, n, cost)
        outs = output_distribution(InputDist(comp_type.fractions), mixed)
        z_grid = np.linspace(0.05, math.log(mixed.num_outputs) + 1.0, args.z_points)
        rep = decomposition_check(mixed, comp_type, outs, n, slack, z_grid)
        exp = rep.expurgation
        em.row(quantity="expurgated_mass", value=exp.mass, units="probability",
               method="exact", n=n, detail=f"bound={_fmt(exp.bound)}",
               members="".join("1" if m else "0" for m in exp.member_mask))
        em.row(quantity="decomposition_pass", value=int(rep.passed), units="bool",
               method="exact", n=n,
               detail=f"violations={len(rep.failures)},atoms={rep.member_atoms}",
               members="")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
        code, out, manifest = run_command(argv, args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
            with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
                json.dump(_jsonable(manifest), fh, sort_keys=True, indent=2)
                fh.write("\n")
        else:
            sys.stdout.write(out)
    except (ValueError, OSError) as exc:  # includes InfeasibleCostError, DominationError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, EnumerationCapError, NotWellOrderedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


def console_main():
    """Process entry point: ``main``, then exit without interpreter teardown.

    Teardown (clearing modules, a last garbage collection over numpy's objects)
    costs about 25 ms and saves nothing: ``main`` closes every ``--out`` file in
    its ``with`` blocks, and mixcap registers no ``atexit`` work; keep it so.
    ``SystemExit`` (``--help``) and uncaught exceptions take the normal exit.
    """
    code = main()
    logging.shutdown()
    try:
        sys.stdout.flush()
    except OSError as exc:  # buffered output to a closed pipe fails here, not in main
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
