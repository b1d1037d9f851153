"""Output checks: each CLI output against the numpy references.

A check returns None when the output is right and a one-line reason when it
is not.  Tolerances are never tighter than the program's own: the capacity
solve stops at a 1e-9 optimality gap, and the search lower bound may exceed
the exact formula by ~6e-10, so value comparisons use 1e-8 unless the value
is an exact sum (1e-9) or a Monte-Carlo estimate (z * sqrt(K) * stderr,
where K is the number of components, because all components draw from one
Philox key and their errors are not independent).
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

CAP_TOL = 1e-8
TAIL_TOL = 1e-9
S_RTOL = 1e-6
MC_Z = 6.0


def parse_csv(text: str):
    """Rows of the CLI's CSV as dicts; rows with commas inside a field keep
    their leading four columns (quantity, value, units, method) only."""
    lines = text.splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) == len(header):
            rows.append(dict(zip(header, fields)))
        else:
            rows.append(dict(zip(header[:4], fields[:4])))
    return rows


def num(s: str) -> float:
    """A CLI number; infinities are written as +inf / -inf."""
    return float(s.lstrip("+"))


def _vector(s: str) -> np.ndarray:
    return np.array([float(t) for t in s.split()])


class Context:
    """References shared by the jobs of one workload, computed once per spec."""

    def __init__(self):
        self._specs = {}
        self._caps = {}
        self.laws = {}

    def spec(self, path: str) -> ref.Spec:
        if path not in self._specs:
            with open(path, encoding="utf-8") as fh:
                self._specs[path] = ref.Spec(json.load(fh))
        return self._specs[path]

    def capacities(self, path: str) -> list:
        """Certified capacity brackets of every component (closed form for BSCs)."""
        if path not in self._caps:
            spec = self.spec(path)
            if spec.bsc_p is not None:
                out = []
                for p in spec.bsc_p:
                    c = ref.bsc_capacity(p)
                    out.append(ref.CapacityBracket(c, c, np.array([0.5, 0.5])))
            else:
                out = [ref.capacity(m, spec.costs, spec.gamma) for m in spec.mats]
            self._caps[path] = out
        return self._caps[path]


def _near(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def _feasible(spec: ref.Spec, p: np.ndarray) -> str | None:
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        return "input is not a probability vector"
    if spec.gamma is not None and float(p @ spec.costs) > spec.gamma + 1e-9:
        return "input exceeds the cost budget"
    return None


def check_capacity(ctx, job, rows):
    spec = ctx.spec(job.spec)
    caps = ctx.capacities(job.spec)
    if len(rows) != len(caps):
        return f"{len(rows)} rows for {len(caps)} components"
    for i, (row, br) in enumerate(zip(rows, caps)):
        if row["quantity"] != f"capacity[{i}]" or row["units"] != "nats":
            return f"row {i} is {row['quantity']} in {row['units']}"
        v = num(row["value"])
        if not br.lo - CAP_TOL <= v <= br.hi + CAP_TOL:
            return f"capacity[{i}] = {v!r}, reference in [{br.lo!r}, {br.hi!r}]"
        if num(row["weight"]) != spec.weights[i]:
            return f"capacity[{i}] weight {row['weight']} differs from the spec"
    return None


def check_ordered(ctx, job, rows):
    spec = ctx.spec(job.spec)
    if not rows or rows[0]["quantity"] != "is_well_ordered":
        return "no is_well_ordered row"
    if int(rows[0]["value"]) != job.params["expect"]:
        return f"is_well_ordered = {rows[0]['value']}, expected {job.params['expect']}"
    caps = ctx.capacities(job.spec)
    order = np.argsort([c.lo for c in caps])
    spectrum = [r for r in rows if r["quantity"].startswith("spectrum[")]
    if len(spectrum) != len(caps):
        return f"{len(spectrum)} spectrum rows for {len(caps)} distinct capacities"
    cum = 0.0
    for row, i in zip(spectrum, order):
        cum += spec.weights[i]
        if not caps[i].lo - CAP_TOL <= num(row["value"]) <= caps[i].hi + CAP_TOL:
            return f"{row['quantity']} = {row['value']}, reference {caps[i].lo!r}"
        if abs(num(row["coverage"].split("=")[1]) - cum) > 1e-12:
            return f"{row['quantity']} cumulative weight {row['coverage']}, expected {cum!r}"
    return None


def _cap_quantile(ctx, job, eps: float, end: str) -> float:
    caps = ctx.capacities(job.spec)
    return ref.weighted_quantile([getattr(c, end) for c in caps], ctx.spec(job.spec).weights, eps)


def check_eps_lb(ctx, job, rows):
    spec, eps = ctx.spec(job.spec), job.params["eps"]
    (row,) = rows
    v = num(row["value"])
    p = _vector(row["argmax_input"])
    bad = _feasible(spec, p)
    if bad:
        return bad
    infos = [ref.mutual_information(p, m) for m in spec.mats]
    q = ref.weighted_quantile(infos, spec.weights, eps)
    if abs(v - q) > CAP_TOL:
        return f"value {v!r} but the quantile of I(P, W_k) at the argmax is {q!r}"
    upper = _cap_quantile(ctx, job, eps, "hi")
    if v > upper + CAP_TOL:
        return f"value {v!r} above the capacity quantile {upper!r}"
    if not num(row["mass_below"]) <= eps + 1e-12 < num(row["mass_at_or_below"]) + 2e-12:
        return f"masses {row['mass_below']}, {row['mass_at_or_below']} do not bracket eps"
    return None


def _check_s(row, s_ref, open_ref, mass_ref):
    s = num(row["value"])
    if not _near(s, s_ref, S_RTOL * max(1.0, abs(s_ref) if math.isfinite(s_ref) else 1.0)):
        return f"second-order value {s!r}, reference {s_ref!r}"
    if (row["open_boundary"] == "True") != open_ref:
        return f"open_boundary {row['open_boundary']}, reference {open_ref}"
    if abs(num(row["theta2_mass"]) - mass_ref) > 1e-12:
        return f"theta2_mass {row['theta2_mass']}, reference {mass_ref!r}"
    return None


def check_so_lb(ctx, job, rows):
    spec, eps = ctx.spec(job.spec), job.params["eps"]
    (row,) = rows
    if row["method"] != "lower-bound":
        return f"method {row['method']} on the general path"
    r = num(row["rate"])
    p = _vector(row["input"])
    bad = _feasible(spec, p)
    if bad:
        return bad
    upper = _cap_quantile(ctx, job, eps, "hi")
    if r > upper + CAP_TOL:
        return f"rate {r!r} above the capacity quantile {upper!r}"
    infos = [ref.mutual_information(p, m) for m in spec.mats]
    (s_ref, open_ref), mass = ref.second_order_at(spec, p, r, eps, infos, ref.TIE_TOL_LB)
    return _check_s(row, s_ref, open_ref, mass)


def check_eps_wo(ctx, job, rows):
    spec, eps = ctx.spec(job.spec), job.params["eps"]
    (row,) = rows
    if row["method"] != "exact-formula":
        return f"method {row['method']} on the capacity-ordered path"
    caps = ctx.capacities(job.spec)
    v = num(row["value"])
    q = _cap_quantile(ctx, job, eps, "lo")
    if abs(v - q) > CAP_TOL:
        return f"value {v!r}, capacity quantile {q!r}"
    k = int(row["achieving_component"])
    p = _vector(row["argmax_input"])
    bad = _feasible(spec, p)
    if bad:
        return bad
    if abs(caps[k].lo - v) > CAP_TOL or ref.mutual_information(p, spec.mats[k]) < caps[k].lo - CAP_TOL:
        return f"component {k} does not achieve {v!r} at the printed input"
    return None


def check_so_wo(ctx, job, rows):
    spec, eps = ctx.spec(job.spec), job.params["eps"]
    (row,) = rows
    if row["method"] != "exact-formula":
        return f"method {row['method']} on the capacity-ordered path"
    caps = [c.lo for c in ctx.capacities(job.spec)]
    r = num(row["rate"])
    q = _cap_quantile(ctx, job, eps, "lo")
    if abs(r - q) > CAP_TOL:
        return f"rate {r!r}, capacity quantile {q!r}"
    p = _vector(row["input"])
    bad = _feasible(spec, p)
    if bad:
        return bad
    k = int(np.argmin([abs(c - r) for c in caps]))
    if ref.mutual_information(p, spec.mats[k]) < caps[k] - CAP_TOL:
        return "the printed input does not achieve the capacity of the at-rate component"
    (s_ref, open_ref), mass = ref.second_order_at(spec, p, r, eps, caps, ref.TIE_TOL_EXACT)
    return _check_s(row, s_ref, open_ref, mass)


def check_fbl(ctx, job, rows, mc: bool = False):
    spec, prm = ctx.spec(job.spec), job.params
    (row,) = rows
    if row["quantity"] != prm["bound"] or row["units"] != "probability":
        return f"row {row['quantity']} in {row['units']}"
    if int(row["n"]) != prm["n"] or num(row["rate"]) != prm["rate"]:
        return "n or rate not echoed"
    p = np.full(spec.num_inputs, 1.0 / spec.num_inputs)
    expect = ref.fbl_value(spec, p, prm["n"], prm["rate"], prm["bound"], ctx.laws)
    v, stderr, trials = num(row["value"]), num(row["stderr"]), int(row["trials"])
    if not mc:
        if row["method"] != "exact" or trials != 0 or stderr != 0.0:
            return f"method {row['method']} with {trials} trials on the exact path"
        if abs(v - expect) > TAIL_TOL:
            return f"value {v!r}, reference {expect!r}"
        return None
    if row["method"] != "mc" or trials < prm["trials"]:
        return f"method {row['method']} with {trials} trials: the Monte-Carlo fallback did not run"
    if not 0.0 < stderr < 1.0:
        return f"stderr {stderr!r} outside (0, 1)"
    width = MC_Z * math.sqrt(len(spec.mats)) * stderr
    if abs(v - expect) > width:
        return f"value {v!r} is {abs(v - expect) / stderr:.1f} stderr from the reference {expect!r}"
    return None


def check_lemmas(ctx, job, rows):
    spec = ctx.spec(job.spec)
    p = np.full(spec.num_inputs, 1.0 / spec.num_inputs)
    if len(rows) != 2 * len(job.params["n"]):
        return f"{len(rows)} rows for {len(job.params['n'])} blocklengths"
    for i, n in enumerate(job.params["n"]):
        exp_row, dec_row = rows[2 * i], rows[2 * i + 1]
        if exp_row["quantity"] != "expurgated_mass" or dec_row["quantity"] != "decomposition_pass":
            return "unexpected row order"
        counts = ref.quantized_counts(p, n, spec.costs)
        q_list = [(counts / n) @ m for m in spec.mats]
        member = ref.expurgated_members(spec, q_list, n)
        mask = "".join("1" if b else "0" for b in member)
        if exp_row["members"] != mask:
            return f"n={n}: members {exp_row['members']}, reference {mask}"
        if abs(num(exp_row["value"]) - float(spec.weights[member].sum())) > 1e-12:
            return f"n={n}: expurgated mass {exp_row['value']}, reference {spec.weights[member].sum()!r}"
        if dec_row["value"] != "1":
            return f"n={n}: a decomposition inequality failed"
    return None


def check_refused(out: str, err: str):
    if out:
        return "refusal printed a primary output"
    if not err.startswith("numerical failure:") or "ordering" not in err:
        return f"refusal message {err.strip()[:80]!r}"
    return None


CHECKS = {
    "capacity": check_capacity,
    "ordered_check": check_ordered,
    "eps_lb": check_eps_lb,
    "so_lb": check_so_lb,
    "eps_wo": check_eps_wo,
    "so_wo": check_so_wo,
    "fbl": check_fbl,
    "fbl_mc": lambda ctx, job, rows: check_fbl(ctx, job, rows, mc=True),
    "lemmas": check_lemmas,
}


def check(ctx: Context, job, code: int, out: str, err: str) -> str | None:
    """None when the job exited as expected and its output passes its check."""
    if code != job.expect_exit:
        return f"exit {code}, expected {job.expect_exit}: {err.strip()[-160:]}"
    if job.kind == "refused":
        return check_refused(out, err)
    try:
        return CHECKS[job.kind](ctx, job, parse_csv(out))
    except (KeyError, ValueError, IndexError) as exc:
        return f"output does not parse: {type(exc).__name__}: {exc}"
