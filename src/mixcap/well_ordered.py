"""Decide whether a component family is ordered by capacity.

The defining conditions are checked for every ordered pair of components at
every representative of the capacity-achieving input set: equal capacities
must give mutual information equal to that capacity through the other
channel, and a strictly larger capacity must give strictly larger mutual
information.  Only finitely many representatives are checked, so a pass means
"no violation found at this resolution", while any recorded violation is a
genuine refutation (up to the stated tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import CostSpec, Dmc, InputDist, MixedChannel, mutual_information
from .first_order import capacity_quantile_curve
from .optimizer import capacity_achieving_set, constrained_capacity, _simplex_grid

DEFAULT_ORDER_TOL = 1e-7


class NotWellOrderedError(RuntimeError):
    """Raised when the exact path is requested but the ordering check failed."""


@dataclass(frozen=True)
class OrderViolation:
    theta: int
    theta_prime: int
    rep_input: InputDist
    observed_info: float
    required: str

    def __str__(self):
        return (f"atoms ({self.theta}, {self.theta_prime}): I = "
                f"{self.observed_info:.9g}, required {self.required}")


@dataclass(frozen=True)
class WellOrderReport:
    is_well_ordered: bool
    violations: tuple
    capacity_spectrum: tuple  # sorted (capacity, cumulative weight)
    tolerance: float
    coverage: str

    def __post_init__(self):
        if self.is_well_ordered != (len(self.violations) == 0):
            raise ValueError("report inconsistent: violations must be empty iff well-ordered")


def more_capable(w1: Dmc, w2: Dmc, grid: int = 64) -> bool:
    """True when I(P, w1) <= I(P, w2) + 1e-9 at every simplex grid point.

    A necessary-condition check at the given resolution, not a certificate.
    """
    if w1.rows.shape != w2.rows.shape:
        raise ValueError("channels must share alphabets")
    for g in _simplex_grid(w1.num_inputs, grid):
        p = InputDist(g)
        if mutual_information(p, w1) > mutual_information(p, w2) + 1e-9:
            return False
    return True


def check_well_ordered(
    mixed: MixedChannel,
    cost: CostSpec | None = None,
    tol: float = DEFAULT_ORDER_TOL,
    rep_grid: int = 32,
    rep_opt_tol: float = 1e-9,
) -> WellOrderReport:
    """Check the capacity-ordering conditions over sampled representatives.

    Near-equal capacities (within tol) are treated as equal.  The finite atom
    list makes the closedness hypothesis vacuous.
    """
    if cost is None:
        cost = CostSpec.free(mixed.num_inputs)
    cost.check_feasible()
    optima = [constrained_capacity(comp, cost) for comp in mixed.components]
    caps = [res.capacity for res in optima]
    rep_sets = [
        capacity_achieving_set(comp, cost, opt_tol=rep_opt_tol, grid=rep_grid)
        for comp in mixed.components
    ]
    violations = []
    n = mixed.num_atoms
    for i in range(n):
        for p in rep_sets[i].representatives:
            infos = {}
            for j in range(n):
                if j == i:
                    continue
                infos[j] = mutual_information(p, mixed.components[j])
            for j in range(n):
                if j == i:
                    continue
                if abs(caps[i] - caps[j]) <= tol:
                    if abs(infos[j] - caps[i]) > tol:
                        violations.append(OrderViolation(
                            i, j, p, infos[j],
                            f"|I - {caps[i]:.9g}| <= {tol:g} (equal capacities)"))
                elif caps[i] < caps[j] - tol:
                    if not infos[j] > caps[i] + tol:
                        violations.append(OrderViolation(
                            i, j, p, infos[j],
                            f"I > {caps[i]:.9g} + {tol:g} (larger capacity)"))
    curve = capacity_quantile_curve(mixed, optima)
    cum = tuple((v, curve.masses(v)[1]) for v, _ in curve.breakpoints)
    n_reps = sum(len(r.representatives) for r in rep_sets)
    coverage = (
        f"checked {n_reps} sampled representatives (grid 1/{rep_grid}, "
        f"opt tol {rep_opt_tol:g}); a pass refutes nothing beyond this resolution; "
        "closedness is vacuous for a finite atom list"
    )
    return WellOrderReport(len(violations) == 0, tuple(violations), cum, tol, coverage)


def require_well_ordered(mixed: MixedChannel, cost: CostSpec | None = None,
                         tol: float = DEFAULT_ORDER_TOL) -> WellOrderReport:
    """``check_well_ordered``, raising NotWellOrderedError when it fails.

    The exact (well-ordered) paths refuse rather than return a value whose
    formula does not apply; the message points to the lower-bound path.
    """
    report = check_well_ordered(mixed, cost, tol=tol)
    if not report.is_well_ordered:
        raise NotWellOrderedError(
            "component family failed the capacity-ordering check; use the lower-bound "
            "path (without --well-ordered). Violations: "
            + "; ".join(str(v) for v in report.violations[:3]))
    return report
