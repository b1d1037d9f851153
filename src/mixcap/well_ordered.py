"""Decide whether a component family is ordered by capacity.

The defining conditions are checked for every ordered pair of components at
every vertex of the capacity-achieving input polytope: equal capacities must
give mutual information equal to that capacity through the other channel,
and a strictly larger capacity must give strictly larger mutual information.
Every capacity-achieving input is feasible and I(., W_j) is concave, so its
minimum over the polytope sits at a vertex: a pass certifies both conditions
up to the stated tolerance, and any recorded violation refutes them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channel import CostSpec, InputDist, MixedChannel, informations
from .first_order import rate_spectrum
from .optimizer import capacity_achieving_set

DEFAULT_ORDER_TOL = 1e-7


class NotWellOrderedError(RuntimeError):
    """Raised when the exact path is requested but the ordering check failed."""


class OrderViolation(NamedTuple):
    theta: int
    theta_prime: int
    rep_input: InputDist
    observed_info: float
    required: str

    def __str__(self):
        return (f"atoms ({self.theta}, {self.theta_prime}): I = "
                f"{self.observed_info:.9g}, required {self.required}")


class WellOrderReport(NamedTuple):
    violations: tuple
    capacity_spectrum: tuple  # sorted (capacity, cumulative weight)
    tolerance: float
    coverage: str
    rep_sets: tuple  # one CapacityAchievingSet per component, in atom order

    @property
    def is_well_ordered(self) -> bool:
        return not self.violations


def check_well_ordered(
    mixed: MixedChannel,
    cost: CostSpec | None = None,
    tol: float = DEFAULT_ORDER_TOL,
) -> WellOrderReport:
    """Check the capacity-ordering conditions at the vertices of each optimal-input polytope.

    Near-equal capacities (within tol) are treated as equal.  The finite atom
    list makes the closedness hypothesis vacuous.  Each component is solved
    once, inside its vertex set; the report keeps the sets.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and nonnegative")
    if cost is None:
        cost = CostSpec.free(mixed.num_inputs)
    cost.check_feasible()
    rep_sets = [capacity_achieving_set(comp, cost) for comp in mixed.components]
    caps = np.array([rs.solve.capacity for rs in rep_sets])
    violations = []
    for i, c in enumerate(caps.tolist()):
        # the other atoms of equal capacity, and those of strictly larger capacity
        equal = np.abs(c - caps) <= tol
        equal[i] = False
        larger = ~equal & (c < caps - tol)
        for p in rep_sets[i].representatives:
            info = informations(p.probs, mixed.rows, mixed.log_rows)
            bad = (equal & (np.abs(info - c) > tol)) | (larger & ~(info > c + tol))
            for j in np.flatnonzero(bad).tolist():
                required = (f"|I - {c:.9g}| <= {tol:g} (equal capacities)" if equal[j]
                            else f"I > {c:.9g} + {tol:g} (larger capacity)")
                violations.append(OrderViolation(i, j, p, float(info[j]), required))
    values, below = rate_spectrum(caps, mixed.weights)
    cum = tuple(zip(values.tolist(), below[1:].tolist() + [1.0]))
    n_vertices = sum(len(r.representatives) for r in rep_sets)
    coverage = (
        f"checked {n_vertices} vertices of the optimal-input polytopes (opt tol "
        f"{rep_sets[0].opt_tolerance:g}); I(., W) is concave, so a pass certifies both "
        "conditions; closedness is vacuous for a finite atom list"
    )
    return WellOrderReport(tuple(violations), cum, tol, coverage, tuple(rep_sets))


def require_well_ordered(mixed: MixedChannel, cost: CostSpec | None = None) -> WellOrderReport:
    """``check_well_ordered`` at the default tolerance, raising NotWellOrderedError on failure.

    The exact (well-ordered) paths refuse rather than return a value whose
    formula does not apply; the message points to the lower-bound path.  The
    report carries each component's solve for the caller to reuse.
    """
    report = check_well_ordered(mixed, cost)
    if not report.is_well_ordered:
        raise NotWellOrderedError(
            "component family failed the capacity-ordering check; use the lower-bound "
            "path (without --well-ordered). Violations: "
            + "; ".join(str(v) for v in report.violations[:3]))
    return report
