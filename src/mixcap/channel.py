"""Channel, distribution and cost types plus single-letter information measures.

All information quantities are in nats.  Every type is frozen after
construction (numpy arrays are made read-only), and every function is pure,
so everything here is safe to share across threads.

Conventions:
  * 0 * log 0 = 0 throughout.
  * probability vectors must sum to 1 within ``SUM_TOL``; out-of-tolerance
    inputs are rejected, never renormalized.
  * logs of channel matrices and reference outputs are taken only here;
    ``Dmc.log_rows`` holds log W.  A reference q with q(y) = 0 at a reachable
    (x, y) makes divergences +inf and the information density raise
    ``DominationError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SUM_TOL = 1e-12

UNCONSTRAINED = None  # distinguished gamma value for "no cost constraint"


class InfeasibleCostError(ValueError):
    """Raised when a cost budget is below the cheapest input letter."""


class DominationError(ValueError):
    """The reference output gives zero mass to a reachable output letter."""


def _frozen_array(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_prob_vector(v: np.ndarray, what: str) -> None:
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{what} must be a non-empty vector")
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError(f"{what} has entries outside [0, 1]")
    s = float(v.sum())
    if abs(s - 1.0) > SUM_TOL:
        raise ValueError(f"{what} sums to {s:.17g}, not 1 within {SUM_TOL:g}")


@dataclass(frozen=True)
class Dmc:
    """A discrete memoryless channel, ``rows[x, y] = W(y|x)``; ``log_rows`` is log W."""

    rows: np.ndarray
    log_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = _frozen_array(self.rows)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValueError("channel matrix must be 2-D with at least one row and column")
        for x in range(rows.shape[0]):
            _check_prob_vector(rows[x], f"channel row {x}")
        object.__setattr__(self, "rows", rows)
        with np.errstate(divide="ignore"):  # -inf where W(y|x) = 0
            object.__setattr__(self, "log_rows", _frozen_array(np.log(rows)))

    @property
    def num_inputs(self) -> int:
        return self.rows.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class InputDist:
    """A probability vector on the input alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _frozen_array(self.probs)
        _check_prob_vector(probs, "input distribution")
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    @staticmethod
    def uniform(k: int) -> "InputDist":
        return InputDist(np.full(k, 1.0 / k))


@dataclass(frozen=True)
class CostSpec:
    """Per-letter input costs c(x) >= 0 and a budget gamma.

    ``gamma=None`` (the UNCONSTRAINED sentinel) means no constraint.  Any
    constrained query requires ``gamma >= gamma_zero``, the cost of the
    cheapest letter.
    """

    costs: np.ndarray
    gamma: float | None = UNCONSTRAINED

    def __post_init__(self):
        costs = _frozen_array(self.costs)
        if costs.ndim != 1 or costs.size < 1:
            raise ValueError("costs must be a non-empty vector")
        if np.any(costs < 0.0):
            raise ValueError("costs must be nonnegative")
        object.__setattr__(self, "costs", costs)
        if self.gamma is not None:
            object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def gamma_zero(self) -> float:
        return float(self.costs.min())

    @property
    def is_unconstrained(self) -> bool:
        """True when no feasible input is excluded (gamma absent or >= max cost)."""
        return self.gamma is None or self.gamma >= float(self.costs.max())

    def check_feasible(self) -> None:
        if self.gamma is not None and self.gamma < self.gamma_zero - SUM_TOL:
            raise InfeasibleCostError(
                f"budget {self.gamma:g} is below the cheapest letter cost {self.gamma_zero:g}"
            )

    def expected_cost(self, p: InputDist) -> float:
        return float(p.probs @ self.costs)

    def admits(self, p: InputDist, slack: float = 1e-12) -> bool:
        if self.gamma is None:
            return True
        return self.expected_cost(p) <= self.gamma + slack

    @staticmethod
    def free(num_inputs: int) -> "CostSpec":
        """Zero costs, no budget: the fully unconstrained spec."""
        return CostSpec(np.zeros(num_inputs), UNCONSTRAINED)


@dataclass(frozen=True)
class MixedChannel:
    """A finite mixture of DMCs sharing one input and one output alphabet."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(w), comp) for w, comp in self.atoms)
        if not atoms:
            raise ValueError("mixed channel needs at least one atom")
        shape = atoms[0][1].rows.shape
        for i, (w, comp) in enumerate(atoms):
            if not (0.0 < w <= 1.0):
                raise ValueError(f"atom {i} weight {w:g} outside (0, 1]")
            if comp.rows.shape != shape:
                raise ValueError(f"atom {i} has shape {comp.rows.shape}, expected {shape}")
        total = sum(w for w, _ in atoms)
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"atom weights sum to {total:.17g}, not 1 within {SUM_TOL:g}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.atoms])

    @property
    def components(self) -> tuple:
        return tuple(comp for _, comp in self.atoms)

    @property
    def num_inputs(self) -> int:
        return self.atoms[0][1].num_inputs

    @property
    def num_outputs(self) -> int:
        return self.atoms[0][1].num_outputs

    @staticmethod
    def singleton(w: Dmc) -> "MixedChannel":
        return MixedChannel(((1.0, w),))


@dataclass(frozen=True)
class InfoStats:
    """Single-letter statistics of the information density log(W(y|x)/q(y)).

    ``mutual_info`` and ``dispersion`` are taken at the input distribution with
    its own output as reference; ``comp_variance`` and ``third_abs_moment`` may
    use a separate composition and reference output (see ``info_stats``).
    """

    mutual_info: float
    dispersion: float
    comp_variance: float
    third_abs_moment: float

    def __post_init__(self):
        for name in ("mutual_info", "dispersion", "comp_variance", "third_abs_moment"):
            v = float(getattr(self, name))
            if v < -1e-9:
                raise ValueError(f"{name} = {v:g} is negative")
            object.__setattr__(self, name, max(v, 0.0))


@dataclass(frozen=True)
class SlackParams:
    """Slack knobs of the non-asymptotic bounds: eta and gamma."""

    eta: float
    gamma_slack: float = 1.0

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if not self.gamma_slack > 0:
            raise ValueError("gamma_slack must be positive")


# ---------------------------------------------------------------------------
# single-letter operations
# ---------------------------------------------------------------------------


def output_distribution(p: InputDist, w: Dmc) -> np.ndarray:
    """Output distribution (PW)(y) = sum_x P(x) W(y|x)."""
    if p.size != w.num_inputs:
        raise ValueError(f"input size {p.size} does not match channel inputs {w.num_inputs}")
    return p.probs @ w.rows


def _divergences(rows: np.ndarray, log_rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(rows[x] || q) for every row; 0 log 0 = 0, +inf where q misses a row's support."""
    support = rows > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = rows * (log_rows - np.log(q))
    out = np.where(support, terms, 0.0).sum(axis=1)
    out[(support & (q <= 0.0)).any(axis=1)] = math.inf
    return out


def divergence(p, q) -> float:
    """D(p || q) in nats; returns math.inf when q fails to dominate p."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("divergence arguments must have equal length")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(p)
    return float(_divergences(p[None, :], log_p[None, :], q)[0])


def row_divergences(w: Dmc, q: np.ndarray) -> np.ndarray:
    """D(W(.|x) || q) for every input letter, +inf where q fails to dominate."""
    return _divergences(w.rows, w.log_rows, np.asarray(q, dtype=float))


def log_density(px, w: Dmc, q, numer: np.ndarray | None = None) -> np.ndarray:
    """The information density log(numer(y|x) / q(y)), -inf off the reachable cells.

    A cell (x, y) is reachable when px[x] > 0 and W(y|x) > 0; ``px`` weighs
    the input letters and ``numer`` defaults to W.  Raises ``DominationError``
    naming the first reachable (x, y), in row-major order, where q(y) = 0.
    """
    q = np.asarray(q, dtype=float)
    reach = (np.asarray(px) > 0.0)[:, None] & (w.rows > 0.0)
    missed = np.argwhere(reach & (q <= 0.0))
    if len(missed):
        x, y = missed[0]
        raise DominationError(f"reference output has zero mass at y={y}, reachable from x={x}")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_numer = w.log_rows if numer is None else np.log(numer)
        return np.where(reach, log_numer - np.log(q), -np.inf)


def mutual_information(p: InputDist, w: Dmc) -> float:
    """I(P, W) = sum_x P(x) D(W(.|x) || PW), in nats."""
    pw = output_distribution(p, w)
    d = row_divergences(w, pw)
    active = p.probs > 0.0
    return max(float(p.probs[active] @ d[active]), 0.0)


def _conditional_moments(weights_x: np.ndarray, w: Dmc, q: np.ndarray):
    """Average conditional variance / third absolute moment of log(W(y|x)/q(y)).

    Per letter x the density is centered at D(W(.|x) || q); the averages are
    taken with the composition ``weights_x`` over inputs.
    """
    dens = log_density(weights_x, w, q)
    var = third = 0.0
    for x in np.flatnonzero(weights_x > 0.0):
        support = w.rows[x] > 0.0
        row, d = w.rows[x][support], dens[x][support]
        centered = d - float(row @ d)
        var += weights_x[x] * float(row @ (centered**2))
        third += weights_x[x] * float(row @ (np.abs(centered) ** 3))
    return max(var, 0.0), max(third, 0.0)


def channel_dispersion(p: InputDist, w: Dmc) -> float:
    """Per-letter variance of the information density at (P, PW), in nats^2."""
    pw = output_distribution(p, w)
    var, _ = _conditional_moments(p.probs, w, pw)
    return var


def info_stats(
    p: InputDist,
    w: Dmc,
    composition: InputDist | None = None,
    ref_output: np.ndarray | None = None,
) -> InfoStats:
    """Bundle the single-letter statistics of (P, W).

    ``composition`` and ``ref_output`` default to P and PW; passing a codeword
    composition plus a fixed reference output gives the composition-dependent
    variance used by the finite-blocklength normal approximation.
    """
    pw = output_distribution(p, w)
    mi = mutual_information(p, w)
    if mi > math.log(min(w.num_inputs, w.num_outputs)) + 1e-9:
        raise ValueError("mutual information exceeds the alphabet bound")
    disp, _ = _conditional_moments(p.probs, w, pw)
    comp = composition.probs if composition is not None else p.probs
    q = np.asarray(ref_output, dtype=float) if ref_output is not None else pw
    comp_var, third = _conditional_moments(comp, w, q)
    return InfoStats(mi, disp, comp_var, third)


# ---------------------------------------------------------------------------
# Gaussian cdf, its inverse, and the variance-indexed cdf family
# ---------------------------------------------------------------------------


def gaussian_cdf(z: float) -> float:
    """Standard normal cdf G(z)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


_INV_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
          1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_INV_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
          6.680131188771972e01, -1.328068155288572e01)
_INV_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
          -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_INV_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
          3.754408661907416e00)


def gaussian_inv(eps: float) -> float:
    """Inverse standard normal cdf, absolute error well below 1e-9.

    Rational initial guess refined by one Halley step against ``gaussian_cdf``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"gaussian_inv requires an argument strictly in (0, 1), got {eps!r}")
    p_low = 0.02425
    if eps < p_low:
        u = math.sqrt(-2.0 * math.log(eps))
        x = ((((((_INV_C[0] * u + _INV_C[1]) * u + _INV_C[2]) * u + _INV_C[3]) * u
               + _INV_C[4]) * u + _INV_C[5])
             / ((((_INV_D[0] * u + _INV_D[1]) * u + _INV_D[2]) * u + _INV_D[3]) * u + 1.0))
    elif eps <= 1.0 - p_low:
        u = eps - 0.5
        r = u * u
        x = ((((((_INV_A[0] * r + _INV_A[1]) * r + _INV_A[2]) * r + _INV_A[3]) * r
               + _INV_A[4]) * r + _INV_A[5]) * u
             / (((((_INV_B[0] * r + _INV_B[1]) * r + _INV_B[2]) * r + _INV_B[3]) * r
                 + _INV_B[4]) * r + 1.0))
    else:
        u = math.sqrt(-2.0 * math.log(1.0 - eps))
        x = -((((((_INV_C[0] * u + _INV_C[1]) * u + _INV_C[2]) * u + _INV_C[3]) * u
                + _INV_C[4]) * u + _INV_C[5])
              / ((((_INV_D[0] * u + _INV_D[1]) * u + _INV_D[2]) * u + _INV_D[3]) * u + 1.0))
    # Halley refinement against the erfc-based cdf.
    err = gaussian_cdf(x) - eps
    u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    x -= u / (1.0 + 0.5 * x * u)
    return x


def psi_from_variance(v: float, s: float) -> float:
    """G(s / sqrt(v)); the step function 1{s >= 0} when v = 0."""
    if v < 0.0:
        raise ValueError("variance must be nonnegative")
    if v == 0.0:
        return 1.0 if s >= 0.0 else 0.0
    return gaussian_cdf(s / math.sqrt(v))


def psi(theta_stats: InfoStats, s: float) -> float:
    """Variance-indexed Gaussian cdf of a component, evaluated at s."""
    return psi_from_variance(theta_stats.dispersion, s)
