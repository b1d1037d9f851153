"""Channel, distribution and cost types plus single-letter information measures.

All information quantities are in nats.  Every type validates its fields on
construction and keeps its numpy arrays read-only, and every function is
pure, so everything here is safe to share across threads.

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
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} has non-finite entries")
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError(f"{what} has entries outside [0, 1]")
    s = float(v.sum())
    if abs(s - 1.0) > SUM_TOL:
        raise ValueError(f"{what} sums to {s:.17g}, not 1 within {SUM_TOL:g}")


class Dmc:
    """A discrete memoryless channel, ``rows[x, y] = W(y|x)``; ``log_rows`` is log W."""

    __slots__ = ("rows", "log_rows")

    def __init__(self, rows):
        rows = _frozen_array(rows)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValueError("channel matrix must be 2-D with at least one row and column")
        for x in range(rows.shape[0]):
            _check_prob_vector(rows[x], f"channel row {x}")
        self.rows = rows
        with np.errstate(divide="ignore"):  # -inf where W(y|x) = 0
            self.log_rows = _frozen_array(np.log(rows))

    @property
    def num_inputs(self) -> int:
        return self.rows.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.rows.shape[1]


class InputDist:
    """A probability vector on the input alphabet."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        probs = _frozen_array(probs)
        _check_prob_vector(probs, "input distribution")
        self.probs = probs

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    @staticmethod
    def uniform(k: int) -> "InputDist":
        return InputDist(np.full(k, 1.0 / k))


class CostSpec:
    """Per-letter input costs c(x) >= 0 and a finite budget gamma.

    ``gamma=None`` (the UNCONSTRAINED sentinel) means no constraint.  Any
    constrained query requires ``gamma >= gamma_zero``, the cost of the
    cheapest letter.
    """

    __slots__ = ("costs", "gamma")

    def __init__(self, costs, gamma: float | None = UNCONSTRAINED):
        costs = _frozen_array(costs)
        if costs.ndim != 1 or costs.size < 1:
            raise ValueError("costs must be a non-empty vector")
        if np.any(costs < 0.0):
            raise ValueError("costs must be nonnegative")
        self.costs = costs
        if gamma is not None:
            gamma = float(gamma)
            if not math.isfinite(gamma):
                raise ValueError(f"gamma must be a finite number, got {gamma}")
        self.gamma = gamma

    @property
    def gamma_zero(self) -> float:
        return float(self.costs.min())

    @property
    def budget(self) -> float:
        """gamma, or the largest letter cost when unconstrained: no input costs more."""
        return float(self.costs.max()) if self.gamma is None else self.gamma

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


class MixedChannel:
    """A finite mixture of DMCs sharing one input and one output alphabet; besides its
    ``atoms`` it keeps ``weights`` (K,), and W and log W stacked as ``rows`` and ``log_rows``
    (K, X, Y)."""

    __slots__ = ("atoms", "weights", "rows", "log_rows")

    def __init__(self, atoms: tuple):
        atoms = tuple((float(w), comp) for w, comp in atoms)
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
        self.atoms = atoms
        self.weights = _frozen_array([w for w, _ in atoms])
        self.rows = _frozen_array([comp.rows for _, comp in atoms])
        self.log_rows = _frozen_array([comp.log_rows for _, comp in atoms])

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @property
    def components(self) -> tuple:
        return tuple(comp for _, comp in self.atoms)

    @property
    def num_inputs(self) -> int:
        return self.rows.shape[1]

    @property
    def num_outputs(self) -> int:
        return self.rows.shape[2]

    @staticmethod
    def singleton(w: Dmc) -> "MixedChannel":
        return MixedChannel(((1.0, w),))


class SlackParams:
    """Slack knobs of the non-asymptotic bounds: eta and gamma."""

    __slots__ = ("eta", "gamma_slack")

    def __init__(self, eta: float, gamma_slack: float = 1.0):
        for name, value in (("eta", eta), ("gamma_slack", gamma_slack)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value}")
        self.eta, self.gamma_slack = eta, gamma_slack


# ---------------------------------------------------------------------------
# single-letter operations
# ---------------------------------------------------------------------------


def output_distribution(p: InputDist, w) -> np.ndarray:
    """Output distribution (PW)(y) = sum_x P(x) W(y|x); one row per atom of a mixture."""
    if p.size != w.num_inputs:
        raise ValueError(f"input size {p.size} does not match channel inputs {w.num_inputs}")
    return p.probs @ w.rows


def _divergences(rows: np.ndarray, log_rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(rows[..., x, :] || q[..., :]) for every row; 0 log 0 = 0, +inf off q's support."""
    q = q[..., None, :]
    support = rows > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = rows * (log_rows - np.log(q))
    out = np.where(support, terms, 0.0).sum(axis=-1)
    out[(support & (q <= 0.0)).any(axis=-1)] = math.inf
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


def informations(probs: np.ndarray, rows: np.ndarray, log_rows: np.ndarray) -> np.ndarray:
    """I(P, W_k) = sum_x P(x) D(W_k(.|x) || P W_k) for every W_k of a (K, X, Y) stack, in nats."""
    if probs.shape[0] != rows.shape[1]:
        raise ValueError(f"input size {probs.shape[0]} does not match channel inputs "
                         f"{rows.shape[1]}")
    active = probs > 0.0
    pa = probs[active]
    d = np.ascontiguousarray(_divergences(rows, log_rows, probs @ rows)[:, active])
    # one dot per contiguous row: a gemv, an einsum or a strided dot adds in another order
    return np.maximum([pa.dot(d_k) for d_k in d], 0.0)


def mutual_information(p: InputDist, w: Dmc) -> float:
    """I(P, W) = sum_x P(x) D(W(.|x) || PW), in nats."""
    return float(informations(p.probs, w.rows[None], w.log_rows[None])[0])


def channel_dispersion(p: InputDist, w: Dmc) -> float:
    """Per-letter variance of the information density at (P, PW), in nats^2.

    Per letter x the density is centered at D(W(.|x) || PW); the conditional
    variances are averaged under P.
    """
    dens = log_density(p.probs, w, output_distribution(p, w))
    var = 0.0
    for x in np.flatnonzero(p.probs > 0.0):
        support = w.rows[x] > 0.0
        row, d = w.rows[x][support], dens[x][support]
        centered = d - float(row @ d)
        var += p.probs[x] * float(row @ (centered**2))
    return max(var, 0.0)


# ---------------------------------------------------------------------------
# Gaussian cdf, its inverse, and the variance-indexed cdf family
# ---------------------------------------------------------------------------


def gaussian_cdf(z: float) -> float:
    """Standard normal cdf G(z)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def gaussian_inv(eps: float) -> float:
    """Inverse standard normal cdf."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"gaussian_inv requires an argument strictly in (0, 1), got {eps!r}")
    import statistics  # here, not at the top: no command needs it, and it is slow to import
    return statistics.NormalDist().inv_cdf(eps)


def psi_from_variance(v: float, s: float) -> float:
    """G(s / sqrt(v)); the step function 1{s >= 0} when v = 0."""
    if v < 0.0:
        raise ValueError("variance must be nonnegative")
    if v == 0.0:
        return 1.0 if s >= 0.0 else 0.0
    return gaussian_cdf(s / math.sqrt(v))
