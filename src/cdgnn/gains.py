"""Signal-gain analysis for renormalized propagation on mixed neighborhoods.

Closed-form expressions for how much class-aligned signal one propagation
layer keeps, Monte Carlo checks of those expressions, and a certificate
that shrinking the suspect subgraph's dominance improves the gain. The
audit of these assumptions on a trained model is harness.assumption_audit.

Conventions: a neighborhood of degree `degree` splits into a suspect
subgraph holding `subgraph_share` of the aggregated incoming weight with
homophily `subgraph_homophily`, and a remainder with `rest_homophily`.
Cross-class neighbors carry signal scaled by -cross_class_ratio. The
one-layer gain divides by degree + 1 because propagation renormalizes over
the neighborhood plus the node itself.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GainParams",
    "effective_homophily",
    "one_layer_gain",
    "deep_layer_gain",
    "cumulative_gain_ratio",
    "MonteCarloGain",
    "monte_carlo_one_layer",
    "GridCheck",
    "theory_check_grid",
    "default_grid_cells",
    "ImprovementReport",
    "gain_improvement_check",
]


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class GainParams:
    """Neighborhood description consumed by the gain formulas; invalid
    values are refused when it is built.

    mean_relative_degree is the depth->1 ratio of neighbor signal to own
    signal (often nonpositive in practice).
    """

    degree: float
    total_edge_weight: float
    cross_class_ratio: float
    subgraph_share: float
    subgraph_homophily: float
    rest_homophily: float
    mean_relative_degree: float = 0.0

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"degree must be nonnegative, got {self.degree}")
        if self.cross_class_ratio < 0:
            raise ValueError(
                f"cross_class_ratio must be nonnegative, got {self.cross_class_ratio}")
        _check_unit("subgraph_share", self.subgraph_share)
        _check_unit("subgraph_homophily", self.subgraph_homophily)
        _check_unit("rest_homophily", self.rest_homophily)

    @property
    def homophily(self) -> float:
        return effective_homophily(self.subgraph_share, self.subgraph_homophily,
                                   self.rest_homophily)

    @property
    def gain(self) -> float:
        return one_layer_gain(self.degree, self.total_edge_weight,
                              self.cross_class_ratio, self.homophily)


def effective_homophily(subgraph_share: float, subgraph_homophily: float,
                        rest_homophily: float) -> float:
    """Neighborhood homophily as the share-weighted mix of the two parts."""
    _check_unit("subgraph_share", subgraph_share)
    _check_unit("subgraph_homophily", subgraph_homophily)
    _check_unit("rest_homophily", rest_homophily)
    return subgraph_share * subgraph_homophily + (1.0 - subgraph_share) * rest_homophily


def one_layer_gain(degree: float, total_edge_weight: float,
                   cross_class_ratio: float, homophily: float) -> float:
    """Expected class-signal multiplier of one renormalized propagation step.

    Same-class neighbors contribute +1 signal each, cross-class neighbors
    contribute -cross_class_ratio, edge weights sum to total_edge_weight,
    and the node's own unit signal survives the self loop; everything is
    divided by degree + 1.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    _check_unit("homophily", homophily)
    if cross_class_ratio < 0:
        raise ValueError(f"cross_class_ratio must be nonnegative, got {cross_class_ratio}")
    mix = (1.0 + cross_class_ratio) * homophily - cross_class_ratio
    return (1.0 + total_edge_weight * mix) / (degree + 1.0)


def deep_layer_gain(degree: float, cross_class_ratio: float, homophily: float,
                    mean_relative_degree: float) -> float:
    """Per-layer gain deeper in the network.

    At depth the incoming signal is no longer the raw unit feature;
    mean_relative_degree measures how much neighbor signal remains relative
    to the node's own.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    _check_unit("homophily", homophily)
    mix = (1.0 + cross_class_ratio) * homophily - cross_class_ratio
    return (mix * degree * mean_relative_degree + 1.0) / (degree + 1.0)


def cumulative_gain_ratio(gain_a: float, gain_b: float, depth: int) -> float:
    """Ratio of surviving signal after `depth` layers at two per-layer gains."""
    if gain_a <= 0 or gain_b <= 0:
        raise ValueError("cumulative ratio needs positive per-layer gains")
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    return (gain_a / gain_b) ** depth


# MonteCarloGain.within's tolerance, in standard errors of the estimate.
STDERR_MULTIPLE = 3


@dataclass(frozen=True)
class MonteCarloGain:
    empirical: float
    stderr: float
    analytic: float

    @property
    def deviation(self) -> float:
        return abs(self.empirical - self.analytic)

    def within(self) -> bool:
        return self.deviation <= STDERR_MULTIPLE * self.stderr


def monte_carlo_one_layer(params: GainParams, subgraph_degree: int,
                          rest_degree: int, noise_ratio: float = 0.1,
                          num_samples: int = 100_000,
                          seed: int = 0) -> MonteCarloGain:
    """Simulate one propagation step and compare against one_layer_gain.

    Each sample draws subgraph_degree neighbors that match the center's
    class with probability subgraph_homophily and rest_degree with
    rest_homophily; matching neighbors emit +1 (the gain is scale-free),
    the rest emit -cross_class_ratio, every emission (center included)
    gets Gaussian noise with variance noise_ratio, and edges carry the
    uniform weight w = total_edge_weight / degree. The analytic value is
    one_layer_gain at the group-mixture homophily, so this run doubles as
    an independent oracle for that formula.

    No sample is drawn on its own. A sample's gain is u(s) + e, where s
    counts the matching neighbors of both groups and the summed noise
    e ~ N(0, noise_ratio (w^2 degree + 1) / (degree + 1)^2) is independent
    of it. The sample mean and its standard error are drawn from their
    exact joint law: how many samples fall on each s, then the noise's
    mean, its component along the centered u and the rest of its sum of
    squares (chi-square, num_samples - 2 degrees of freedom). The law of s
    is the convolution of the two groups' binomial pmfs. Memory grows with
    degree, not num_samples.
    """
    if subgraph_degree < 0 or rest_degree < 0:
        raise ValueError("group degrees must be nonnegative")
    degree = subgraph_degree + rest_degree
    if degree < 1:
        raise ValueError("at least one neighbor required")
    if degree != params.degree:
        raise ValueError(f"group degrees sum to {degree}, "
                         f"params.degree is {params.degree}")
    if num_samples < 1000:
        raise ValueError(f"num_samples must be at least 1000, got {num_samples}")
    rng = np.random.default_rng(seed)
    rho = params.cross_class_ratio
    edge_weight = params.total_edge_weight / degree

    def xlog(k: int, x: float) -> float:
        return 0.0 if k == 0 else k * math.log(x) if x > 0 else -math.inf

    def pmf(count: int, homophily: float) -> np.ndarray:
        """A group's match-count pmf over its largest entry, from logs (a
        binomial coefficient such as C(1030, 515) overflows a float)."""
        log_p = np.array([
            math.lgamma(count + 1) - math.lgamma(k + 1) - math.lgamma(count - k + 1)
            + xlog(k, homophily) + xlog(count - k, 1.0 - homophily)
            for k in range(count + 1)])
        return np.exp(log_p - log_p.max())

    p = np.convolve(pmf(subgraph_degree, params.subgraph_homophily),
                    pmf(rest_degree, params.rest_homophily))
    same = np.arange(degree + 1)
    u = (1.0 + edge_weight * (same - rho * (degree - same))) / (degree + 1.0)
    n = rng.multinomial(num_samples, p / p.sum())
    mean = n @ u / num_samples
    ss = n @ (u - mean) ** 2
    if noise_ratio > 0:
        tau = math.sqrt(noise_ratio * (edge_weight**2 * degree + 1.0)) / (degree + 1.0)
        mean += rng.normal(0.0, tau / math.sqrt(num_samples))
        z = rng.normal()
        rest = rng.chisquare(num_samples - 2)
        ss += 2.0 * tau * z * math.sqrt(ss) + tau**2 * (z * z + rest)
    mix = effective_homophily(subgraph_degree / degree,
                              params.subgraph_homophily, params.rest_homophily)
    analytic = one_layer_gain(degree, params.total_edge_weight, rho, mix)
    return MonteCarloGain(
        empirical=float(mean),
        stderr=math.sqrt(ss / (num_samples - 1) / num_samples),
        analytic=analytic,
    )


@dataclass(frozen=True)
class GridCheck:
    rows: list[dict]
    within_count: int
    total: int


def theory_check_grid(cells: Sequence[dict], num_samples: int = 100_000,
                      seed: int = 0) -> GridCheck:
    """Monte Carlo the one-layer gain on explicit grid cells.

    Each cell is a dict of numbers: degree, homophily, cross_class_ratio
    and optional total_edge_weight, defaulting to degree. Cell seeds derive
    from `seed` plus the cell index so trials are independent. A grid
    without cells is refused: it would pass having checked nothing; so is,
    before any cell runs, any other cell, a number too large for a float,
    or a degree that is not a whole number (3.0 is one) or is below 1.
    """
    if not cells:
        raise ValueError("the grid has no cells")
    keys = ("degree", "homophily", "cross_class_ratio")
    for index, cell in enumerate(cells):
        if not isinstance(cell, dict):
            raise ValueError(f"grid cell {index} must be an object")
        missing = [k for k in keys if k not in cell]
        if missing:
            raise ValueError(f"grid cell {index} missing key "
                             f"{', '.join(missing)}")
        for key in (*keys, "total_edge_weight"):
            value = cell.get(key, 0)  # total_edge_weight may be absent
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"grid cell {index} {key} must be a number, "
                                 f"got {json.dumps(value, default=repr)}")
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"grid cell {index} {key} is too large for "
                                 f"a float") from None
    for index, cell in enumerate(cells):
        degree = float(cell["degree"])
        if not degree.is_integer():
            raise ValueError(f"grid cell {index} degree must be a whole "
                             f"number, got {cell['degree']}")
        if degree < 1:
            raise ValueError(f"grid cell {index} degree must be at least 1, "
                             f"got {cell['degree']}")
    rows = []
    within = 0
    for index, cell in enumerate(cells):
        degree = int(cell["degree"])
        homophily = float(cell["homophily"])
        rho = float(cell["cross_class_ratio"])
        weight = float(cell.get("total_edge_weight", degree))
        params = GainParams(degree=degree, total_edge_weight=weight,
                            cross_class_ratio=rho, subgraph_share=1.0,
                            subgraph_homophily=homophily,
                            rest_homophily=homophily)
        mc = monte_carlo_one_layer(params, degree, 0, num_samples=num_samples,
                                   seed=seed + index)
        ok = mc.within()
        within += int(ok)
        rows.append({
            "degree": degree,
            "homophily": homophily,
            "cross_class_ratio": rho,
            "analytic": mc.analytic,
            "empirical": mc.empirical,
            "stderr": mc.stderr,
            "deviation": mc.deviation,
            "within": ok,
        })
    return GridCheck(rows=rows, within_count=within, total=len(rows))


def default_grid_cells(degrees: Sequence[int] = (3, 8, 15),
                       homophilies: Sequence[float] = (0.1, 0.5, 0.9),
                       ratios: Sequence[float] = (0.0, 0.5, 1.0)) -> list[dict]:
    """Cartesian grid in the order degree-major, then homophily, then ratio."""
    return [{"degree": d, "homophily": h, "cross_class_ratio": r}
            for d in degrees for h in homophilies for r in ratios]


@dataclass(frozen=True)
class ImprovementReport:
    """Certified effect of shrinking the suspect subgraph's dominance.

    Every number is computed on every call. When a precondition fails
    (suspect share not small enough after disentanglement, or the suspect
    part not label-inconsistent enough), `reason` names it and no
    improvement is claimed. The deep fields are None without positive
    mean_relative_degree, and cumulative_ratio without positive one-layer
    gains.
    """

    reason: str
    homophily_before: float
    homophily_after: float
    homophily_gain: float
    homophily_bound: float
    slack: float
    one_layer_before: float
    one_layer_after: float
    one_layer_margin: float
    one_layer_slope: float
    one_layer_bound: float
    deep_before: float | None
    deep_after: float | None
    deep_margin: float | None
    deep_bound: float | None
    cumulative_ratio: float | None

    @property
    def assumptions_met(self) -> bool:
        return not self.reason

    @property
    def improved(self) -> bool:
        return (self.assumptions_met and self.homophily_bound > 0
                and self.one_layer_bound > 0)


# gain_improvement_check's slack, in multiples of the estimate error.
SLACK_FACTOR = 2.0


def gain_improvement_check(baseline: GainParams, causal: GainParams,
                           gap: float, estimate_error: float,
                           depth: int = 1) -> ImprovementReport:
    """Certify that dropping suspect dominance improves the layer gain.

    Preconditions: the disentangled state keeps at most estimate_error of
    suspect dominance, and the suspect part's homophily trails the rest by
    at least `gap`. The homophily improvement is recomputed exactly from
    effective_homophily at both dominance levels and compared against the
    bound gap * (share_before - share_after) minus SLACK_FACTOR *
    estimate_error of slack; gain margins multiply the bound by each
    formula's slope in homophily. The deep margin needs positive
    mean_relative_degree (otherwise deeper layers do not transmit the
    neighborhood signal and the bound is vacuous; reported as None).
    """
    if gap < 0:
        raise ValueError(f"gap must be nonnegative, got {gap}")
    if estimate_error < 0:
        raise ValueError(f"estimate_error must be nonnegative, got {estimate_error}")
    reason = ""
    if causal.subgraph_share > estimate_error:
        reason = (f"suspect dominance {causal.subgraph_share} exceeds "
                  f"the tolerated residual {estimate_error}")
    # Tolerance keeps boundary cases like h=0.1, rest=0.6, gap=0.5 from
    # failing on float roundoff (0.6 - 0.5 != 0.1 exactly).
    elif baseline.subgraph_homophily > baseline.rest_homophily - gap + 1e-12:
        reason = (f"suspect homophily {baseline.subgraph_homophily} is not "
                  f"below the rest by the stated gap {gap}")

    h_before = baseline.homophily
    h_after = causal.homophily
    slack = SLACK_FACTOR * estimate_error
    h_bound = gap * (baseline.subgraph_share - causal.subgraph_share) - slack

    g_before = baseline.gain
    g_after = causal.gain
    slope = (baseline.total_edge_weight * (1.0 + baseline.cross_class_ratio)
             / (baseline.degree + 1.0))

    deep_before = deep_after = deep_margin = deep_bound = None
    rbar = baseline.mean_relative_degree
    if rbar > 0:
        deep_before = deep_layer_gain(baseline.degree,
                                      baseline.cross_class_ratio, h_before,
                                      rbar)
        deep_after = deep_layer_gain(causal.degree, causal.cross_class_ratio,
                                     h_after,
                                     causal.mean_relative_degree or rbar)
        deep_slope = ((1.0 + baseline.cross_class_ratio) * baseline.degree
                      * rbar / (baseline.degree + 1.0))
        deep_margin = deep_after - deep_before
        deep_bound = deep_slope * h_bound

    ratio = None
    if g_before > 0 and g_after > 0:
        ratio = cumulative_gain_ratio(g_after, g_before, depth)

    return ImprovementReport(
        reason=reason,
        homophily_before=h_before,
        homophily_after=h_after,
        homophily_gain=h_after - h_before,
        homophily_bound=h_bound,
        slack=slack,
        one_layer_before=g_before,
        one_layer_after=g_after,
        one_layer_margin=g_after - g_before,
        one_layer_slope=slope,
        one_layer_bound=slope * h_bound,
        deep_before=deep_before,
        deep_after=deep_after,
        deep_margin=deep_margin,
        deep_bound=deep_bound,
        cumulative_ratio=ratio,
    )
