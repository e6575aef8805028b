"""One-way ANOVA and Welch pairwise comparisons with Holm correction.

Tail probabilities come from the regularized incomplete beta function, which
expresses both the F and the t survival functions in closed form. The
post-hoc marks the set of groups not significantly worse than the best one,
using Welch tests (no equal-variance assumption) under a Holm step-down over
all pairwise comparisons.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class AnovaResult:
    f_stat: float
    p_value: float
    df_between: int
    df_within: int


def _f_sf(f: float, df1: int, df2: int) -> float:
    """Upper-tail probability of the F distribution."""
    if math.isinf(f):
        return 0.0
    if f <= 0.0:
        return 1.0
    # scipy.special took about 0.25 s and 25 MB to import on a 2-vCPU VM, and a
    # report reaches this only with two or more repetitions per cell
    from scipy.special import betainc

    x = df2 / (df2 + df1 * f)
    return float(betainc(df2 / 2.0, df1 / 2.0, x))


def _t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided p of the t distribution."""
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    from scipy.special import betainc  # imported here for the reason in _f_sf

    x = df / (df + t * t)
    return float(betainc(df / 2.0, 0.5, x))


def anova_oneway(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """Classic one-way ANOVA over two or more groups of observations.

    Degenerate inputs with zero within-group variance report an infinite F
    (p = 0) when the means differ and F = 0 (p = 1) when they coincide.
    """
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(arrays) < 2:
        raise ValueError("ANOVA needs at least two groups")
    if any(a.ndim != 1 or a.size == 0 for a in arrays):
        raise ValueError("every group must be a non-empty 1-D sequence")
    n_total = sum(a.size for a in arrays)
    k = len(arrays)
    if n_total <= k:
        raise ValueError("ANOVA needs more observations than groups")

    grand = sum(float(a.sum()) for a in arrays) / n_total
    ss_between = sum(a.size * (float(a.mean()) - grand) ** 2 for a in arrays)
    ss_within = sum(float(((a - a.mean()) ** 2).sum()) for a in arrays)
    df_between = k - 1
    df_within = n_total - k

    if ss_within == 0.0:
        if ss_between == 0.0:
            return AnovaResult(0.0, 1.0, df_between, df_within)
        return AnovaResult(math.inf, 0.0, df_between, df_within)

    f = (ss_between / df_between) / (ss_within / df_within)
    return AnovaResult(float(f), _f_sf(f, df_between, df_within), df_between, df_within)


@dataclass(frozen=True)
class WelchResult:
    t_stat: float
    df: float
    p_value: float


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> WelchResult:
    """Two-sided Welch t-test (unequal variances)."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.size < 2 or y.size < 2:
        raise ValueError("Welch test needs at least two observations per group")
    vx = float(x.var(ddof=1)) / x.size
    vy = float(y.var(ddof=1)) / y.size
    diff = float(x.mean()) - float(y.mean())
    se2 = vx + vy
    if se2 == 0.0:
        if diff == 0.0:
            return WelchResult(0.0, float(x.size + y.size - 2), 1.0)
        return WelchResult(math.copysign(math.inf, diff), float(x.size + y.size - 2), 0.0)
    t = diff / math.sqrt(se2)
    df = se2 * se2 / (vx * vx / (x.size - 1) + vy * vy / (y.size - 1))
    return WelchResult(float(t), float(df), _t_sf_two_sided(t, df))


def holm_adjust(p_values: Sequence[float]) -> np.ndarray:
    """Holm step-down adjustment of a family of p-values."""
    p = np.asarray(p_values, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p-values must be a 1-D sequence")
    if p.size == 0:
        return p.copy()
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = (m - np.arange(m)) * p[order]
    adjusted_sorted = np.minimum(np.maximum.accumulate(scaled), 1.0)
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    return adjusted


@dataclass
class PairwiseComparison:
    group_a: int
    group_b: int
    t_stat: float
    df: float
    p_raw: float
    p_adjusted: float


@dataclass
class PosthocResult:
    means: list[float]
    champion: int
    best: set[int]
    comparisons: list[PairwiseComparison]


def posthoc_best_groups(
    groups: Sequence[Sequence[float]],
    alpha: float = DEFAULT_ALPHA,
) -> PosthocResult:
    """Welch-all-pairs with Holm correction; flag the statistically best set.

    The champion is the group with the largest mean (ties to the lowest
    index); every group whose Holm-adjusted comparison against the champion
    is not significant at ``alpha`` joins the best set.
    """
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(arrays) < 2:
        raise ValueError("post-hoc needs at least two groups")
    means = [float(a.mean()) for a in arrays]
    champion = int(np.argmax(means))

    pairs = [(i, j) for i in range(len(arrays)) for j in range(i + 1, len(arrays))]
    raw = []
    welch = []
    for i, j in pairs:
        res = welch_t_test(arrays[i], arrays[j])
        welch.append(res)
        raw.append(res.p_value)
    adjusted = holm_adjust(raw)

    comparisons = [
        PairwiseComparison(i, j, res.t_stat, res.df, res.p_value, float(adj))
        for (i, j), res, adj in zip(pairs, welch, adjusted)
    ]
    best = {champion}
    for comp in comparisons:
        if champion in (comp.group_a, comp.group_b) and comp.p_adjusted >= alpha:
            best.add(comp.group_a if comp.group_b == champion else comp.group_b)
    return PosthocResult(means=means, champion=champion, best=best, comparisons=comparisons)
