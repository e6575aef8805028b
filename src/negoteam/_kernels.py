"""The numeric hot path: iso-utility projection and candidate selection.

One kernel call serves J agents at once, each with its own m candidates,
gradient, offset, target, tolerance and reference offers. The candidates
are laid out issue-major, as n blocks of J·m contiguous values, and every
per-agent constant is repeated once per candidate, so each step is a few
element-wise numpy calls over the whole stack. Every sum over issues, of
the utilities and of the squared distances to the references alike, goes
through :func:`_sum_issues` in one fixed order: the even issues left to
right, the odd issues left to right, then the two. So a candidate's
arithmetic is the same on every CPU and whatever the other agents are, and
a stacked call returns bit-identical results to J single-agent calls. The
one BLAS call left is ``grad @ grad``, once per agent: like the utilities'
dot product in :mod:`negoteam.domain`, it rounds as the BLAS kernel that
the CPU selects does, fused (FMA) on some CPUs and not on others.
"""
from __future__ import annotations

import numpy as np


def _sum_issues(terms, out):
    """Sum ``terms`` (n, ...) over its first axis into ``out`` in the fixed order.

    ``terms`` is folded in place: row 0 gathers the even issues and row 1
    the odd ones, each left to right.
    """
    for k in range(2, len(terms), 2):
        pair = terms[k : k + 2]
        terms[: len(pair)] += pair
    if len(terms) > 1:
        return np.add(terms[0], terms[1], out=out)
    np.copyto(out, terms[0])
    return out


def project_iso(cands, grads, offsets, targets, tols, max_iter):
    """Project each agent's candidates onto its iso-utility hyperplane, clipped to the box.

    ``cands`` is (J·m, n), agent j owning rows j·m .. (j+1)·m - 1; ``grads`` is
    (J, n); ``offsets``, ``targets`` and ``tols`` are length J. Agent j's
    utility is offsets[j] + grads[j] . x, summed over issues in the fixed
    order. Every candidate is stepped along its agent's gradient onto the
    plane utility == target, clipped to [0, 1]^n, and re-projected, for
    exactly ``max_iter`` steps. A candidate within its agent's tolerance of
    the target gets a zero step.

    Returns (points (J, m, n), utilities (J, m), valid (J, m)), where ``valid``
    flags candidates within the tolerance of their agent's target; ``points``
    is a view of the issue-major (n, J, m) array.
    """
    n_agents, n_issues = grads.shape
    n_cands = cands.shape[0] // n_agents
    x = cands.T.reshape(n_issues, n_agents, n_cands).copy()
    g = np.repeat(grads.T, n_cands, axis=1).reshape(x.shape)
    # (1, n) @ (n, 1) per agent: the same BLAS dot as ``grad @ grad``
    gg = (grads[:, None, :] @ grads[:, :, None])[:, 0, 0]
    per_agent = np.array([offsets, targets, tols, gg], dtype=np.float64)
    offsets, targets, tols, gg = np.repeat(per_agent, n_cands, axis=1).reshape(4, n_agents, n_cands)
    terms = np.empty_like(x)
    utils = np.empty_like(offsets)
    miss = np.empty_like(offsets)
    active = np.empty(offsets.shape, dtype=bool)
    for _ in range(max_iter):
        np.add(offsets, _sum_issues(np.multiply(x, g, out=terms), utils), out=utils)
        np.subtract(targets, utils, out=miss)
        np.greater(np.abs(miss, out=utils), tols, out=active)
        # an on-target candidate steps by ±0.0, and x + ±0.0 == x: no coordinate is -0.0
        np.multiply(miss, active, out=miss)
        np.divide(miss, gg, out=miss)
        x += np.multiply(miss, g, out=terms)
        x.clip(0.0, 1.0, out=x)
    np.add(offsets, _sum_issues(np.multiply(x, g, out=terms), utils), out=utils)
    valid = np.abs(utils - targets) <= tols
    return x.transpose(1, 2, 0), utils, valid


def choose_iso(cands, grads, offsets, targets, tols, max_iter, refs):
    """Project every agent's candidates and pick each agent's winner.

    Arguments as for :func:`project_iso`, plus ``refs``: one entry per agent,
    that agent's reference offers as r_j rows of n (r_j may be 0 and differ
    between agents). With references an agent's winner is its valid
    candidate with the smallest sum of Euclidean distances to them, each
    distance's squares summed in the fixed order and the distances added in
    reference order; without, its valid candidate with the highest utility.
    Ties go to the lowest index.

    Returns (points (J, n), utilities (J,), found (J,)); an agent none of
    whose candidates lands within its tolerance gets found False, a zero
    point and utility 0.
    """
    points, utils, valid = project_iso(cands, grads, offsets, targets, tols, max_iter)
    keys = np.where(valid, -utils, np.inf)
    x = points.transpose(2, 0, 1)
    for j, agent_refs in enumerate(refs):
        if len(agent_refs):
            # (n, r_j, m): the agent's slice against each of its references
            diff = x[:, None, j] - np.asarray(agent_refs, dtype=np.float64).T[:, :, None]
            distances = np.sqrt(_sum_issues(np.multiply(diff, diff, out=diff), diff[0]))
            np.copyto(keys[j], distances.sum(axis=0), where=valid[j])
    # argmin takes the first of equal keys: the lowest index
    best = keys.argmin(axis=1)
    agents = np.arange(grads.shape[0])
    found = valid[agents, best]
    point = points[agents, best]
    utility = utils[agents, best]
    if np.count_nonzero(found) < found.size:
        point[~found] = 0.0
        utility[~found] = 0.0
    return point, utility, found


def warm_up() -> None:
    """One tiny kernel call, so that first-call costs fall outside timed work."""
    cands = np.array([[0.2, 0.8, 0.5, 0.1]])
    grad = np.array([[0.4, -0.3, 0.2, -0.1]])
    choose_iso(cands, grad, [0.4], [0.5], [1e-6], 10, [cands])
