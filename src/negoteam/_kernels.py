"""The numeric hot path: iso-utility projection and candidate selection.

One kernel call serves J agents at once. Their candidate clouds are stacked
row-wise, m rows per agent, and every agent brings its own gradient, offset,
target and tolerance. Per agent the arithmetic is exactly that of projecting
its own cloud alone: the same fixed steps, the same BLAS matrix-vector
products on its own rows and the same selection. So a stacked call returns
bit-identical results to J single-agent calls.
"""
from __future__ import annotations

import numpy as np


def project_iso(cands, grads, offsets, targets, tols, max_iter):
    """Project each agent's candidates onto its iso-utility hyperplane, clipped to the box.

    ``cands`` is (J·m, n), agent j owning rows j·m .. (j+1)·m - 1; ``grads`` is
    (J, n); ``offsets``, ``targets`` and ``tols`` are length J. Agent j's
    utility is offsets[j] + grads[j] . x. Every candidate is stepped along its
    agent's gradient onto the plane utility == target, clipped to [0, 1]^n,
    and re-projected, for exactly ``max_iter`` steps. A candidate within its
    agent's tolerance of the target gets a zero step.

    Returns (points (J, m, n), utilities (J, m), valid (J, m)), where ``valid``
    flags candidates within the tolerance of their agent's target.
    """
    n_agents, n_issues = grads.shape
    out = cands.reshape(n_agents, -1, n_issues).copy()
    # the same memory as one row per agent, and each agent's gradient repeated
    # once per candidate, so the step needs no broadcast over the short issue axis
    flat = out.reshape(n_agents, -1)
    grad_rows = np.repeat(grads[:, None, :], out.shape[1], axis=1).reshape(n_agents, -1)
    # (1, n) @ (n, 1) per agent: the same BLAS dot as ``grad @ grad``
    gg = (grads[:, None, :] @ grads[:, :, None])[:, 0]
    offsets = np.asarray(offsets, dtype=np.float64)[:, None]
    targets = np.asarray(targets, dtype=np.float64)[:, None]
    tols = np.asarray(tols, dtype=np.float64)[:, None]
    # an (n, 1) column per agent makes matmul take BLAS's matrix-vector path
    # on each agent's rows, the same call as ``block @ grad``
    columns = grads[:, :, None]
    products = np.empty((n_agents, out.shape[1], 1))
    products_2d = products[:, :, 0]
    for _ in range(max_iter):
        np.matmul(out, columns, out=products)
        utils = offsets + products_2d
        miss = targets - utils
        step = np.where(np.abs(miss) > tols, miss, 0.0) / gg
        # the same products as np.outer(step, grad), laid out as ``flat``
        flat += np.repeat(step, n_issues, axis=1) * grad_rows
        # np.clip's value, without its per-call overhead
        np.maximum(flat, 0.0, out=flat)
        np.minimum(flat, 1.0, out=flat)
    np.matmul(out, columns, out=products)
    utils = offsets + products_2d
    valid = np.abs(utils - targets) <= tols
    return out, utils, valid


def ref_distance_sums(points, refs):
    """Sum of Euclidean distances from each point to its reference offers.

    ``refs`` is (r, n), shared by every point, or (P, r, n), one block per point.
    """
    diff = points[:, None, :] - refs
    return np.sqrt(np.einsum("prk,prk->pr", diff, diff)).sum(axis=1)


def choose_iso(cands, grads, offsets, targets, tols, max_iter, refs):
    """Project every agent's candidates and pick each agent's winner.

    Arguments as for :func:`project_iso`, plus ``refs``: one entry per agent,
    that agent's reference offers as r_j rows of n (r_j may be 0 and differ
    between agents). With references an agent's winner is its valid
    candidate with the smallest summed distance to them; without, its valid
    candidate with the highest utility. Ties go to the lowest index. Agents
    with the same number of references are scored together, each against
    its own rows.

    Returns (points (J, n), utilities (J,), found (J,)); an agent none of
    whose candidates lands within its tolerance gets found False, a zero
    point and utility 0.
    """
    points, utils, valid = project_iso(cands, grads, offsets, targets, tols, max_iter)
    keys = np.where(valid, -utils, np.inf)
    by_count: dict[int, list[int]] = {}
    for j, agent_refs in enumerate(refs):
        if len(agent_refs):
            by_count.setdefault(len(agent_refs), []).append(j)
    n_cands = utils.shape[1]
    flat_points = points.reshape(-1, points.shape[2])
    for agents in by_count.values():
        # distances of the valid candidates only, as most of the cost is here;
        # idx counts within the group's rows, rows within the whole stack
        group_valid = valid if len(agents) == len(refs) else valid[agents]
        idx = np.flatnonzero(group_valid)
        rows = idx if group_valid is valid else np.array(agents)[idx // n_cands] * n_cands + idx % n_cands
        # each agent's block once per valid candidate, in the order of rows
        blocks = np.repeat(
            np.array([refs[j] for j in agents], dtype=np.float64),
            np.count_nonzero(group_valid, axis=1),
            axis=0,
        )
        keys.reshape(-1)[rows] = ref_distance_sums(flat_points.take(rows, axis=0), blocks)
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
