"""The stacked kernel honours its contracts and, per agent, reproduces the
single-agent projection and selection bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negoteam import _kernels


def random_problem(rng, m=64, n=5):
    cands = rng.random((m, n))
    weights = rng.random(n) + 0.05
    weights /= weights.sum()
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    grad = weights * signs
    offset = float(-grad[signs < 0].sum())
    return cands, grad, offset


def random_stack(rng, n_agents, m, n):
    """J agents' problems stacked as the kernel takes them."""
    problems = [random_problem(rng, m, n) for _ in range(n_agents)]
    cands = np.vstack([c for c, _, _ in problems])
    grads = np.array([g for _, g, _ in problems])
    offsets = np.array([o for _, _, o in problems])
    return cands, grads, offsets


def project(cands, grad, offset, target, tol, max_iter):
    """One agent through the stacked projection."""
    pts, utils, valid = _kernels.project_iso(cands, grad[None, :], [offset], [target], [tol], max_iter)
    return pts[0], utils[0], valid[0]


# ---------------------------------------------------------------------------
# oracles: the single-agent projection and selection, one call per agent
# ---------------------------------------------------------------------------

def oracle_project(cands, grad, offset, target, tol, max_iter):
    out = cands.copy()
    gg = float(grad @ grad)
    utils_prev = None
    for _ in range(max_iter):
        utils = offset + out @ grad
        miss = target - utils
        active = np.abs(miss) > tol
        if not active.any() or (utils_prev is not None and np.array_equal(utils, utils_prev)):
            break
        utils_prev = utils
        out += np.outer(np.where(active, miss, 0.0) / gg, grad)
        np.clip(out, 0.0, 1.0, out=out)
    utils = offset + out @ grad
    valid = np.abs(utils - target) <= tol
    return out, utils, valid


def oracle_distance_sums(points, refs):
    diff = points[:, None, :] - refs[None, :, :]
    return np.sqrt(np.einsum("prk,prk->pr", diff, diff)).sum(axis=1)


def oracle_choose(cands, grad, offset, target, tol, max_iter, refs):
    points, utils, valid = oracle_project(cands, grad, offset, target, tol, max_iter)
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return np.zeros(cands.shape[1]), 0.0, False
    if refs.shape[0] == 0:
        best = idx[np.argmax(utils[idx])]
    else:
        best = idx[np.argmin(oracle_distance_sums(points[idx], refs))]
    return points[best].copy(), float(utils[best]), True


def naive_project(cands, grad, offset, target, tol, max_iter):
    """Reference projection: per-candidate loop, no early-exit tricks."""
    out = cands.copy()
    gg = float(grad @ grad)
    for i in range(out.shape[0]):
        for _ in range(max_iter):
            u = offset + float(grad @ out[i])
            if abs(target - u) <= tol:
                break
            out[i] += (target - u) / gg * grad
            np.clip(out[i], 0.0, 1.0, out=out[i])
    utils = offset + out @ grad
    return out, utils, np.abs(utils - target) <= tol


# ---------------------------------------------------------------------------
# contracts
# ---------------------------------------------------------------------------

def test_projection_contract(rng):
    cands, grads, offsets = random_stack(rng, 3, 64, 5)
    targets = [0.5, 0.2, 0.8]
    points, utils, valid = _kernels.project_iso(cands, grads, offsets, targets, [1e-6] * 3, 10)
    assert points.shape == (3, 64, 5) and utils.shape == valid.shape == (3, 64)
    assert np.all(points >= 0.0) and np.all(points <= 1.0)
    for j in range(3):
        assert np.allclose(utils[j], offsets[j] + points[j] @ grads[j], atol=1e-12)
        assert np.all(np.abs(utils[j][valid[j]] - targets[j]) <= 1e-6)


def test_projection_iteration_budget_monotone(rng):
    # candidates near a corner clip and need re-steps; extra iterations can
    # only add converged candidates, never lose one
    cands, grad, offset = random_problem(rng, m=2000)
    _, _, valid_1 = project(cands, grad, offset, 0.5, 1e-6, 1)
    _, _, valid_10 = project(cands, grad, offset, 0.5, 1e-6, 10)
    assert np.all(valid_10[valid_1])
    assert valid_10.sum() > valid_1.sum()
    assert valid_10.mean() > 0.95


def test_projection_matches_naive_reference(rng):
    for target in (0.15, 0.5, 0.93):
        cands, grad, offset = random_problem(rng, m=100, n=4)
        pts, utils, valid = project(cands, grad, offset, target, 1e-6, 10)
        ref_pts, ref_utils, ref_valid = naive_project(cands, grad, offset, target, 1e-6, 10)
        assert np.array_equal(valid, ref_valid)
        assert np.allclose(pts, ref_pts, atol=1e-9)
        assert np.allclose(utils, ref_utils, atol=1e-9)


def test_projection_deterministic_within_lane(rng):
    cands, grads, offsets = random_stack(rng, 2, 64, 5)
    a = _kernels.project_iso(cands, grads, offsets, [0.7, 0.4], [1e-6] * 2, 10)
    b = _kernels.project_iso(cands, grads, offsets, [0.7, 0.4], [1e-6] * 2, 10)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_ref_distance_sums_brute_force(rng):
    points = rng.random((12, 4))
    refs = rng.random((3, 4))
    got = _kernels.ref_distance_sums(points, refs)
    want = [sum(math.dist(p, r) for r in refs) for p in points]
    assert np.allclose(got, want, atol=1e-12)


def test_choose_iso_composes_projection_and_selection(rng):
    cands, grads, offsets = random_stack(rng, 2, 200, 4)
    targets = [0.45, 0.6]
    refs = rng.random((2, 4))
    for use_refs in (False, True):
        r = refs if use_refs else np.empty((0, 4))
        point, u, found = _kernels.choose_iso(cands, grads, offsets, targets, [1e-6] * 2, 10, [r, r])
        pts, utils, valid = _kernels.project_iso(cands, grads, offsets, targets, [1e-6] * 2, 10)
        for j in range(2):
            idx = np.flatnonzero(valid[j])
            assert found[j] and idx.size > 0
            if use_refs:
                best = idx[np.argmin(_kernels.ref_distance_sums(pts[j][idx], refs))]
            else:
                best = idx[np.argmax(utils[j][idx])]
            assert np.allclose(point[j], pts[j][best], atol=1e-9)
            assert u[j] == pytest.approx(float(utils[j][best]), abs=1e-9)


def test_choose_iso_reports_missing_target(rng):
    # the second agent has nothing on target; the first is unaffected
    cands = rng.random((10, 3))
    grads = np.array([[0.4, 0.35, 0.25], [0.4, 0.35, 0.25]])
    no_refs = np.empty((0, 3))
    point, u, found = _kernels.choose_iso(
        cands, grads, [0.0, 0.0], [0.5, 0.5], [1.0, 1e-300], 0, [no_refs, no_refs]
    )
    assert found.tolist() == [True, False]
    assert u[1] == 0.0
    assert np.array_equal(point[1], np.zeros(3))
    assert np.array_equal(point[0], cands[np.argmax(cands[:5] @ grads[0])])


# ---------------------------------------------------------------------------
# the stacked kernel against one oracle call per agent
# ---------------------------------------------------------------------------

@st.composite
def stacked_problems(draw):
    n_agents = draw(st.integers(1, 4))
    m = draw(st.sampled_from([1, 2, 7, 60]))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cands, grads, offsets = random_stack(rng, n_agents, m, n)
    targets = draw(
        st.lists(
            st.one_of(st.floats(0.0, 1.0), st.floats(0.99, 1.0), st.sampled_from([0.0, 1e-9, 0.5])),
            min_size=n_agents,
            max_size=n_agents,
        )
    )
    tols = draw(st.lists(st.sampled_from([1e-12, 1e-6, 1e-3]), min_size=n_agents, max_size=n_agents))
    refs = rng.random((draw(st.integers(0, 3)), n))
    max_iter = draw(st.sampled_from([0, 1, 3, 10, 30]))
    return cands, grads, offsets, targets, tols, max_iter, refs


@given(problem=stacked_problems())
@settings(max_examples=300, deadline=None)
def test_stacked_kernel_is_bit_identical_to_one_call_per_agent(problem):
    cands, grads, offsets, targets, tols, max_iter, refs = problem
    m = cands.shape[0] // grads.shape[0]
    pts, utils, valid = _kernels.project_iso(cands, grads, offsets, targets, tols, max_iter)
    per_agent = [refs] * len(targets)
    point, u, found = _kernels.choose_iso(cands, grads, offsets, targets, tols, max_iter, per_agent)
    for j in range(grads.shape[0]):
        block = cands[j * m : (j + 1) * m]
        o_pts, o_utils, o_valid = oracle_project(block, grads[j], offsets[j], targets[j], tols[j], max_iter)
        assert np.array_equal(pts[j], o_pts)
        assert np.array_equal(utils[j], o_utils)
        assert np.array_equal(valid[j], o_valid)
        o_point, o_u, o_found = oracle_choose(
            block, grads[j], offsets[j], targets[j], tols[j], max_iter, refs
        )
        assert np.array_equal(point[j], o_point)
        assert u[j] == o_u
        assert found[j] == o_found


@st.composite
def per_agent_reference_problems(draw):
    n_agents = draw(st.integers(1, 8))
    m = draw(st.sampled_from([1, 2, 7, 60]))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cands, grads, offsets = random_stack(rng, n_agents, m, n)
    targets = draw(
        st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(0.9, 1.0)), min_size=n_agents, max_size=n_agents)
    )
    tols = draw(st.lists(st.sampled_from([1e-12, 1e-6, 1e-3]), min_size=n_agents, max_size=n_agents))
    counts = draw(st.lists(st.integers(0, 3), min_size=n_agents, max_size=n_agents))
    refs = [rng.random((count, n)) for count in counts]
    max_iter = draw(st.sampled_from([0, 1, 3, 10, 30]))
    return cands, grads, offsets, targets, tols, max_iter, refs


@given(problem=per_agent_reference_problems())
@settings(max_examples=300, deadline=None)
def test_per_agent_references_are_bit_identical_to_one_call_per_agent(problem):
    # every agent brings its own 0-3 reference rows; agents with the same
    # count are scored together, yet each result is the lone agent's
    cands, grads, offsets, targets, tols, max_iter, refs = problem
    m = cands.shape[0] // grads.shape[0]
    point, u, found = _kernels.choose_iso(cands, grads, offsets, targets, tols, max_iter, refs)
    for j in range(grads.shape[0]):
        block = cands[j * m : (j + 1) * m]
        o_point, o_u, o_found = oracle_choose(
            block, grads[j], offsets[j], targets[j], tols[j], max_iter, refs[j]
        )
        assert np.array_equal(point[j], o_point)
        assert u[j] == o_u
        assert found[j] == o_found
