"""The stacked kernel honours its contracts and, per agent, reproduces the
single-agent projection and selection bit for bit."""

import math
import os
import platform
import subprocess
import sys
from pathlib import Path

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
# oracles: the single-agent projection and selection, one call per agent, in
# plain Python floats; every sum over issues is taken in the kernel's fixed
# order, so the oracles and the kernel agree bit for bit
# ---------------------------------------------------------------------------

def bits(a):
    """The float64 values of ``a`` as integers, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def fixed_sum(terms):
    """The even terms left to right, the odd terms left to right, then the two."""
    even = terms[0]
    for t in terms[2::2]:
        even += t
    if len(terms) == 1:
        return even
    odd = terms[1]
    for t in terms[3::2]:
        odd += t
    return even + odd


def row_utility(x, grad, offset):
    return offset + fixed_sum([a * b for a, b in zip(x, grad)])


def oracle_project(cands, grad, offset, target, tol, max_iter):
    g = grad.tolist()
    gg = float(grad @ grad)  # the kernel's one BLAS product
    offset, target, tol = float(offset), float(target), float(tol)
    points, utils = [], []
    for x in cands.tolist():
        for _ in range(max_iter):
            miss = target - row_utility(x, g, offset)
            step = miss / gg if abs(miss) > tol else 0.0
            x = [min(max(a + step * b, 0.0), 1.0) for a, b in zip(x, g)]
        points.append(x)
        utils.append(row_utility(x, g, offset))
    utils = np.array(utils)
    return np.array(points).reshape(cands.shape), utils, np.abs(utils - target) <= tol


def oracle_distance_sum(point, refs):
    """Each distance's squares in the fixed order, the distances in reference order."""
    return sum(math.sqrt(fixed_sum([(p - r) * (p - r) for p, r in zip(point, ref)])) for ref in refs.tolist())


def oracle_choose(cands, grad, offset, target, tol, max_iter, refs):
    points, utils, valid = oracle_project(cands, grad, offset, target, tol, max_iter)
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return np.zeros(cands.shape[1]), 0.0, False
    if refs.shape[0] == 0:
        best = idx[np.argmax(utils[idx])]
    else:
        best = min(idx, key=lambda i: oracle_distance_sum(points[i].tolist(), refs))
    return points[best].copy(), float(utils[best]), True


def naive_project(cands, grad, offset, target, tol, max_iter):
    """Reference projection: per-candidate loop, each candidate stopping on target."""
    out = cands.copy()
    gg = float(grad @ grad)
    g = grad.tolist()
    for i in range(out.shape[0]):
        for _ in range(max_iter):
            u = row_utility(out[i].tolist(), g, offset)
            if abs(target - u) <= tol:
                break
            out[i] += (target - u) / gg * grad
            np.clip(out[i], 0.0, 1.0, out=out[i])
    utils = np.array([row_utility(x, g, offset) for x in out.tolist()])
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
        assert np.array_equal(bits(pts), bits(ref_pts))
        assert np.array_equal(bits(utils), bits(ref_utils))


def test_projection_deterministic_within_lane(rng):
    cands, grads, offsets = random_stack(rng, 2, 64, 5)
    a = _kernels.project_iso(cands, grads, offsets, [0.7, 0.4], [1e-6] * 2, 10)
    b = _kernels.project_iso(cands, grads, offsets, [0.7, 0.4], [1e-6] * 2, 10)
    for x, y in zip(a[:2], b[:2]):
        assert np.array_equal(bits(x), bits(y))
    assert np.array_equal(a[2], b[2])


def test_choose_iso_picks_the_candidate_nearest_its_references(rng):
    # math.dist rounds on its own, so the pick's summed distance need only
    # match the brute-force minimum over the valid candidates to round-off
    cands, grads, offsets = random_stack(rng, 1, 300, 4)
    refs = rng.random((3, 4))
    point, _, found = _kernels.choose_iso(cands, grads, offsets, [0.55], [1e-6], 10, [refs])
    pts, _, valid = _kernels.project_iso(cands, grads, offsets, [0.55], [1e-6], 10)
    assert found[0] and valid[0].any()
    assert any(np.array_equal(point[0], p) for p in pts[0][valid[0]])
    best = min(sum(math.dist(p, r) for r in refs) for p in pts[0][valid[0]])
    assert sum(math.dist(point[0], r) for r in refs) == pytest.approx(best, abs=1e-12)


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
                best = min(idx, key=lambda i: oracle_distance_sum(pts[j][i].tolist(), refs))
            else:
                best = idx[np.argmax(utils[j][idx])]
            assert np.array_equal(bits(point[j]), bits(pts[j][best]))
            assert np.array_equal(bits(u[j]), bits(utils[j][best]))


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
        assert np.array_equal(bits(pts[j]), bits(o_pts))
        assert np.array_equal(bits(utils[j]), bits(o_utils))
        assert np.array_equal(valid[j], o_valid)
        o_point, o_u, o_found = oracle_choose(
            block, grads[j], offsets[j], targets[j], tols[j], max_iter, refs
        )
        assert np.array_equal(bits(point[j]), bits(o_point))
        assert np.array_equal(bits(u[j]), bits(o_u))
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
        assert np.array_equal(bits(point[j]), bits(o_point))
        assert np.array_equal(bits(u[j]), bits(o_u))
        assert found[j] == o_found


@given(problem=per_agent_reference_problems(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_any_permutation_or_sub_stack_of_agents_returns_the_same_rows(problem, data):
    # an agent's rows depend on its own inputs alone, not on its place in
    # the stack or on which other agents share the call
    cands, grads, offsets, targets, tols, max_iter, refs = problem
    n_agents = grads.shape[0]
    m = cands.shape[0] // n_agents
    order = data.draw(st.permutations(range(n_agents)))
    order = order[: data.draw(st.integers(1, n_agents))]
    full = _kernels.choose_iso(cands, grads, offsets, targets, tols, max_iter, refs)
    sub = _kernels.choose_iso(
        np.vstack([cands[j * m : (j + 1) * m] for j in order]),
        grads[order],
        [offsets[j] for j in order],
        [targets[j] for j in order],
        [tols[j] for j in order],
        max_iter,
        [refs[j] for j in order],
    )
    for whole, part in zip(full, sub):
        if whole.dtype == np.float64:
            whole, part = bits(whole), bits(part)
        assert np.array_equal(whole[order], part)


# ---------------------------------------------------------------------------
# the same sessions whatever kernel class numpy's bundled OpenBLAS picks
# ---------------------------------------------------------------------------

PLAY_CELLS = """
import sys
from negoteam import tournament
from negoteam.report import sessions_to_csv
config = tournament.desk_config(repetitions=1, max_rounds=200)
config.teams = [t for t in config.teams if t.name in ("FUM B", "SSV B", "RE K")]
config.opponents = [o for o in config.opponents if o.name == "Crazy"]
sys.stdout.write(sessions_to_csv(tournament.run_tournament(config)))
"""


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            return next((set(line.split(":", 1)[1].split()) for line in info if line.startswith("flags")), set())
    except OSError:
        return set()


@pytest.mark.skipif(
    platform.machine() != "x86_64" or not {"avx2", "fma"} <= _cpu_flags(),
    reason="forcing OpenBLAS's Haswell kernels needs an x86_64 CPU with AVX2 and FMA",
)
def test_sessions_are_byte_identical_under_the_haswell_and_sandybridge_blas_kernels():
    # OPENBLAS_CORETYPE picks the kernel class for its process alone: Haswell
    # (AVX2, FMA) or Sandybridge (neither). These three cells against Crazy
    # changed course between the two when the projection summed in BLAS.
    src = str(Path(_kernels.__file__).resolve().parents[1])
    outputs = []
    for coretype in ("Haswell", "Sandybridge"):
        env = {
            **os.environ,
            "OPENBLAS_CORETYPE": coretype,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        done = subprocess.run(
            [sys.executable, "-c", PLAY_CELLS], capture_output=True, text=True, env=env, timeout=120, check=True
        )
        outputs.append(done.stdout)
    assert outputs[0].count("\n") == 1 + 3
    assert outputs[0] == outputs[1]
