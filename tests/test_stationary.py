"""Stationary solves against dense linear-algebra oracles."""

import json

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from mixlab import (NotConverged, RngStream, TransitionKernel, delta_at,
                    estimate_stationary_gap, in_degree_distribution,
                    kernel_from_digraph, sample_digraph, solve_replicates,
                    stationary_distribution, tv_distance, validate_degrees)
from mixlab import stationary
from mixlab.errors import (AllReplicatesFailed, BadRange, BadValue,
                           LengthMismatch)
from mixlab.rng import LANE
from mixlab.walk import OperationBudget

from helpers import digraph_from_json


def dense_stationary(p):
    """Null space of (P^T - I) with the mass constraint, solved directly."""
    n = p.shape[0]
    a = np.vstack([p.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi


def test_two_state_chain_known_answer():
    # P = [[.5,.5],[1,0]] has stationary law (2/3, 1/3)
    k = TransitionKernel(csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]])))
    res = stationary_distribution(k)
    assert np.abs(res.distribution - [2 / 3, 1 / 3]).max() < 1e-10
    assert res.residual <= 1e-10


def test_matches_dense_null_space_on_sampled_graphs():
    dcm = validate_degrees("dcm", [2, 3, 2, 3, 2, 2], [2, 2, 3, 2, 3, 2])
    ocm = validate_degrees("ocm", [2, 3, 2, 2, 3, 2])
    for seq in (dcm, ocm):
        for seed in range(3):
            k = kernel_from_digraph(sample_digraph(seq, RngStream(seed)))
            want = dense_stationary(k.matrix.toarray())
            got = stationary_distribution(k).distribution
            assert np.abs(got - want).max() < 1e-9
            assert not got.flags.writeable


def test_period_two_chain_converges_via_averaging():
    # pure swap: iterates oscillate, the averaged pair does not
    k = TransitionKernel(csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    res = stationary_distribution(k, start=np.array([1.0, 0.0]))
    assert np.allclose(res.distribution, [0.5, 0.5], atol=1e-12)


def test_period_three_chain_raises_not_converged():
    p = np.zeros((3, 3))
    p[0, 1] = p[1, 2] = p[2, 0] = 1.0
    k = TransitionKernel(csr_matrix(p))
    with pytest.raises(NotConverged) as info:
        stationary_distribution(k, start=np.array([1.0, 0.0, 0.0]),
                                max_iters=50)
    err = info.value
    assert err.iterations == 50
    assert err.residual > 1e-10
    assert err.scc_count == 1
    assert err.best.sum() == pytest.approx(1.0)


def test_not_converged_counts_components_of_a_multigraph():
    # two doubled cycles, {0, 1, 2} of period 3 and {3, 4}: every edge is
    # parallel, and the period-3 part keeps the averaged iterate moving
    doc = {"seed": {"root_seed": 0, "stream_index": 0}, "model": "dcm",
           "out_edges": [[1, 1], [2, 2], [0, 0], [4, 4], [3, 3]]}
    k = kernel_from_digraph(digraph_from_json(json.dumps(doc)))
    with pytest.raises(NotConverged) as info:
        stationary_distribution(k, start=delta_at(0, 5), max_iters=30)
    assert info.value.scc_count == 2


def test_eulerian_equals_in_law_immediately():
    seq = validate_degrees("dcm", [2, 3, 4, 2, 3], [2, 3, 4, 2, 3])
    mu = in_degree_distribution(seq)
    for seed in range(3):
        k = kernel_from_digraph(sample_digraph(seq, RngStream(seed)))
        res = stationary_distribution(k, start=mu)
        assert tv_distance(res.distribution, mu) < 1e-12
        assert res.iterations <= 2


def test_custom_start_and_validation():
    k = TransitionKernel(csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]])))
    res = stationary_distribution(k, start=np.array([0.9, 0.1]))
    assert np.abs(res.distribution - [2 / 3, 1 / 3]).max() < 1e-9
    with pytest.raises(BadValue):
        stationary_distribution(k, tol=0.0)
    with pytest.raises(BadRange):
        stationary_distribution(k, max_iters=0)


def test_start_is_checked_before_iterating():
    k = TransitionKernel(csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]])))
    for start in ([1.0, 0.0, 0.0], [[0.5, 0.5]], []):
        with pytest.raises(LengthMismatch):
            stationary_distribution(k, start=np.array(start))
    # a NaN or zero-mass start would otherwise run every iteration and
    # fail to converge, a zero mass with two RuntimeWarnings on the way
    for start in ([np.nan, 1.0], [np.inf, 0.0], [0.0, 0.0], [1.0, -1.0]):
        budget = OperationBudget(cap=1e6)
        with pytest.raises(BadValue):
            stationary_distribution(k, start=np.array(start), budget=budget)
        assert budget.used == 0.0
    # a nonzero mass is not checked: an unnormalized start is allowed
    res = stationary_distribution(k, start=np.array([3.0, 1.0]))
    assert np.abs(res.distribution - [2 / 3, 1 / 3]).max() < 1e-9


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_solver_refuses_non_finite_tol(tol):
    # a NaN tolerance would never be met and burn every iteration
    k = TransitionKernel(csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]])))
    with pytest.raises(BadValue):
        stationary_distribution(k, tol=tol)


def test_solver_charges_budget_per_iteration():
    k = TransitionKernel(csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]])))
    budget = OperationBudget(cap=1e6)
    res = stationary_distribution(k, budget=budget)
    # initial matvec, one per loop iteration and the closing check, nnz = 3
    assert budget.used == pytest.approx(3.0 * (res.iterations + 2))


def test_diagnostics_rows_hold_n_pi_pi_and_n_max_pi_of_their_solve():
    seq = validate_degrees("dcm", [2, 3, 2, 3, 2, 2], [2, 2, 3, 2, 3, 2])
    mu = in_degree_distribution(seq)
    rows, _ = solve_replicates(seq, 4, RngStream(21, 100))
    assert len(rows) == 4
    for row in rows:
        g = sample_digraph(seq, RngStream(21, row.seed))
        pi = stationary_distribution(kernel_from_digraph(g),
                                     start=mu).distribution
        assert row.l2_stat == float(seq.n * np.dot(pi, pi))
        assert row.max_stat == float(seq.n * pi.max())


@pytest.mark.parametrize("to_vertex_0, l2_stat", [(False, 1.0), (True, 10.0)],
                         ids=["uniform", "point-mass"])
def test_diagnostics_stats_of_a_uniform_and_a_point_mass_law(
        monkeypatch, to_vertex_0, l2_stat):
    # every row uniform has the uniform law, every row at vertex 0 the
    # point mass there: l2_stat and max_stat read 1 and n
    n = 10
    p = np.zeros((n, n)) if to_vertex_0 else np.full((n, n), 1.0 / n)
    p[:, 0] += 1.0 if to_vertex_0 else 0.0
    kernel = TransitionKernel(matrix=csr_matrix(p))
    monkeypatch.setattr(stationary, "kernel_from_digraph", lambda g: kernel)
    seq = validate_degrees("dcm", [2] * n, [2] * n)
    (row,), failures = solve_replicates(seq, 1, RngStream(3))
    assert failures == 0
    assert row.l2_stat == pytest.approx(l2_stat)
    assert row.max_stat == pytest.approx(l2_stat)


def test_solve_replicates_rows_and_seeds():
    seq = validate_degrees("dcm", [2, 3, 2, 3, 2, 2], [2, 2, 3, 2, 3, 2])
    rows, failures = solve_replicates(seq, 4, RngStream(21, 100))
    assert failures == 0
    assert [row.replicate for row in rows] == [0, 1, 2, 3]
    assert [row.seed for row in rows] == [100, 101, 102, 103]
    for row in rows:
        assert row.residual <= 1e-10
        assert row.l2_stat >= 1.0
        assert 0.0 <= row.tv_to_in_law <= 1.0


def test_replicate_streams_stay_inside_the_base_streams_lane():
    seq = validate_degrees("dcm", [2, 3, 2, 3, 2, 2], [2, 2, 3, 2, 3, 2])
    # the last three streams of lane 1 are the last three replicates
    rows, _ = solve_replicates(seq, 3, RngStream(1, 2 * LANE - 3))
    assert [row.seed for row in rows] == [2 * LANE - 3, 2 * LANE - 2,
                                          2 * LANE - 1]
    mu = in_degree_distribution(seq)
    for row in rows:
        g = sample_digraph(seq, RngStream(1, row.seed))
        pi = stationary_distribution(kernel_from_digraph(g), start=mu)
        assert row.tv_to_in_law == tv_distance(pi.distribution, mu)
    # one more would be the first stream of lane 2
    for base, replicates in ((RngStream(1, LANE - 2), 3),
                             (RngStream(1, 2 * LANE - 1), 2),
                             (RngStream(1), 2**40)):
        with pytest.raises(BadRange):
            estimate_stationary_gap(seq, replicates, base)


def test_gap_is_zero_for_eulerian_and_positive_otherwise():
    eul = validate_degrees("dcm", [2, 3, 2, 3], [2, 3, 2, 3])
    est = estimate_stationary_gap(eul, 3, RngStream(2))
    assert est.gap < 1e-12
    assert est.failures == 0
    mixed = validate_degrees("dcm", [2, 3, 2, 3, 2, 2], [2, 2, 3, 2, 3, 2])
    est2 = estimate_stationary_gap(mixed, 6, RngStream(2))
    assert est2.gap > 0.01
    assert est2.std_err >= 0.0
    assert est2.replicates_used == 6
    with pytest.raises(BadRange):
        estimate_stationary_gap(mixed, 1, RngStream(0))


def test_all_replicates_failing_raises():
    mixed = validate_degrees("dcm", [2, 3, 2, 3, 2, 2], [2, 2, 3, 2, 3, 2])
    with pytest.raises(AllReplicatesFailed):
        estimate_stationary_gap(mixed, 3, RngStream(0), max_iters=1)
