"""Propagation against dense matrix-power oracles, trajectory laws, weights."""

import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import block_diag, csr_matrix, issparse

from mixlab import (Digraph, ModelKind, NotConverged, OperationBudget,
                    RngStream, TransitionKernel, delta_at, double_row,
                    kernel_from_digraph,
                    one_step_laws, path_log_weight, path_log_weights,
                    propagate, sample_digraph, sample_paths,
                    sample_tables, sample_trajectory,
                    stationary_distribution, time_averaged_row,
                    tv_distance, validate_degrees)
from mixlab.errors import (BadRange, BadValue, BudgetExceeded, ImpossibleStep)
from mixlab import sampler, walk
from mixlab.rng import lane_keys
from mixlab.walk import (Trajectory, _step_log_probs, as_ledger,
                         grouped_time_averaged_rows, refreshed_kernels,
                         sample_path_log_weights)

from helpers import digraph_from_json, digraph_to_json


def _graph_from_edges(out_edges, model="dcm"):
    doc = {"seed": {"root_seed": 0, "stream_index": 0}, "model": model,
           "out_edges": out_edges}
    return digraph_from_json(json.dumps(doc))


def drift_tally(ledger):
    return ledger.renormalizations, ledger.max_drift


def rows_by_time(x, times, k_sigma, k_eta, budget=None):
    """{t: row} of ``grouped_time_averaged_rows`` with the one eta k_eta."""
    return {t: row for t, _, row in grouped_time_averaged_rows(
        x, times, k_sigma, [k_eta], budget)}


def random_kernel_pair(seed, n=8, d=3):
    seq = validate_degrees("dcm", [d] * n, [d] * n)
    g1 = sample_digraph(seq, RngStream(seed).lane(1))
    g2 = sample_digraph(seq, RngStream(seed).lane(2))
    return g1, g2, kernel_from_digraph(g1), kernel_from_digraph(g2)


def dense(kernel):
    return kernel.matrix.toarray()


def test_kernel_weights_count_multiplicities():
    g = _graph_from_edges([[1, 1, 2], [2, 0], [0, 1]])
    k = kernel_from_digraph(g)
    assert k.matrix[0, 1] == pytest.approx(2 / 3)
    assert k.matrix[0, 2] == pytest.approx(1 / 3)
    assert k.matrix[0, 0] == 0.0
    assert k.matrix[1, 2] == pytest.approx(0.5)


def dense_transpose_oracle(g):
    """P^T accumulated edge by edge: entry (head, tail) gains 1/out-degree."""
    tails = np.repeat(np.arange(g.n), g.seq.out_degrees)
    pt = np.zeros((g.n, g.n))
    np.add.at(pt, (g.heads, tails), 1.0 / g.seq.out_degrees[tails])
    return pt


def kernel_test_graphs():
    dcm = validate_degrees("dcm", [2, 3, 4, 2, 3], [3, 2, 2, 4, 3])
    ocm = validate_degrees("ocm", [2, 3, 4, 2, 3])
    graphs = [sample_digraph(dcm, RngStream(seed)) for seed in range(8)]
    graphs += [sample_digraph(ocm, RngStream(seed)) for seed in range(4)]
    graphs += [digraph_from_json(digraph_to_json(g)) for g in graphs[:2]]
    graphs.append(_graph_from_edges([[1, 1, 2], [2, 0], [0, 1]]))
    graphs.append(_graph_from_edges([[0, 0, 1], [1, 2], [0, 2]]))
    graphs.append(_graph_from_edges([[1, 2], [0, 2], [0, 1]], model="ocm"))
    return graphs


def test_kernel_orientations_match_dense_edge_oracle():
    graphs = kernel_test_graphs()
    loops = parallels = 0
    for g in graphs:
        tails = np.repeat(np.arange(g.n), g.seq.out_degrees)
        loops += int((g.heads == tails).any())
        parallels += int(len(set(zip(tails, g.heads))) < g.seq.m)
        pt = dense_transpose_oracle(g)
        k = kernel_from_digraph(g)
        assert k.nnz == g.seq.m == k.transpose.nnz
        assert np.array_equal(k.transpose.toarray(), pt)
        assert np.array_equal(k.matrix.toarray(), pt.T)
        v = np.random.default_rng(0).dirichlet(np.ones(g.n))
        got = propagate(v, k, 6)
        for _ in range(6):
            v = pt @ v
        assert np.abs(got - v).max() <= 1e-15
    # the set must exercise what the per-edge layout has to get right, and
    # both builds of P^T: from a DCM matching and from the out-lists alone
    assert loops >= 2 and parallels >= 2
    assert {g.head_stubs is None for g in graphs} == {True, False}


def stored_matrices(kernel):
    """Ids of the sparse matrices a kernel holds."""
    return [id(v) for v in vars(kernel).values() if issparse(v)]


def test_kernel_stores_one_matrix_and_p_is_a_view_of_it():
    graphs = kernel_test_graphs()
    mat = csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
    kernels = [kernel_from_digraph(g) for g in graphs]
    kernels += [table_kernel(graphs[:3]), TransitionKernel(mat)]
    # every kernel holds its one matrix from the moment it is made
    assert all(len(stored_matrices(k)) == 1 for k in kernels)
    for k in kernels:
        p, pt = k.matrix, k.transpose
        assert stored_matrices(k) == [id(pt)]
        for a, b in ((p.data, pt.data), (p.indices, pt.indices),
                     (p.indptr, pt.indptr)):
            assert np.shares_memory(a, b)
        assert np.array_equal(p.toarray(), pt.toarray().T)
    # a matrix kernel keeps P^T only, not the P it was given
    assert not np.shares_memory(kernels[-1].transpose.data, mat.data)
    assert np.array_equal(kernels[-1].matrix.toarray(), mat.toarray())


def block_diag_arrays(mats):
    """data, indices and indptr of scipy's block_diag of mats, entries not
    merged: its COO lists each block's entries row by row, in CSR order."""
    coo = block_diag(mats, format="coo")
    assert (np.diff(coo.row) >= 0).all()
    counts = np.bincount(coo.row, minlength=coo.shape[0])
    return coo.data, coo.col, np.concatenate([[0], np.cumsum(counts)])


def table_kernel(graphs):
    """The block-diagonal kernel of graphs on one degree sequence, built
    from their stacked heads and, when they have them, matchings."""
    heads = np.stack([g.heads for g in graphs])
    stubs = [g.head_stubs for g in graphs]
    stubs = None if stubs[0] is None else np.stack(stubs)
    return TransitionKernel(rows=(graphs[0].seq, heads, stubs))


def kernel_batches():
    """Runs of digraphs on one degree sequence, each with its table kernel:
    sampled DCM (with a matching), sampled OCM, JSON-loaded DCM, and
    hand-written multigraphs."""
    dcm = validate_degrees("dcm", [2, 3, 4, 2, 3], [3, 2, 2, 4, 3])
    ocm = validate_degrees("ocm", [2, 3, 4, 2, 3])
    sampled = [sample_digraph(dcm, RngStream(seed)) for seed in range(6)]
    batches = [
        sampled,
        [sample_digraph(ocm, RngStream(seed)) for seed in range(4)],
        [digraph_from_json(digraph_to_json(g)) for g in sampled[:3]],
        [_graph_from_edges([[1, 1, 2], [2, 0], [0, 1]]),
         _graph_from_edges([[0, 1, 1], [2, 2], [0, 1]])],
        sampled[4:5],
    ]
    return [(graphs, table_kernel(graphs)) for graphs in batches]


def test_block_transpose_equals_block_diag_of_per_graph_transposes():
    loops = parallels = 0
    for graphs, k in kernel_batches():
        seq = graphs[0].seq
        assert (k.blocks, k.n, k.nnz) == (len(graphs), len(graphs) * seq.n,
                                           len(graphs) * seq.m)
        data, indices, indptr = block_diag_arrays(
            [kernel_from_digraph(g).transpose for g in graphs])
        pt = k.transpose
        assert np.array_equal(pt.data, data)
        assert np.array_equal(pt.indices, indices)
        assert np.array_equal(pt.indptr, indptr)
        for g in graphs:
            tails = np.repeat(np.arange(g.n), g.seq.out_degrees)
            loops += int((g.heads == tails).any())
            parallels += int(len(set(zip(tails, g.heads))) < g.seq.m)
    assert loops >= 2 and parallels >= 2


def test_block_propagate_equals_per_graph_propagate_bitwise():
    # columns of mass 1, of mass 1 up to rounding and of mass far from 1,
    # so that some vectors renormalize and others do not
    rng = np.random.default_rng(4)
    for graphs, k in kernel_batches():
        n, b = graphs[0].n, len(graphs)
        block = np.zeros((b, n, 3))
        block[:, 1, 0] = 1.0
        block[:, :, 1] = rng.dirichlet(np.ones(n), size=b)
        scale = rng.choice([0.1, 1 / n], size=(b, 1))
        block[:, :, 2] = rng.random((b, n)) * scale
        for steps in (0, 1, 5):
            ledger = OperationBudget()
            got = propagate(block.reshape(b * n, 3), k, steps, ledger)
            want = OperationBudget()
            for e, g in enumerate(graphs):
                for j in range(3):
                    v = propagate(block[e, :, j], kernel_from_digraph(g),
                                  steps, want)
                    assert np.array_equal(got[e * n:(e + 1) * n, j], v)
            assert drift_tally(ledger) == drift_tally(want)
            assert (ledger.renormalizations > 0) == (steps > 0)


def test_block_propagate_charges_every_column():
    _, _, k, _ = random_kernel_pair(2)
    budget = OperationBudget()
    propagate(np.eye(k.n)[:, :3], k, 4, budget=budget)
    assert budget.used == 4 * 3 * k.nnz


def test_per_sequence_arrays_are_shared_and_read_only():
    dcm = validate_degrees("dcm", [2, 3, 4, 2, 3], [3, 2, 2, 4, 3])
    fresh = {
        "out_offsets": np.concatenate([[0], np.cumsum(dcm.out_degrees)]),
        "in_offsets": np.concatenate([[0], np.cumsum(dcm.in_degrees)]),
        "tails": np.repeat(np.arange(5), dcm.out_degrees),
        "head_slots": np.repeat(np.arange(5), dcm.in_degrees),
        "inv_out_degrees": 1.0 / dcm.out_degrees,
    }
    for seed in range(6):
        g = sample_digraph(dcm, RngStream(seed))
        k = kernel_from_digraph(g)
        assert g.offsets is dcm.out_offsets
        assert np.shares_memory(k.transpose.indptr, dcm.in_offsets)
        assert np.array_equal(k.transpose.toarray(), dense_transpose_oracle(g))
        assert np.array_equal(k.matrix.toarray(), dense_transpose_oracle(g).T)
    for name, want in fresh.items():
        arr = getattr(dcm, name)
        assert arr is getattr(dcm, name), name
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[0] = arr[0]
        assert np.array_equal(arr, want), name


def test_dcm_permutes_stub_indices_like_the_head_slots():
    # the same stream must realize the same graph as permuting head slots
    seq = validate_degrees("dcm", [2, 3, 4, 2, 3], [3, 2, 2, 4, 3])
    head_slots = np.repeat(np.arange(seq.n), seq.in_degrees)
    for seed in range(5):
        want = RngStream(seed, 3).generator().permutation(head_slots)
        g = sample_digraph(seq, RngStream(seed, 3))
        assert np.array_equal(g.heads, want)
        assert np.array_equal(head_slots[g.head_stubs], g.heads)


def test_rows_are_stochastic_for_sampled_graphs():
    for seed in range(4):
        seq = validate_degrees("dcm", [2, 3, 4, 2, 3], [3, 2, 2, 4, 3])
        k = kernel_from_digraph(sample_digraph(seq, RngStream(seed)))
        sums = np.asarray(k.matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-12)


def test_propagate_matches_dense_matrix_powers():
    for seed in range(5):
        _, _, k, _ = random_kernel_pair(seed)
        p = dense(k)
        v = delta_at(2, k.n)
        got = propagate(v, k, 7)
        want = v @ np.linalg.matrix_power(p, 7)
        assert np.abs(got - want).max() < 1e-12


def test_propagate_zero_steps_is_identity_copy():
    _, _, k, _ = random_kernel_pair(1)
    v = delta_at(0, k.n)
    out = propagate(v, k, 0)
    assert np.array_equal(out, v)
    out[0] = 0.5  # must be a copy, not a view
    assert v[0] == 1.0


@pytest.mark.parametrize("steps", [0, 1, 3])
def test_propagate_never_writes_to_or_aliases_its_input(steps):
    # read-only inputs, off from mass 1 so every step renormalizes in place
    g1, g2, k, _ = random_kernel_pair(1)
    block_kernel = table_kernel([g1, g2])
    for v, kernel in ((delta_at(0, k.n) * (1 + 1e-6), k),
                      (np.full((2 * k.n, 3), (1 + 1e-6) / k.n),
                       block_kernel)):
        v.setflags(write=False)
        before = v.copy()
        out = propagate(v, kernel, steps)
        assert np.array_equal(v, before)
        assert not np.shares_memory(out, v)
        assert out.flags.writeable


def test_propagate_rejects_bad_input():
    _, _, k, _ = random_kernel_pair(2)
    with pytest.raises(BadRange):
        propagate(delta_at(0, k.n), k, -1)
    with pytest.raises(BadValue):
        propagate(np.ones(3), k, 1)
    with pytest.raises(BadValue):
        propagate(np.ones((3, 2)), k, 1)
    with pytest.raises(BadValue):
        propagate(np.ones((k.n, 2, 1)), k, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_propagate_refuses_a_non_finite_mass(bad):
    # a NaN mass passes the drift test, so it would spread unrecorded
    _, _, k, _ = random_kernel_pair(2)
    v = delta_at(0, k.n)
    v[1] = bad
    ledger = OperationBudget()
    with pytest.raises(BadValue):
        propagate(v, k, 3, ledger)
    assert drift_tally(ledger) == (0, 0.0)


def test_block_propagate_refuses_a_non_finite_mass():
    graphs, k = kernel_batches()[0]
    n = graphs[0].n
    block = np.zeros((k.n, 2))
    block[0::n, 0] = 1.0
    block[1::n, 1] = 1.0
    block[k.n - 1, 1] = np.nan      # the last block's second column
    ledger = OperationBudget()
    with pytest.raises(BadValue):
        propagate(block, k, 3, ledger)
    assert drift_tally(ledger) == (0, 0.0)


TWO_STATE = TransitionKernel(csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]])))


@pytest.mark.parametrize("law, steps", [
    ([math.nan, 1.0], 0), ([math.inf, 0.0], 0), ([0.0, 0.0], 0),
    ([0.0, 0.0], 1), ([0.0, 0.0], 3), ([[0.0, 0.0], [0.0, 0.0]], 1),
], ids=["nan-0", "inf-0", "zero-0", "zero-1", "zero-3", "zero-block-1"])
def test_propagate_refuses_a_zero_or_non_finite_law(law, steps):
    # zero steps check dist itself; a zero mass would be divided by 0
    ledger = OperationBudget()
    with pytest.raises(BadValue):
        propagate(np.array(law), TWO_STATE, steps, ledger)
    assert drift_tally(ledger) == (0, 0.0)


# NaN at one step or more: test_block_propagate_refuses_a_non_finite_mass
@pytest.mark.parametrize("bad, steps", [(0.0, 0), (0.0, 1), (math.nan, 0)],
                         ids=["zero-0", "zero-1", "nan-0"])
def test_block_propagate_refuses_a_zero_or_non_finite_law(bad, steps):
    graphs, k = kernel_batches()[0]
    n = graphs[0].n
    block = np.zeros((k.n, 2))
    block[0::n, 0] = 1.0
    block[1::n, 1] = 1.0
    block[k.n - n + 1, 1] = bad     # the last block's second column
    with pytest.raises(BadValue):
        propagate(block, k, steps)


def test_mass_conserved_over_long_runs():
    ledger = OperationBudget()
    _, _, k, _ = random_kernel_pair(3)
    v = propagate(delta_at(1, k.n), k, 200, ledger)
    assert v.sum() == pytest.approx(1.0, abs=1e-9)
    assert ledger.max_drift < 1e-9


def test_monitor_record_adds_renormalization_counts():
    # the ledger's drift tally; recording charges no work
    ledger = OperationBudget()
    ledger.record(1e-12, False)
    ledger.record(0.5, 3)
    ledger.record(0.1, True)
    assert drift_tally(ledger) == (4, 0.5)
    assert ledger.used == 0.0


def test_double_row_matches_dense_products():
    for seed in range(3):
        _, _, k1, k2 = random_kernel_pair(seed)
        p1, p2 = dense(k1), dense(k2)
        for s, t in ((0, 5), (3, 7), (7, 7)):
            got = double_row(2, s, t, k1, k2)
            want = delta_at(2, k1.n) @ np.linalg.matrix_power(p1, s) \
                @ np.linalg.matrix_power(p2, t - s)
            assert np.abs(got - want).max() < 1e-12
    with pytest.raises(BadRange):
        double_row(0, 5, 3, k1, k2)


def naive_time_averaged_row(x, t, k1, k2):
    """O(t^2) reference: average the two-environment rows over switch times."""
    p1, p2 = dense(k1), dense(k2)
    n = k1.n
    acc = np.zeros(n)
    for s in range(1, t + 1):
        acc += delta_at(x, n) @ np.linalg.matrix_power(p1, s - 1) \
            @ np.linalg.matrix_power(p2, t - s)
    return acc / t


def test_time_averaged_row_matches_naive_oracle():
    for seed in range(4):
        _, _, k1, k2 = random_kernel_pair(seed, n=6, d=2)
        for t in (1, 2, 5, 7):
            got = time_averaged_row(3, t, k1, k2)
            want = naive_time_averaged_row(3, t, k1, k2)
            assert np.abs(got - want).max() < 1e-12


def test_time_averaged_row_needs_a_positive_time():
    _, _, k1, k2 = random_kernel_pair(5, n=6, d=2)
    with pytest.raises(BadRange):
        time_averaged_row(0, 0, k1, k2)
    with pytest.raises(BadRange):
        rows_by_time(0, [3, 0], k1, k2)
    assert rows_by_time(0, [], k1, k2) == {}


def test_time_averaged_rows_equal_separate_calls_bitwise():
    for seed in range(4):
        _, _, k1, k2 = random_kernel_pair(seed, n=7, d=3)
        grid = [5, 1, 5, 3, 8]
        budget = OperationBudget()
        rows = rows_by_time(2, grid, k1, k2, budget=budget)
        assert sorted(rows) == [1, 3, 5, 8]
        for t in grid:
            assert np.array_equal(rows[t], time_averaged_row(2, t, k1, k2))
        # one pass up to the largest time, not one per grid time
        assert budget.used == 7 * (k1.nnz + k2.nnz)


@pytest.mark.parametrize("seq", [
    validate_degrees("dcm", [2, 3] * 5, [3, 2] * 5),
    validate_degrees("ocm", [2, 3, 4] * 4)], ids=["dcm", "ocm"])
def test_grouped_rows_equal_separate_calls_bitwise(seq):
    k_sigma, *k_etas = [
        kernel_from_digraph(sample_digraph(seq, RngStream(8).lane(i)))
        for i in range(4)]
    grid = [6, 1, 3, 6]
    grouped, alone = OperationBudget(), OperationBudget()
    got = list(grouped_time_averaged_rows(4, grid, k_sigma, k_etas, grouped))
    # t ascending, and at each t every eta in order
    assert [(t, e) for t, e, _ in got] == [(t, e) for t in (1, 3, 6)
                                           for e in range(3)]
    for e, k_eta in enumerate(k_etas):
        want = rows_by_time(4, grid, k_sigma, k_eta, alone)
        for t, _, row in got[e::3]:
            assert np.array_equal(row, want[t])
    # sigma is walked once for the group, not once per eta
    assert grouped.used == 5 * (k_sigma.nnz + sum(k.nnz for k in k_etas))
    assert alone.used - grouped.used == 2 * 5 * k_sigma.nnz
    assert grouped.max_drift == alone.max_drift


def test_grouped_rows_need_one_vertex_count():
    _, _, k1, k2 = random_kernel_pair(5, n=6, d=2)
    _, _, k3, _ = random_kernel_pair(5, n=8, d=2)
    ledger = OperationBudget()
    with pytest.raises(BadValue):
        grouped_time_averaged_rows(0, [3], k1, [k2, k3], ledger)
    assert ledger.used == 0


def test_trajectory_shape_and_edge_membership():
    g1, g2, _, _ = random_kernel_pair(6, n=6, d=2)
    traj = sample_trajectory(4, 3, 9, g1, g2, RngStream(88))
    assert traj.length == 9
    assert traj.switch_time == 3
    assert traj.states[0] == 4
    for step in range(9):
        x, y = traj.states[step], traj.states[step + 1]
        env = g1 if step < 3 else g2
        assert int(y) in env.out_edges(int(x)).tolist()


def test_trajectory_endpoint_law_matches_double_row():
    g1, g2, k1, k2 = random_kernel_pair(7, n=6, d=2)
    s, t, reps = 2, 5, 4000
    counts = np.zeros(6)
    for r in range(reps):
        traj = sample_trajectory(0, s, t, g1, g2, RngStream(9).lane(6, r))
        counts[traj.states[-1]] += 1
    emp = counts / reps
    law = double_row(0, s, t, k1, k2)
    # 3 sigma per state for a multinomial with these cell probabilities
    bound = 3 * np.sqrt(law * (1 - law) / reps) + 1e-9
    assert (np.abs(emp - law) <= bound).all()


def test_path_log_weight_multiplies_step_probabilities():
    g1 = _graph_from_edges([[1, 1, 2], [2, 0], [0, 1]])
    g2 = _graph_from_edges([[1, 2], [0, 2], [0, 1]])
    traj = Trajectory(states=np.array([0, 1, 2, 0]), switch_time=2)
    # steps: 0->1 in env1 (2/3), 1->2 in env1 (1/2), 2->0 in env2 (1/2)
    want = np.log(2 / 3) + np.log(1 / 2) + np.log(1 / 2)
    assert path_log_weight(traj, g1, g2) == pytest.approx(want, abs=1e-12)
    impossible = Trajectory(states=np.array([0, 0, 1, 2]), switch_time=2)
    with pytest.raises(ImpossibleStep):
        path_log_weight(impossible, g1, g2)


def test_sampled_paths_have_consistent_weights():
    g1, g2, k1, k2 = random_kernel_pair(8, n=6, d=2)
    p1, p2 = dense(k1), dense(k2)
    for r in range(20):
        traj = sample_trajectory(1, 2, 6, g1, g2, RngStream(10, r))
        want = 0.0
        for step in range(6):
            p = p1 if step < 2 else p2
            want += np.log(p[traj.states[step], traj.states[step + 1]])
        assert path_log_weight(traj, g1, g2) == pytest.approx(want, abs=1e-12)


def scalar_log_weight(states, s, p_sigma, p_eta):
    """A path's log-weight summed one step at a time from dense P."""
    total = 0.0
    for j in range(len(states) - 1):
        p = p_sigma if j < s else p_eta
        total += math.log(p[states[j], states[j + 1]])
    return total


def path_test_pairs():
    """(g_sigma, g_eta) pairs: sampled DCM and OCM, a degree-40 hub, and
    JSON multigraphs with self-loops and parallel edges."""
    dcm = validate_degrees("dcm", [2, 3, 4, 2, 3] * 8, [3, 2, 2, 4, 3] * 8)
    ocm = validate_degrees("ocm", [2, 3, 4, 2, 3] * 8)
    hub = validate_degrees("ocm", [40] + [2, 3] * 20)
    pairs = [tuple(sample_digraph(seq, RngStream(seed).lane(env))
                   for env in (1, 2))
             for seq in (dcm, ocm, hub) for seed in range(2)]
    pairs.append((_graph_from_edges([[1, 1, 2], [2, 0, 0], [0, 2]]),
                  _graph_from_edges([[0, 0, 1], [1, 2, 2], [0, 0]])))
    return pairs


def test_path_log_weights_equal_scalar_weights_bitwise():
    # weights read from out-lists against P from the kernel's P^T, so the
    # two orientations check each other bit for bit
    t = 9
    for i, (g1, g2) in enumerate(path_test_pairs()):
        p1 = dense(kernel_from_digraph(g1))
        p2 = dense(kernel_from_digraph(g2))
        xs = np.arange(g1.n).repeat(4)
        for s in (0, 4, t):
            states = sample_paths(xs, s, t, g1, g2, RngStream(i, s))
            got = path_log_weights(states, s, g1, g2).tolist()
            assert got == [scalar_log_weight(row, s, p1, p2)
                           for row in states.tolist()]
            # the single-path form, on a sample of the rows
            for row, w in zip(states[::9], got[::9]):
                traj = Trajectory(states=row, switch_time=s)
                assert path_log_weight(traj, g1, g2) == w


def test_path_log_weight_of_a_probability_below_one_is_math_log():
    # seven parallel edges of weight 1/7 sum to 0.9999999999999998, whose
    # np.log can differ from math.log in the last bit
    g = _graph_from_edges([[1] * 7, [0] * 7])
    p = float(kernel_from_digraph(g).matrix[0, 1])
    assert p == 0.9999999999999998
    want = math.log(p) + math.log(p) + math.log(p)
    states = np.array([[0, 1, 0, 1], [1, 0, 1, 0]])
    assert np.array_equal(path_log_weights(states, 2, g, g), [want, want])
    assert path_log_weight(Trajectory(states[0], None), g, g) == want


def test_path_log_weights_refuse_a_forged_step():
    g1 = _graph_from_edges([[1, 1, 2], [2, 0], [0, 1]])
    g2 = _graph_from_edges([[0, 2], [1, 2], [0, 1]])
    states = np.array([[0, 1, 2, 0], [0, 2, 2, 1], [1, 0, 0, 1]])
    # rows 1 and 2 take a self-loop at step 1, which only g2 has
    with pytest.raises(ImpossibleStep, match="trajectory 1, step 1"):
        path_log_weights(states, 2, g1, g2)
    # 1 -> 0 is an edge of g1 only
    with pytest.raises(ImpossibleStep, match="no edge 1 -> 0"):
        path_log_weights(np.array([[2, 1, 0]]), 1, g1, g2)
    assert path_log_weights(np.array([[2, 1, 0]]), 2, g1, g2)[0] == \
        math.log(1 / 2) + math.log(1 / 2)


def in_order_sum(c, d):
    """c copies of 1/d added one at a time to a sum that starts at 0."""
    p = 0.0
    for _ in range(c):
        p += 1.0 / d
    return p


def edge_copies(g, x, y):
    return int((g.out_edges(x) == y).sum())


def test_sample_path_log_weights_equal_the_weights_of_sample_paths_bitwise():
    # small DCM multigraphs have parallel edges and self-loops, so steps
    # go along 2 or 3 copies of their edge; OCM steps along one
    dcm = validate_degrees("dcm", [4, 3, 3], [3, 4, 3])
    ocm = validate_degrees("ocm", [2, 3, 4, 2, 3] * 8)
    pairs = [tuple(sample_digraph(seq, RngStream(seed).lane(env))
                   for env in (1, 2))
             for seq in (dcm, ocm) for seed in range(3)]
    pairs += path_test_pairs()
    t, block, seen = 9, 48, set()
    for i, (g1, g2) in enumerate(pairs):
        xs = np.arange(g1.n).repeat(5)      # blocks of 48 leave a short one
        for s in (0, 4, t):
            for b, lo in enumerate(range(0, xs.size, block)):
                stream = RngStream(i, s).lane(6, b)
                states = sample_paths(xs[lo:lo + block], s, t, g1, g2, stream)
                want = path_log_weights(states, s, g1, g2)
                got = sample_path_log_weights(xs[lo:lo + block], s, t, g1, g2,
                                              stream)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                if g1.n == dcm.n:
                    seen.update(edge_copies(g1 if j < s else g2, x, y)
                                for row in states.tolist()
                                for j, (x, y) in enumerate(zip(row, row[1:])))
    assert seen == {1, 2, 3}
    g1, g2 = pairs[0]
    for s in (0, 3):
        empty = sample_path_log_weights([], s, 3, g1, g2, RngStream(5))
        assert empty.shape == (0,) and empty.dtype == np.float64
        assert np.array_equal(empty, path_log_weights(
            sample_paths([], s, 3, g1, g2, RngStream(5)), s, g1, g2))


def test_sample_path_log_weights_check_what_sample_paths_checks():
    g1, g2 = path_test_pairs()[0]
    g3 = _graph_from_edges([[1, 1], [0, 0]])
    for walk_or_weigh in (sample_paths, sample_path_log_weights):
        with pytest.raises(BadRange):
            walk_or_weigh([0], 4, 3, g1, g2, RngStream(1))
        with pytest.raises(BadRange):
            walk_or_weigh([g1.n], 1, 3, g1, g2, RngStream(1))
        with pytest.raises(BadValue):
            walk_or_weigh([0], 1, 3, g1, g3, RngStream(1))
        assert walk_or_weigh([0, 1], 0, 0, g1, g2, RngStream(1)).shape[0] == 2


def test_step_log_probs_are_math_log_of_the_in_order_sum():
    # one out-list per (c, d), d <= 12: d - c other heads, then c copies
    # of the head 0, and a 0 past the last list, so a read past d(x) counts
    # one copy too many; 10 copies of 1/10 sum to 0.9999999999999999, below
    # 1, and 7 of 1/7 to 0.9999999999999998, whose np.log is not math.log's
    pairs = [(c, d) for d in range(1, 13) for c in range(1, d + 1)]
    degrees = np.array([d for _, d in pairs])
    g = SimpleNamespace(heads=np.concatenate(
        [[1] * (d - c) + [0] * c for c, d in pairs] + [[0]]))
    got = _step_log_probs(g, np.arange(len(pairs)), np.cumsum(degrees)
                          - degrees, degrees, np.zeros(len(pairs), int), 0)
    want = [math.log(in_order_sum(c, d)) for c, d in pairs]
    assert got.tolist() == want
    assert in_order_sum(10, 10) < 1.0
    assert np.log(in_order_sum(7, 7)) != math.log(in_order_sum(7, 7))


def test_step_log_probs_of_a_hub_hold_no_degree_squared_table():
    # 3000 parallel edges each way: a table with a slot for every key below
    # c (D + 1) + d would hold 9e6 floats, 72 MB
    d = 3000
    with pytest.warns(UserWarning, match="max degree"):
        g = _graph_from_edges([[1] * d, [0] * d])
    xs = np.array([0, 1, 0])
    tracemalloc.start()
    try:
        got = sample_path_log_weights(xs, 1, 2, g, g, RngStream(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [2 * math.log(in_order_sum(d, d))] * 3
    assert peak < 2**20


def scalar_trajectory(x, s, t, g_sigma, g_eta, stream):
    """One path stepped one scalar draw at a time: the reference that
    ``sample_trajectory``, a one-row block of ``sample_paths``, matches."""
    gen = stream.generator()
    states = [x]
    for step in range(1, t + 1):
        edges = (g_sigma if step <= s else g_eta).out_edges(states[-1])
        states.append(int(edges[gen.integers(0, len(edges))]))
    return states


def test_sample_trajectory_equals_the_scalar_walk_bitwise():
    t = 8
    for i, (g1, g2) in enumerate(path_test_pairs()[:-1]):   # DCM and OCM
        for s in (0, t // 2, t):
            for x in range(0, g1.n, 7):
                stream = RngStream(i, s).lane(6, x)
                traj = sample_trajectory(x, s, t, g1, g2, stream)
                assert traj.switch_time == s
                assert traj.states.tolist() == scalar_trajectory(
                    x, s, t, g1, g2, stream)


@pytest.mark.parametrize("states", [
    [[0, 1, 2], [0, 1, 3]], [[3, 0, 1]], [[0, 1, 2], [-1, 1, 2]],
    [[0, -1, 2]],
], ids=["head-n", "start-n", "start-minus-1", "head-minus-1"])
def test_path_log_weights_refuse_states_outside_the_kernel(states):
    g = _graph_from_edges([[1, 1, 2], [2, 0], [0, 1]])
    with pytest.raises(BadRange):
        path_log_weights(np.array(states), 1, g, g)
    with pytest.raises(BadRange):
        path_log_weight(Trajectory(np.array(states[-1]), None), g, g)


def test_path_log_weights_refuse_kernels_of_different_sizes():
    g3 = _graph_from_edges([[1, 1, 2], [2, 0], [0, 1]])
    g2 = _graph_from_edges([[1, 1], [0, 0]])
    with pytest.raises(BadValue):
        path_log_weights(np.array([[0, 1, 0]]), 1, g2, g3)
    assert path_log_weights(np.empty((0, 3), dtype=np.int64), 1, g3,
                            g3).shape == (0,)


def test_sample_paths_follow_the_right_environment():
    for i, (g1, g2) in enumerate(path_test_pairs()):
        t, s = 8, 3
        xs = np.arange(g1.n).repeat(3)
        states = sample_paths(xs, s, t, g1, g2, RngStream(40, i))
        assert states.shape == (xs.size, t + 1)
        assert np.array_equal(states[:, 0], xs)
        for row in states.tolist():
            for step in range(t):
                env = g1 if step < s else g2
                assert row[step + 1] in env.out_edges(row[step]).tolist()
        # one stream replays the whole block
        assert np.array_equal(states,
                              sample_paths(xs, s, t, g1, g2, RngStream(40, i)))


def test_sample_paths_refuse_bad_input():
    g1, g2, _, _ = random_kernel_pair(6, n=6, d=2)
    with pytest.raises(BadRange):
        sample_paths([0, 1], 4, 3, g1, g2, RngStream(0))
    with pytest.raises(BadRange):
        sample_paths([0, 6], 1, 3, g1, g2, RngStream(0))
    with pytest.raises(BadValue):
        sample_paths([[0, 1]], 1, 3, g1, g2, RngStream(0))
    assert sample_paths([], 1, 3, g1, g2, RngStream(0)).shape == (0, 4)


def test_sample_paths_endpoint_law_matches_double_row():
    # the reg6 check of test_09, with all 4000 paths stepped together
    reg6 = validate_degrees("dcm", [2] * 6, [2] * 6)
    g1 = sample_digraph(reg6, RngStream(7).lane(1))
    g2 = sample_digraph(reg6, RngStream(7).lane(2))
    s, t, reps = 2, 5, 4000
    states = sample_paths(np.zeros(reps, dtype=int), s, t, g1, g2,
                          RngStream(9).lane(6))
    emp = np.bincount(states[:, -1], minlength=6) / reps
    law = double_row(0, s, t, kernel_from_digraph(g1),
                     kernel_from_digraph(g2))
    bound = 3 * np.sqrt(law * (1 - law) / reps) + 1e-9
    assert (np.abs(emp - law) <= bound).all()


def test_budget_accounting_and_exhaustion():
    _, _, k, _ = random_kernel_pair(9)
    budget = OperationBudget(cap=10 * k.nnz)
    propagate(delta_at(0, k.n), k, 10, budget=budget)
    assert budget.used == pytest.approx(10 * k.nnz)
    with pytest.raises(BudgetExceeded):
        propagate(delta_at(0, k.n), k, 1, budget=budget)
    with pytest.raises(BadValue):
        OperationBudget(cap=0)


class _CountingTranspose:
    """A kernel's P^T that tallies the scalar products it performs:
    nnz per column of every product."""

    def __init__(self, mat):
        self.mat, self.ops = mat, 0

    def __matmul__(self, v):
        self.ops += self.mat.nnz * (1 if v.ndim == 1 else v.shape[1])
        return self.mat @ v

    def copy(self):
        return self.mat.copy()


def _failed_solve(k_sigma, k_eta, budget):
    with pytest.raises(NotConverged):
        stationary_distribution(k_sigma, tol=1e-15, max_iters=2,
                                budget=budget)


COUNTED_RUNS = {
    "propagate-law": lambda ks, ke, b: propagate(delta_at(0, ks.n), ks, 5,
                                                 budget=b),
    "propagate-block": lambda ks, ke, b: propagate(
        np.full((ks.n, 3), 1.0 / ks.n), ks, 4, budget=b),
    "rows-t1": lambda ks, ke, b: rows_by_time(0, [1], ks, ke, budget=b),
    "rows-t6": lambda ks, ke, b: rows_by_time(0, [2, 6], ks, ke, budget=b),
    "rows-grouped": lambda ks, ke, b: {
        (t, e): row for t, e, row in grouped_time_averaged_rows(
            0, [2, 6], ks, [ke, ks, ke], budget=b)},
    "solve-converged": lambda ks, ke, b: stationary_distribution(ks,
                                                                 budget=b),
    "solve-failed": _failed_solve,
}


@pytest.mark.parametrize("name", sorted(COUNTED_RUNS))
def test_budget_charges_equal_the_products_performed(name):
    seq = validate_degrees("dcm", [2] * 6 + [3] * 6, [3] * 6 + [2] * 6)
    kernels = [kernel_from_digraph(sample_digraph(seq, RngStream(4).lane(i)))
               for i in (1, 2)]
    for k in kernels:
        k._transpose = _CountingTranspose(k.transpose)
    budget = OperationBudget()
    COUNTED_RUNS[name](*kernels, budget)
    performed = sum(k.transpose.ops for k in kernels)
    assert budget.used == performed
    assert (performed == 0) == (name == "rows-t1")


def _bits(result):
    """A run's result as exactly comparable bytes and numbers."""
    if isinstance(result, dict):
        return {t: _bits(row) for t, row in result.items()}
    if isinstance(result, np.ndarray):
        return result.shape, result.tobytes()
    if result is None:
        return None
    return _bits(result.distribution), result.iterations, result.residual


@pytest.mark.parametrize("name", sorted(COUNTED_RUNS))
def test_no_budget_gives_the_bits_of_an_uncapped_ledger(name):
    # propagate maps a missing budget inline, the others through as_ledger
    seq = validate_degrees("dcm", [2] * 6 + [3] * 6, [3] * 6 + [2] * 6)
    kernels = [kernel_from_digraph(sample_digraph(seq, RngStream(4).lane(i)))
               for i in (1, 2)]
    without = COUNTED_RUNS[name](*kernels, None)
    ledger = as_ledger(None)
    assert _bits(COUNTED_RUNS[name](*kernels, ledger)) == _bits(without)
    assert ledger.used > 0 or name == "rows-t1"


def test_a_law_past_numpy_size_limit_is_bad_range():
    # np.zeros ended in numpy's ValueError ("array is too big")
    with pytest.raises(BadRange):
        delta_at(0, 2**62)


@pytest.mark.parametrize("cap", [np.nan, np.inf, -1.0])
def test_budget_refuses_non_finite_or_negative_cap(cap):
    # a NaN cap compares false against every charge and would never bind
    with pytest.raises(BadValue):
        OperationBudget(cap=cap)


@pytest.mark.parametrize("bad", [True, 1.5, "3", None, math.nan])
def test_a_vertex_must_be_an_integer(bad):
    _, _, k1, k2 = random_kernel_pair(3)
    with pytest.raises(BadValue):
        delta_at(bad, 8)
    for s, t in ((0, 0), (1, 2)):
        with pytest.raises(BadValue):
            double_row(bad, s, t, k1, k2)
    ledger = OperationBudget()
    with pytest.raises(BadValue):
        rows_by_time(bad, [2], k1, k2, ledger)
    assert ledger.used == 0     # refused before any work is charged


def test_walk_times_and_starts_must_be_integers():
    g1, g2, k1, k2 = random_kernel_pair(3)
    stream = RngStream(5)
    cases = [lambda: sample_paths([1.5, 2.7], 1, 2, g1, g2, stream),
             lambda: sample_paths([0, "2"], 1, 2, g1, g2, stream),
             lambda: sample_paths([0, 1], 0.5, 2, g1, g2, stream),
             lambda: sample_paths([0, 1], 1, 2.5, g1, g2, stream),
             lambda: sample_trajectory(0, 1, "2", g1, g2, stream),
             lambda: rows_by_time(0, [2.5], k1, k2),
             lambda: rows_by_time(0, ["2"], k1, k2),
             lambda: double_row(0, 1.5, 3, k1, k2),
             lambda: double_row(0, 1, math.nan, k1, k2)]
    for case in cases:
        with pytest.raises(BadValue):
            case()
    ledger = OperationBudget()
    with pytest.raises(BadRange):
        rows_by_time(99, [3], k1, k2, ledger)
    assert ledger.used == 0
    # integral floats and numpy integers are vertices and times
    assert np.array_equal(delta_at(2.0, 4), delta_at(2, 4))
    assert np.array_equal(delta_at(np.int32(2), 4), delta_at(2, 4))
    assert np.array_equal(double_row(0, 1.0, 3.0, k1, k2),
                          double_row(0, 1, 3, k1, k2))
    assert np.array_equal(rows_by_time(0, [2.0], k1, k2)[2],
                          time_averaged_row(0, 2, k1, k2))


def test_kernel_accepts_explicit_matrices():
    mat = csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
    k = TransitionKernel(mat)
    out = propagate(np.array([1.0, 0.0]), k, 1)
    assert np.allclose(out, [0.5, 0.5])


def test_kernel_refuses_malformed_input():
    seq = validate_degrees("dcm", [2, 3, 2, 3], [3, 2, 3, 2])
    g = sample_digraph(seq, RngStream(1))
    two = np.stack([g.heads, g.heads])
    ragged = [g.heads.tolist(), [0, 1]]
    cases = [
        # propagate made a 3-vector of a 2-vertex law
        lambda: TransitionKernel(csr_matrix(np.ones((2, 3)) / 3)),
        # a dense matrix ended in AttributeError: no attribute 'tocsr'
        lambda: TransitionKernel(np.eye(3)),
        # a 1-d table built a 40-vertex kernel of 10 one-edge blocks
        lambda: TransitionKernel(rows=(seq, g.heads, None)),
        lambda: TransitionKernel(rows=(seq, g.heads[None, :-1], None)),
        lambda: TransitionKernel(rows=(seq, two[:0], None)),
        # the build read the second block's tails from uninitialised memory
        lambda: TransitionKernel(rows=(seq, two, g.head_stubs[None])),
        lambda: TransitionKernel(rows=(seq, g.heads[None], g.head_stubs)),
        # np.shape of a ragged table ended in numpy's ValueError
        lambda: TransitionKernel(rows=(seq, ragged, None)),
        lambda: TransitionKernel(rows=(seq, two, ragged)),
    ]
    for case in cases:
        with pytest.raises(BadValue):
            case()


@pytest.mark.parametrize("head", [-1, 4, 7])
def test_out_list_kernel_refuses_heads_outside_the_vertices(head):
    # scipy took them unchecked, and the interpreter died later (SIGSEGV)
    seq = validate_degrees("dcm", [2, 3, 2, 3], [3, 2, 3, 2])
    heads = np.zeros((2, seq.m), dtype=np.int32)
    heads[1, 5] = head
    for table in (heads, heads[1:]):
        with pytest.raises(BadRange):
            TransitionKernel(rows=(seq, table, None))


def test_a_table_kernel_refuses_heads_that_are_not_the_matching():
    # heads and matching once gave two walks: vertex 0's out-edges are its
    # two self-loops in the matching, and lead to 1 in the forged heads,
    # which one_step_laws reads
    seq = validate_degrees("dcm", [2, 3, 2, 3], [3, 2, 3, 2])
    heads, stubs = sample_tables(seq, RngStream(3).key[None])
    assert heads[0, :2].tolist() == [0, 0]
    forged = heads.copy()
    forged[0, :2] = 1
    assert one_step_laws(seq, forged, [[0]]).ravel().tolist() == [0, 1, 0, 0]
    with pytest.raises(BadValue, match="head slots"):
        TransitionKernel(rows=(seq, forged, stubs))
    with pytest.raises(BadValue, match="head slots"):
        kernel_from_digraph(Digraph(seq, forged[0], RngStream(3), stubs[0]))
    assert propagate(delta_at(0, 4), TransitionKernel(
        rows=(seq, heads, stubs)), 1).tolist() == [1, 0, 0, 0]


@pytest.mark.parametrize("fault", ["repeat", "negative", "past_m"])
def test_matching_kernel_refuses_a_row_that_is_no_permutation(fault):
    # a repeated stub left an entry of P^T's tails unwritten, so the kernel
    # read leftover memory; numpy read a stub -1 as m - 1, here in place of
    # the stub m - 1, so that every slot is still written
    seq = validate_degrees("dcm", [2, 3, 2, 3], [3, 2, 3, 2])
    heads, stubs = sample_tables(seq, lane_keys(4, 1, range(2)))
    if fault == "negative":
        stubs[0, stubs[0] == seq.m - 1] = -1
    else:
        stubs[0, 1] = stubs[0, 0] if fault == "repeat" else seq.m
    for b in (2, 1):
        with pytest.raises(BadRange):
            TransitionKernel(rows=(seq, heads[:b], stubs[:b]))
    # the other row is a matching, and builds alone
    assert TransitionKernel(rows=(seq, heads[1:], stubs[1:])).nnz == seq.m


def test_walk_counts_and_starts_refuse_bools():
    # numpy reads [True, 2] as int64; each of these used to run as 1
    g1, g2, k1, k2 = random_kernel_pair(3)
    stream = RngStream(5)
    cases = [lambda: sample_paths([True, 2], 1, 2, g1, g2, stream),
             lambda: sample_paths([0, 1], True, 2, g1, g2, stream),
             lambda: sample_trajectory(0, 1, True, g1, g2, stream),
             lambda: double_row(0, True, 3, k1, k2),
             lambda: double_row(0, 1, True, k1, k2),
             lambda: rows_by_time(0, [True, 2], k1, k2)]
    for case in cases:
        with pytest.raises(BadValue):
            case()
    # integral floats and numpy arrays of starts still walk
    assert np.array_equal(sample_paths([1.0, 2.0], 1, 2.0, g1, g2, stream),
                          sample_paths(np.array([1, 2]), 1, 2, g1, g2,
                                       stream))


def test_propagate_reads_steps_by_the_integer_rule():
    _, _, k, _ = random_kernel_pair(2)
    v = delta_at(0, k.n)
    for bad in (True, False, 2.5, math.nan, "2"):
        with pytest.raises(BadValue):
            propagate(v, k, bad)
    for negative in (-1, -1.0, np.int64(-2)):
        with pytest.raises(BadRange):
            propagate(v, k, negative)
    # integral floats and numpy integers are step counts
    want = propagate(v, k, 2)
    for steps in (2.0, np.int64(2), np.int32(2)):
        assert np.array_equal(propagate(v, k, steps), want)


def test_path_log_weights_read_the_switch_time_by_the_integer_rule():
    g1 = _graph_from_edges([[1, 1, 2], [2, 0], [0, 1]])
    g2 = _graph_from_edges([[0, 2], [1, 2], [0, 1]])
    states = np.array([[0, 1, 2, 0], [0, 2, 1, 2], [1, 2, 0, 2]])
    for bad in (True, 1.5, math.nan, "2"):
        with pytest.raises(BadValue):
            path_log_weights(states, bad, g1, g2)
    with pytest.raises(BadRange):
        path_log_weights(states, -1, g1, g2)
    want = path_log_weights(states, 2, g1, g2)
    for s in (2.0, np.int64(2)):
        assert np.array_equal(path_log_weights(states, s, g1, g2), want)
    # a trajectory without a switch time still runs wholly in g_sigma
    traj = Trajectory(states[0], None)
    assert path_log_weight(traj, g1, g2) == path_log_weights(
        states[:1], 3, g1, g2)[0]


def test_path_log_weights_read_the_states_by_the_integer_rule():
    g1 = _graph_from_edges([[1, 1, 2], [2, 0], [0, 1]])
    g2 = _graph_from_edges([[0, 2], [1, 2], [0, 1]])
    states = np.array([[0, 1, 2, 0], [0, 2, 1, 2], [1, 2, 0, 2]])
    want = path_log_weights(states, 2, g1, g2)
    for same in (states.astype(float), states.astype(np.uint8),
                 states.tolist()):
        assert np.array_equal(path_log_weights(same, 2, g1, g2), want)
    for bad in (states.astype(bool), states + 0.5,
                np.where(states, states, np.nan), states.astype(str),
                # numpy reads these as int64, weighing True as vertex 1
                [[0, True, 2]], [[0, 1, 2, 0], [0, np.True_, 1, 2]],
                # ragged rows ended in a bare ValueError from numpy
                [[0, 1, 2], [0, 2]]):
        with pytest.raises(BadValue):
            path_log_weights(bad, 2, g1, g2)


TABLE_SEQS = [validate_degrees("dcm", [2, 3, 4, 2, 3], [3, 2, 2, 4, 3]),
              validate_degrees("dcm", [3] * 40, [3] * 40),
              validate_degrees("ocm", [2, 3, 4, 5] * 8),
              validate_degrees("ocm", [5] * 5)]


@pytest.mark.parametrize("seq", TABLE_SEQS, ids=range(len(TABLE_SEQS)))
def test_table_rows_are_the_digraphs_of_their_streams(seq):
    streams = list(RngStream(17).lanes(1, range(9)))
    heads, head_stubs = sample_tables(seq, lane_keys(17, 1, range(9)))
    assert heads.shape == (9, seq.m)
    assert (head_stubs is None) == (seq.model is ModelKind.OCM)
    for e, stream in enumerate(streams):
        g = sample_digraph(seq, stream)
        assert np.array_equal(heads[e], g.heads)
        assert heads[e].dtype == g.heads.dtype
        if head_stubs is None:
            assert g.head_stubs is None
        else:
            assert np.array_equal(head_stubs[e], g.head_stubs)
            # the numbers of a fresh generator's permutation, row by row
            assert np.array_equal(head_stubs[e],
                                  stream.generator().permutation(seq.m))


@pytest.mark.parametrize("seq", TABLE_SEQS, ids=range(len(TABLE_SEQS)))
def test_table_kernels_equal_the_digraph_kernels_bitwise(seq):
    streams = list(RngStream(23).lanes(1, range(6)))
    keys = lane_keys(23, 1, range(6))
    for batch in (streams[:1], streams):
        b = len(batch)
        kernel = TransitionKernel(rows=(seq, *sample_tables(seq, keys[:b])))
        assert (kernel.blocks, kernel.n, kernel.nnz) == (b, b * seq.n,
                                                         b * seq.m)
        kernels = [kernel_from_digraph(sample_digraph(seq, stream))
                   for stream in batch]
        data, indices, indptr = block_diag_arrays(
            [k.transpose for k in kernels])
        pt = kernel.transpose
        assert np.array_equal(pt.data, data)
        assert np.array_equal(pt.indices, indices)
        assert np.array_equal(pt.indptr, indptr)
        assert pt.indices.dtype == kernels[0].transpose.indices.dtype


@pytest.mark.parametrize("seq", TABLE_SEQS, ids=range(len(TABLE_SEQS)))
def test_refreshed_kernels_equal_the_digraph_kernels_bitwise(seq):
    # DCM rewrites the first kernel's P^T in place, OCM builds each afresh
    streams = list(RngStream(29).lanes(5, range(7)))
    v = np.random.default_rng(3).random(seq.n)
    v /= v.sum()
    kernels = refreshed_kernels(seq, lane_keys(29, 5, range(7)))
    first = None
    for e, (kernel, stream) in enumerate(zip(kernels, streams)):
        first = kernel if first is None else first
        assert (kernel is first) == (e == 0 or seq.model is ModelKind.DCM)
        want = kernel_from_digraph(sample_digraph(seq, stream))
        assert (kernel.blocks, kernel.n, kernel.nnz) == (1, seq.n, seq.m)
        for name in ("indptr", "indices", "data"):
            got, exact = (getattr(k.transpose, name) for k in (kernel, want))
            assert np.array_equal(got, exact) and got.dtype == exact.dtype
        assert np.array_equal(propagate(v, kernel, 3), propagate(v, want, 3))
    assert e == len(streams) - 1


@pytest.mark.parametrize("seq", TABLE_SEQS, ids=range(len(TABLE_SEQS)))
def test_a_dcm_pass_gathers_heads_for_its_first_kernel_only(monkeypatch,
                                                             seq):
    # a rewrite reads its matching alone, so it draws no heads table
    tables, draw = [], walk.sample_tables
    monkeypatch.setattr(walk, "sample_tables", lambda seq, keys: (
        tables.append(len(keys)) or draw(seq, keys)))
    for _ in refreshed_kernels(seq, lane_keys(29, 5, range(7))):
        pass
    assert tables == [1] * (1 if seq.model is ModelKind.DCM else 7)


@pytest.mark.parametrize("fault", ["repeat", "negative", "past_m"])
def test_a_rewritten_kernel_refuses_a_row_that_is_no_permutation(
        monkeypatch, fault):
    # the second environment's matching, the first one drawn alone for a
    # rewrite, is broken as in
    # test_matching_kernel_refuses_a_row_that_is_no_permutation; its slot
    # left unwritten must not keep the first environment's tail
    seq = TABLE_SEQS[0]

    def broken_row(m, keys):
        stubs = sampler.sample_matchings(m, keys)
        if fault == "negative":
            stubs[0, stubs[0] == m - 1] = -1
        else:
            stubs[0, 1] = stubs[0, 0] if fault == "repeat" else m
        return stubs

    monkeypatch.setattr(walk, "sample_matchings", broken_row)
    kernels = refreshed_kernels(seq, lane_keys(4, 1, range(3)))
    next(kernels)
    with pytest.raises(BadRange):
        next(kernels)


def test_a_refreshed_kernel_holds_only_until_the_next_is_drawn():
    # the contract: drawing the next kernel rewrites the one held
    seq = TABLE_SEQS[0]
    streams = list(RngStream(8).lanes(1, range(2)))
    kernels = refreshed_kernels(seq, lane_keys(8, 1, range(2)))
    held = next(kernels)
    first = held.transpose.indices.copy(), held.transpose.data.copy()
    assert next(kernels) is held
    want = kernel_from_digraph(sample_digraph(seq, streams[1])).transpose
    assert np.array_equal(held.transpose.indices, want.indices)
    assert np.array_equal(held.transpose.data, want.data)
    assert not np.array_equal(held.transpose.indices, first[0])


def test_a_one_graph_kernel_copies_none_of_its_rows(monkeypatch):
    # the P^T builder is handed views of g's rows
    given, build = [], walk._transpose_matrix
    monkeypatch.setattr(walk, "_transpose_matrix",
                        lambda *rows: given.append(rows) or build(*rows))
    dcm, ocm = TABLE_SEQS[0], TABLE_SEQS[2]
    for g in (sample_digraph(dcm, RngStream(3)),
              sample_digraph(ocm, RngStream(3))):
        kernel_from_digraph(g)
        (seq, heads, head_stubs), = given
        given.clear()
        assert seq is g.seq
        assert np.shares_memory(heads, g.heads)
        assert (head_stubs is None if g.head_stubs is None
                else np.shares_memory(head_stubs, g.head_stubs))


def test_every_table_kernel_builds_its_transpose_through_the_property(
        monkeypatch):
    # the constructor builds at once, but by reading ``transpose``, so a
    # wrapper of the property sees every P^T built from tables, once
    built = []
    build = TransitionKernel.transpose.fget
    monkeypatch.setattr(TransitionKernel, "transpose", property(
        lambda kernel: built.append(kernel) or build(kernel)))
    for seq in TABLE_SEQS:
        heads, stubs = sample_tables(seq, lane_keys(3, 1, range(2)))
        g = sample_digraph(seq, RngStream(3))
        for make in (lambda: TransitionKernel(rows=(seq, heads, stubs)),
                     lambda: kernel_from_digraph(g)):
            kernel = make()
            assert built == [kernel] and kernel._rows is None
            built.clear()


def test_a_kernel_lets_its_tables_go_once_its_transpose_is_built():
    # every kernel of rows builds as it is made, so none holds its tables
    seq = TABLE_SEQS[0]
    kernel = kernel_from_digraph(sample_digraph(seq, RngStream(3)))
    assert kernel._rows is None and kernel.transpose is kernel.transpose
    heads, stubs = sample_tables(seq, lane_keys(3, 1, range(2)))
    assert TransitionKernel(rows=(seq, heads, stubs))._rows is None


@pytest.mark.parametrize("seq", TABLE_SEQS, ids=range(len(TABLE_SEQS)))
def test_list_tables_give_the_kernel_and_laws_of_their_arrays(seq):
    # a list, or an ndarray that is not of integers, is read by the input
    # rules, so an integral-float matching is the integer one
    heads, stubs = sample_tables(seq, lane_keys(6, 1, range(3)))
    want = TransitionKernel(rows=(seq, heads, stubs)).transpose
    starts = [[0], [1], [2]]
    for read in (np.ndarray.tolist, lambda a: a.astype(float)):
        tables = (read(heads), None if stubs is None else read(stubs))
        got = TransitionKernel(rows=(seq, *tables)).transpose
        for a, b in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            assert a.tobytes() == b.tobytes()
        assert one_step_laws(seq, tables[0], starts).tobytes() == (
            one_step_laws(seq, heads, starts).tobytes())


def one_step_cases():
    """(seq, heads table, its kernel) for every kernel batch, which holds
    parallel edges and self-loops, and for sampled tables of every
    TABLE_SEQS sequence, DCM and OCM."""
    for graphs, k in kernel_batches():
        yield graphs[0].seq, np.stack([g.heads for g in graphs]), k
    for seq in TABLE_SEQS:
        heads, stubs = sample_tables(seq, lane_keys(29, 1, range(5)))
        yield seq, heads, TransitionKernel(rows=(seq, heads, stubs))


def law_major(block, b):
    """The (b, w, n) law-major copy of a (b n, w) block of laws."""
    return np.ascontiguousarray(block.reshape(b, -1, block.shape[1])
                                .transpose(0, 2, 1))


def test_one_step_laws_equal_one_product_bitwise():
    rng = np.random.default_rng(11)
    for seq, heads, kernel in one_step_cases():
        b, n = len(heads), seq.n
        for w in (1, 3):
            starts = rng.integers(0, n, size=(b, w))
            block = np.zeros((b, n, w))
            np.put_along_axis(block, starts[:, None, :], 1.0, axis=1)
            want_ledger, got_ledger = OperationBudget(), OperationBudget()
            want = propagate(block.reshape(b * n, w), kernel, 1, want_ledger)
            got = one_step_laws(seq, heads, starts, got_ledger)
            # law-major: each law contiguous
            assert got.shape == (b, w, n) and got.flags.c_contiguous
            assert got.tobytes() == law_major(want, b).tobytes()
            assert drift_tally(got_ledger) == drift_tally(want_ledger)
            # one multiply-add per out-edge read, not one per kernel entry
            assert got_ledger.used == seq.out_degrees[starts].sum()
            if b == w == 1:     # the 1-d law a lone walk propagates
                v = propagate(block.ravel(), kernel, 1)
                assert got.ravel().tobytes() == v.tobytes()


def test_one_step_laws_renormalize_as_a_product_does():
    # seven edges of weight 1/7 do not add to 1 exactly, so the laws'
    # drift is recorded as a product's would be
    seq = validate_degrees("ocm", [7] * 14)
    heads, _ = sample_tables(seq, lane_keys(3, 1, range(4)))
    kernel = TransitionKernel(rows=(seq, heads, None))
    starts = np.arange(8).reshape(4, 2)
    block = np.zeros((4, seq.n, 2))
    np.put_along_axis(block, starts[:, None, :], 1.0, axis=1)
    want_ledger, got_ledger = OperationBudget(), OperationBudget()
    want = propagate(block.reshape(-1, 2), kernel, 1, want_ledger)
    got = one_step_laws(seq, heads, starts, got_ledger)
    assert got.tobytes() == law_major(want, 4).tobytes()
    assert drift_tally(got_ledger) == drift_tally(want_ledger)
    assert got_ledger.max_drift > 0


def test_one_step_laws_refuse_bad_tables():
    seq = validate_degrees("dcm", [2, 3, 2, 3], [3, 2, 3, 2])
    heads, _ = sample_tables(seq, lane_keys(4, 1, range(2)))
    for bad in (np.zeros(2, dtype=int), np.zeros((3, 1), dtype=int),
                [[0], [True]], [[0.5], [1]], [[0], [1, 2]]):
        with pytest.raises(BadValue):
            one_step_laws(seq, heads, bad)
    for bad in (heads[:, :-1], [heads[0].tolist(), [0, 1]]):
        with pytest.raises(BadValue):
            one_step_laws(seq, bad, [[0], [1]])
    for bad in ([[0], [4]], [[-1], [0]]):
        with pytest.raises(BadRange):
            one_step_laws(seq, heads, bad)
    forged = heads.copy()
    forged[1, 0] = 4
    with pytest.raises(BadRange):
        one_step_laws(seq, forged, [[0], [0]])
    # the forged head is read only from vertex 0's out-list
    assert one_step_laws(seq, forged, [[0], [1]]).shape == (2, 1, 4)
