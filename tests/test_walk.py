"""Propagation against dense matrix-power oracles, trajectory laws, weights."""

import json
import math

import numpy as np
import pytest
from scipy.sparse import block_diag, csr_matrix, issparse

from mixlab import (MassMonitor, OperationBudget, RngStream, TransitionKernel,
                    delta_at, digraph_from_json, digraph_to_json, double_row,
                    kernel_from_digraph, path_log_weight, path_log_weights,
                    propagate, sample_dcm, sample_digraph, sample_paths,
                    sample_trajectory, time_averaged_row, time_averaged_rows,
                    tv_distance, validate_degrees)
from mixlab.errors import (BadRange, BadValue, BudgetExceeded, ImpossibleStep)
from mixlab import walk
from mixlab.walk import Trajectory


def _graph_from_edges(out_edges, model="dcm"):
    doc = {"seed": {"root_seed": 0, "stream_index": 0}, "model": model,
           "out_edges": out_edges}
    return digraph_from_json(json.dumps(doc))


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
    kernels += [kernel_from_digraph(*graphs[:3]), TransitionKernel(mat)]
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


def test_path_weights_on_a_dcm_kernel_build_only_the_lazy_transpose(
        monkeypatch):
    g1, g2, k1, k2 = random_kernel_pair(3)
    assert g1.head_stubs is not None and stored_matrices(k1) == []
    build, builds = walk._transpose_matrix, []

    def counted(graphs):
        builds.append(graphs)
        return build(graphs)
    monkeypatch.setattr(walk, "_transpose_matrix", counted)
    # the DCM build of P^T never lists out-edges
    monkeypatch.setattr(walk, "_out_lists", None)
    states = sample_paths(np.arange(g1.n), 2, 5, g1, g2, RngStream(3))
    path_log_weights(states, 2, k1, k2)
    assert builds == [(g1,), (g2,)]
    assert stored_matrices(k1) == [id(k1.transpose)]
    assert stored_matrices(k2) == [id(k2.transpose)]


def block_diag_arrays(mats):
    """data, indices and indptr of scipy's block_diag of mats, entries not
    merged: its COO lists each block's entries row by row, in CSR order."""
    coo = block_diag(mats, format="coo")
    assert (np.diff(coo.row) >= 0).all()
    counts = np.bincount(coo.row, minlength=coo.shape[0])
    return coo.data, coo.col, np.concatenate([[0], np.cumsum(counts)])


def kernel_batches():
    """Runs of digraphs on one degree sequence: sampled DCM (with a
    matching), sampled OCM, JSON-loaded DCM, and hand-written multigraphs."""
    dcm = validate_degrees("dcm", [2, 3, 4, 2, 3], [3, 2, 2, 4, 3])
    ocm = validate_degrees("ocm", [2, 3, 4, 2, 3])
    sampled = [sample_digraph(dcm, RngStream(seed)) for seed in range(6)]
    return [
        sampled,
        [sample_digraph(ocm, RngStream(seed)) for seed in range(4)],
        [digraph_from_json(digraph_to_json(g)) for g in sampled[:3]],
        [_graph_from_edges([[1, 1, 2], [2, 0], [0, 1]]),
         _graph_from_edges([[0, 1, 1], [2, 2], [0, 1]])],
        sampled[4:5],
    ]


def test_block_transpose_equals_block_diag_of_per_graph_transposes():
    loops = parallels = 0
    for graphs in kernel_batches():
        k = kernel_from_digraph(*graphs)
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


def test_a_batch_needs_one_degree_sequence():
    dcm = validate_degrees("dcm", [2, 3, 4, 2, 3], [3, 2, 2, 4, 3])
    ocm = validate_degrees("ocm", [2, 3, 4, 2, 3])
    with pytest.raises(BadValue):
        kernel_from_digraph(sample_digraph(dcm, RngStream(0)),
                            sample_digraph(ocm, RngStream(0)))


def test_block_propagate_equals_per_graph_propagate_bitwise():
    # columns of mass 1, of mass 1 up to rounding and of mass far from 1,
    # so that some vectors renormalize and others do not
    rng = np.random.default_rng(4)
    for graphs in kernel_batches():
        k = kernel_from_digraph(*graphs)
        n, b = graphs[0].n, len(graphs)
        block = np.zeros((b, n, 3))
        block[:, 1, 0] = 1.0
        block[:, :, 1] = rng.dirichlet(np.ones(n), size=b)
        scale = rng.choice([0.1, 1 / n], size=(b, 1))
        block[:, :, 2] = rng.random((b, n)) * scale
        for steps in (0, 1, 5):
            monitor = MassMonitor()
            got = propagate(block.reshape(b * n, 3), k, steps, monitor)
            want = MassMonitor()
            for e, g in enumerate(graphs):
                for j in range(3):
                    v = propagate(block[e, :, j], kernel_from_digraph(g),
                                  steps, want)
                    assert np.array_equal(got[e * n:(e + 1) * n, j], v)
            assert monitor == want
            assert (monitor.renormalizations > 0) == (steps > 0)


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
        g = sample_dcm(seq, RngStream(seed, 3))
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
    monitor = MassMonitor()
    with pytest.raises(BadValue):
        propagate(v, k, 3, monitor)
    assert monitor == MassMonitor()


def test_block_propagate_refuses_a_non_finite_mass():
    graphs = kernel_batches()[0]
    k = kernel_from_digraph(*graphs)
    n = graphs[0].n
    block = np.zeros((k.n, 2))
    block[0::n, 0] = 1.0
    block[1::n, 1] = 1.0
    block[k.n - 1, 1] = np.nan      # the last block's second column
    monitor = MassMonitor()
    with pytest.raises(BadValue):
        propagate(block, k, 3, monitor)
    assert monitor == MassMonitor()


TWO_STATE = TransitionKernel(csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]])))


@pytest.mark.parametrize("law, steps", [
    ([math.nan, 1.0], 0), ([math.inf, 0.0], 0), ([0.0, 0.0], 0),
    ([0.0, 0.0], 1), ([0.0, 0.0], 3), ([[0.0, 0.0], [0.0, 0.0]], 1),
], ids=["nan-0", "inf-0", "zero-0", "zero-1", "zero-3", "zero-block-1"])
def test_propagate_refuses_a_zero_or_non_finite_law(law, steps):
    # zero steps check dist itself; a zero mass would be divided by 0
    monitor = MassMonitor()
    with pytest.raises(BadValue):
        propagate(np.array(law), TWO_STATE, steps, monitor)
    assert monitor == MassMonitor()


# NaN at one step or more: test_block_propagate_refuses_a_non_finite_mass
@pytest.mark.parametrize("bad, steps", [(0.0, 0), (0.0, 1), (math.nan, 0)],
                         ids=["zero-0", "zero-1", "nan-0"])
def test_block_propagate_refuses_a_zero_or_non_finite_law(bad, steps):
    graphs = kernel_batches()[0]
    k = kernel_from_digraph(*graphs)
    n = graphs[0].n
    block = np.zeros((k.n, 2))
    block[0::n, 0] = 1.0
    block[1::n, 1] = 1.0
    block[k.n - n + 1, 1] = bad     # the last block's second column
    with pytest.raises(BadValue):
        propagate(block, k, steps)


def test_mass_conserved_over_long_runs():
    monitor = MassMonitor()
    _, _, k, _ = random_kernel_pair(3)
    v = propagate(delta_at(1, k.n), k, 200, monitor)
    assert v.sum() == pytest.approx(1.0, abs=1e-9)
    assert monitor.max_drift < 1e-9


def test_monitor_record_adds_renormalization_counts():
    monitor = MassMonitor()
    monitor.record(1e-12, False)
    monitor.record(0.5, 3)
    monitor.record(0.1, True)
    assert monitor == MassMonitor(renormalizations=4, max_drift=0.5)


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
        time_averaged_rows(0, [3, 0], k1, k2)
    assert time_averaged_rows(0, [], k1, k2) == {}


def test_time_averaged_rows_equal_separate_calls_bitwise():
    for seed in range(4):
        _, _, k1, k2 = random_kernel_pair(seed, n=7, d=3)
        grid = [5, 1, 5, 3, 8]
        budget = OperationBudget()
        rows = time_averaged_rows(2, grid, k1, k2, budget=budget)
        assert sorted(rows) == [1, 3, 5, 8]
        for t in grid:
            assert np.array_equal(rows[t], time_averaged_row(2, t, k1, k2))
        # one pass up to the largest time, not one per grid time
        assert budget.used == 2 * 8 * max(k1.nnz, k2.nnz)


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
    k1, k2 = kernel_from_digraph(g1), kernel_from_digraph(g2)
    traj = Trajectory(states=np.array([0, 1, 2, 0]), switch_time=2)
    # steps: 0->1 in env1 (2/3), 1->2 in env1 (1/2), 2->0 in env2 (1/2)
    want = np.log(2 / 3) + np.log(1 / 2) + np.log(1 / 2)
    assert path_log_weight(traj, k1, k2) == pytest.approx(want, abs=1e-12)
    impossible = Trajectory(states=np.array([0, 0, 1, 2]), switch_time=2)
    with pytest.raises(ImpossibleStep):
        path_log_weight(impossible, k1, k2)


def test_sampled_paths_have_consistent_weights():
    g1, g2, k1, k2 = random_kernel_pair(8, n=6, d=2)
    p1, p2 = dense(k1), dense(k2)
    for r in range(20):
        traj = sample_trajectory(1, 2, 6, g1, g2, RngStream(10, r))
        want = 0.0
        for step in range(6):
            p = p1 if step < 2 else p2
            want += np.log(p[traj.states[step], traj.states[step + 1]])
        assert path_log_weight(traj, k1, k2) == pytest.approx(want, abs=1e-12)


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
    t = 9
    for i, (g1, g2) in enumerate(path_test_pairs()):
        k1, k2 = kernel_from_digraph(g1), kernel_from_digraph(g2)
        p1, p2 = dense(k1), dense(k2)
        xs = np.arange(g1.n).repeat(4)
        for s in (0, 4, t):
            states = sample_paths(xs, s, t, g1, g2, RngStream(i, s))
            got = path_log_weights(states, s, k1, k2).tolist()
            assert got == [scalar_log_weight(row, s, p1, p2)
                           for row in states.tolist()]
            # the single-path form, on a sample of the rows
            for row, w in zip(states[::9], got[::9]):
                traj = Trajectory(states=row, switch_time=s)
                assert path_log_weight(traj, k1, k2) == w


def test_path_log_weight_of_a_probability_below_one_is_math_log():
    # seven parallel edges of weight 1/7 sum to 0.9999999999999998, whose
    # np.log can differ from math.log in the last bit
    g = _graph_from_edges([[1] * 7, [0] * 7])
    k = kernel_from_digraph(g)
    p = float(k.matrix[0, 1])
    assert p == 0.9999999999999998
    want = math.log(p) + math.log(p) + math.log(p)
    states = np.array([[0, 1, 0, 1], [1, 0, 1, 0]])
    assert np.array_equal(path_log_weights(states, 2, k, k), [want, want])
    assert path_log_weight(Trajectory(states[0], None), k, k) == want


def test_path_log_weights_refuse_a_forged_step():
    g1 = _graph_from_edges([[1, 1, 2], [2, 0], [0, 1]])
    g2 = _graph_from_edges([[0, 2], [1, 2], [0, 1]])
    k1, k2 = kernel_from_digraph(g1), kernel_from_digraph(g2)
    states = np.array([[0, 1, 2, 0], [0, 2, 2, 1], [1, 0, 0, 1]])
    # rows 1 and 2 take a self-loop at step 1, which only g2 has
    with pytest.raises(ImpossibleStep, match="trajectory 1, step 1"):
        path_log_weights(states, 2, k1, k2)
    # 1 -> 0 is an edge of g1 only
    with pytest.raises(ImpossibleStep, match="no edge 1 -> 0"):
        path_log_weights(np.array([[2, 1, 0]]), 1, k1, k2)
    assert path_log_weights(np.array([[2, 1, 0]]), 2, k1, k2)[0] == \
        math.log(1 / 2) + math.log(1 / 2)


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


def test_non_canonical_matrix_kernel_weighs_like_its_dense_oracle():
    # row 0 lists its columns out of order; row 1 stores two halves of its
    # one entry; row 2 does both
    data = np.array([0.25, 0.75, 0.5, 0.5, 0.25, 0.5, 0.25])
    indices = np.array([2, 1, 0, 0, 1, 0, 1])
    mat = csr_matrix((data, indices, [0, 2, 4, 7]), shape=(3, 3))
    assert not mat.has_canonical_format
    dense_p = mat.toarray()
    assert dense_p.tolist() == [[0, 0.75, 0.25], [1, 0, 0], [0.5, 0.5, 0]]
    k = TransitionKernel(mat)
    states = np.array([[0, 1, 0, 2, 1], [2, 0, 2, 0, 1], [1, 0, 1, 0, 2]])
    got = path_log_weights(states, 2, k, k).tolist()
    assert got == [scalar_log_weight(row, 2, dense_p, dense_p)
                   for row in states.tolist()]
    with pytest.raises(ImpossibleStep, match="no edge 1 -> 1"):
        path_log_weights(np.array([[0, 1, 1]]), 1, k, k)


@pytest.mark.parametrize("states", [
    [[0, 1, 2], [0, 1, 3]], [[3, 0, 1]], [[0, 1, 2], [-1, 1, 2]],
    [[0, -1, 2]],
], ids=["head-n", "start-n", "start-minus-1", "head-minus-1"])
def test_path_log_weights_refuse_states_outside_the_kernel(states):
    g1 = _graph_from_edges([[1, 1, 2], [2, 0], [0, 1]])
    k = kernel_from_digraph(g1)
    with pytest.raises(BadRange):
        path_log_weights(np.array(states), 1, k, k)
    with pytest.raises(BadRange):
        path_log_weight(Trajectory(np.array(states[-1]), None), k, k)


def test_path_log_weights_refuse_kernels_of_different_sizes():
    k3 = kernel_from_digraph(_graph_from_edges([[1, 1, 2], [2, 0], [0, 1]]))
    k2 = kernel_from_digraph(_graph_from_edges([[1, 1], [0, 0]]))
    with pytest.raises(BadValue):
        path_log_weights(np.array([[0, 1, 0]]), 1, k2, k3)
    assert path_log_weights(np.empty((0, 3), dtype=np.int64), 1, k3,
                            k3).shape == (0,)


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


@pytest.mark.parametrize("cap", [np.nan, np.inf, -1.0])
def test_budget_refuses_non_finite_or_negative_cap(cap):
    # a NaN cap compares false against every charge and would never bind
    with pytest.raises(BadValue):
        OperationBudget(cap=cap)


def test_kernel_accepts_explicit_matrices():
    mat = csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
    k = TransitionKernel(mat)
    out = propagate(np.array([1.0, 0.0]), k, 1)
    assert np.allclose(out, [0.5, 0.5])
