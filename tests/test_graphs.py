import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpopt.errors import (
    ConnectivityError,
    RangeError,
    SpectralError,
    StructureError,
)
from dpopt.graphs import (
    DirectedGraph,
    PushPullWeights,
    build_consensus_weights,
    build_push_pull_weights,
    spanning_roots,
    validate_consensus_matrix,
    validate_push_pull_graphs,
)

DESK_EDGES = frozenset(
    {(1, 0), (2, 1), (3, 2), (4, 3), (0, 4), (2, 0), (4, 1)}
)


def desk_graph():
    return DirectedGraph(5, DESK_EDGES)


class TestDirectedGraph:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            DirectedGraph(3, {(1, 1)})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DirectedGraph(3, {(0, 3)})

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            DirectedGraph(0)

    def test_reversed_swaps_direction(self):
        g = DirectedGraph(3, {(1, 0)})
        assert g.reversed().edges == frozenset({(0, 1)})

    def test_connectivity(self):
        assert desk_graph().is_connected_undirected()
        assert not DirectedGraph(3, {(1, 0)}).is_connected_undirected()

    def test_spanning_roots(self):
        # The ring subgraph alone already makes every node a root.
        assert spanning_roots(desk_graph()) == set(range(5))
        chain = DirectedGraph(3, {(1, 0), (2, 1)})
        assert spanning_roots(chain) == {0}


class TestConsensusWeights:
    def test_reference_graph_numbers(self):
        w = build_consensus_weights(desk_graph(), 0.2)
        assert w.matrix.shape == (5, 5)
        assert np.allclose(w.matrix, w.matrix.T)
        assert np.allclose(w.matrix.sum(axis=1), 0.0)
        assert w.contraction == pytest.approx(0.6, abs=1e-9)
        assert w.min_diag_mag == pytest.approx(0.4, abs=1e-12)

    def test_off_diagonal_entries(self):
        w = build_consensus_weights(desk_graph(), 0.2)
        assert w.matrix[2, 1] == pytest.approx(0.2)
        assert w.matrix[1, 2] == pytest.approx(0.2)
        assert w.matrix[0, 3] == 0.0

    def test_disconnected_rejected(self):
        g = DirectedGraph(4, {(1, 0), (3, 2)})
        with pytest.raises(ConnectivityError):
            build_consensus_weights(g, 0.2)

    def test_overweight_rejected(self):
        with pytest.raises(SpectralError):
            build_consensus_weights(desk_graph(), 0.9)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(RangeError):
            build_consensus_weights(desk_graph(), 0.0)

    def test_validator_passes_built_weights(self):
        w = build_consensus_weights(desk_graph(), 0.2)
        report = validate_consensus_matrix(w.matrix)
        assert report.overall
        names = {e.name for e in report.entries}
        assert names == {"symmetric", "zero_row_sums", "zero_column_sums",
                         "averaging_contracts"}

    def test_validator_flags_asymmetry(self):
        w = build_consensus_weights(desk_graph(), 0.2).matrix.copy()
        w[0, 1] += 1e-3
        report = validate_consensus_matrix(w)
        assert not report.entry("symmetric").passed

    def test_validator_flags_row_sum(self):
        w = build_consensus_weights(desk_graph(), 0.2).matrix.copy()
        w[0, 0] += 1e-3
        report = validate_consensus_matrix(w)
        assert not report.entry("zero_row_sums").passed


class TestPushPull:
    def test_reference_weights(self):
        g = desk_graph()
        w = build_push_pull_weights(g, g, 0.2)
        assert np.allclose(w.pull.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(w.push.sum(axis=0), 0.0, atol=1e-12)
        assert np.allclose(w.left_eigvec @ w.pull, 0.0, atol=1e-9)
        assert np.allclose(w.push @ w.right_eigvec, 0.0, atol=1e-9)
        assert w.left_eigvec.sum() == pytest.approx(5.0)
        assert w.right_eigvec.sum() == pytest.approx(5.0)
        assert np.all(w.left_eigvec > 0) and np.all(w.right_eigvec > 0)
        assert w.min_diag_pull > 0 and w.min_diag_push > 0

    def test_graph_conditions(self):
        g = desk_graph()
        report = validate_push_pull_graphs(g, g)
        assert report.overall
        chain = DirectedGraph(3, {(1, 0), (2, 1)})
        report = validate_push_pull_graphs(chain, chain)
        # The chain has a pull root at 0 but its reversed graph roots at
        # 2, so no common root exists.
        assert report.entry("pull_graph_has_spanning_tree").passed
        assert not report.entry("common_root_exists").passed

    def test_no_spanning_tree_rejected(self):
        g = DirectedGraph(4, {(1, 0), (3, 2)})
        with pytest.raises(ConnectivityError):
            build_push_pull_weights(g, g, 0.2)

    def test_asymmetric_graphs_allowed(self):
        ring = DirectedGraph(4, {(1, 0), (2, 1), (3, 2), (0, 3)})
        chord = DirectedGraph(4, {(1, 0), (2, 1), (3, 2), (0, 3), (2, 0)})
        w = build_push_pull_weights(ring, chord, 0.25)
        assert np.allclose(w.pull.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(w.push.sum(axis=0), 0.0, atol=1e-12)


@st.composite
def digraphs(draw, m: int) -> DirectedGraph:
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=m - 1))
    return DirectedGraph(m, edges)


@st.composite
def push_pull_weights(draw) -> PushPullWeights:
    """Weights on digraph pairs that meet the spanning-tree conditions."""
    m = draw(st.integers(2, 7))
    pull, push = draw(digraphs(m)), draw(digraphs(m))
    assume(validate_push_pull_graphs(pull, push).overall)
    return build_push_pull_weights(pull, push, draw(st.floats(0.05, 0.5)))


@settings(max_examples=200, deadline=None)
@given(w=push_pull_weights())
def test_push_pull_null_vectors(w):
    m = len(w.pull)
    u, v = w.left_eigvec, w.right_eigvec
    assert u.min() >= -1e-9 and v.min() >= -1e-9
    assert abs(u.sum() - m) <= 1e-12 * m
    assert abs(v.sum() - m) <= 1e-12 * m
    assert np.max(np.abs(u @ w.pull)) <= 1e-12
    assert np.max(np.abs(w.push @ v)) <= 1e-12
    assert u @ v > 0

