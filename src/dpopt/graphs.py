"""Communication graphs and mixing-weight construction.

Two weight families are built here.  Symmetric consensus weights W have
zero row and column sums and make I + W - (1/m) 1 1^T a contraction, so
repeated averaging shrinks disagreement.  Push-pull weight pairs for
directed graphs use a zero-row-sum matrix on the state variable and a
zero-column-sum matrix on the gradient tracker, together with the
nonnegative null vectors that define the stationary mixing directions.

Edge convention: an edge (i, j) means agent j sends to agent i, so j is
an in-neighbor of i and row i of a weight matrix mixes over senders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditions import ConditionReport
from .errors import ConnectivityError, RangeError, SpectralError, StructureError


@dataclass(frozen=True)
class DirectedGraph:
    """A directed communication graph on agents 0..m-1.

    edges holds (receiver, sender) pairs; self-loops are rejected
    because an agent always keeps its own state without a message.
    """

    m: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("graph needs at least one agent")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on agent {i} is not allowed")
            if not (0 <= i < self.m and 0 <= j < self.m):
                raise ValueError(f"edge ({i}, {j}) is out of range for m={self.m}")

    def reversed(self) -> "DirectedGraph":
        return DirectedGraph(self.m, frozenset((j, i) for i, j in self.edges))

    def undirected(self) -> "DirectedGraph":
        sym = set()
        for i, j in self.edges:
            sym.add((i, j))
            sym.add((j, i))
        return DirectedGraph(self.m, frozenset(sym))

    def is_connected_undirected(self) -> bool:
        return len(_reachable(self.undirected(), 0)) == self.m


def _reachable(graph: DirectedGraph, root: int) -> set:
    """Nodes reachable from root following the information flow."""
    out = {}
    for i, j in graph.edges:
        out.setdefault(j, []).append(i)
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        for nxt in out.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def spanning_roots(graph: DirectedGraph) -> set:
    """Nodes from which every other node is reachable."""
    return {r for r in range(graph.m) if len(_reachable(graph, r)) == graph.m}


@dataclass(frozen=True)
class ConsensusWeights:
    """Symmetric mixing weights with zero row sums.

    matrix: the m x m weight matrix W.
    min_diag_mag: min_i |W_ii|, the weakest self-coupling; it controls
        how fast a single agent's perturbation is forgotten.  Zero only
        for the degenerate single-agent graph.
    contraction: the spectral radius (= 2-norm) of I + W - (1/m) 1 1^T, below 1.
    """

    matrix: np.ndarray
    min_diag_mag: float
    contraction: float


def _zero_sum(m: int, edges, weight: float, axis: int) -> np.ndarray:
    """Matrix with weight on each (receiver, sender) edge and the negated
    sums along axis (1: rows, 0: columns) on the diagonal."""
    A = np.zeros((m, m))
    for i, j in edges:
        A[i, j] = weight
    np.fill_diagonal(A, -A.sum(axis=axis))
    return A


def build_consensus_weights(
    graph: DirectedGraph, edge_weight: float
) -> ConsensusWeights:
    """Build uniform symmetric weights on the undirected version of graph.

    Every (symmetrized) edge gets edge_weight and each diagonal entry is
    the negated off-diagonal row sum, so rows and columns sum to zero.
    Raises ConnectivityError when the undirected graph is disconnected
    and SpectralError when edge_weight is too large for averaging to
    contract.
    """
    if edge_weight <= 0:
        raise RangeError("edge_weight must be positive")
    if not graph.is_connected_undirected():
        raise ConnectivityError(
            "consensus weights need a connected undirected graph"
        )
    m = graph.m
    W = _zero_sum(m, graph.undirected().edges, edge_weight, axis=1)
    M = np.eye(m) + W - np.ones((m, m)) / m
    contraction = float(np.max(np.abs(np.linalg.eigvals(M))))
    if m > 1 and contraction >= 1.0:
        # Below a diagonal magnitude of 1 the spectrum of I + W lies in
        # (-1, 1], so only rounding keeps the norm at 1.
        advice = ("a larger edge weight, as rounding loses this one"
                  if np.max(-np.diag(W)) < 1.0 else "a smaller edge weight")
        raise SpectralError(
            f"no contraction at edge_weight={edge_weight} "
            f"(norm {contraction:.6g} >= 1); use {advice}"
        )
    return ConsensusWeights(
        matrix=W,
        min_diag_mag=float(np.min(np.abs(np.diag(W)))),
        contraction=contraction,
    )


def validate_consensus_matrix(W: np.ndarray) -> ConditionReport:
    """Check the structural conditions on a consensus weight matrix:
    symmetry, zero row sums and zero column sums, each to within 1e-10,
    and contraction of the centered averaging map."""
    tol = 1e-10
    W = np.asarray(W, dtype=float)
    m = W.shape[0]
    report = ConditionReport("consensus weight conditions")
    asym = float(np.max(np.abs(W - W.T))) if m > 0 else 0.0
    report.add("symmetric", f"max |W - W^T| <= {tol:g}", asym, asym <= tol)
    rowsum = float(np.max(np.abs(W.sum(axis=1))))
    report.add("zero_row_sums", f"max |row sum| <= {tol:g}", rowsum, rowsum <= tol)
    colsum = float(np.max(np.abs(W.sum(axis=0))))
    report.add("zero_column_sums", f"max |col sum| <= {tol:g}", colsum, colsum <= tol)
    # The norm check uses singular values so it stays meaningful even
    # when the symmetry check above has already failed.
    M = np.eye(m) + W - np.ones((m, m)) / m
    norm = float(np.linalg.norm(M, 2))
    if m == 1:
        report.add("averaging_contracts", "single agent", norm, True)
    else:
        report.add("averaging_contracts", "2-norm < 1", norm, norm < 1.0)
    return report


@dataclass(frozen=True)
class PushPullWeights:
    """Weight pair for directed-graph gradient tracking.

    pull: zero-row-sum matrix applied to the state variable.
    push: zero-column-sum matrix applied to the gradient tracker.
    left_eigvec: nonnegative left null vector u of pull, u^T 1 = m.
    right_eigvec: nonnegative right null vector v of push, 1^T v = m.
    min_diag_pull / min_diag_push: smallest diagonal magnitudes; they
        bound how slowly a perturbation can be forgotten.
    """

    pull: np.ndarray
    push: np.ndarray
    left_eigvec: np.ndarray
    right_eigvec: np.ndarray
    min_diag_pull: float
    min_diag_push: float


def validate_push_pull_graphs(
    graph_pull: DirectedGraph, graph_push: DirectedGraph
) -> ConditionReport:
    """Check the spanning-tree conditions for a push-pull weight pair.

    The pull graph must contain a spanning tree, the reversed push graph
    must contain a spanning tree, and at least one node must be a root
    of both.
    """
    if graph_pull.m != graph_push.m:
        raise ValueError("pull and push graphs must share the agent count")
    roots_pull = spanning_roots(graph_pull)
    roots_push = spanning_roots(graph_push.reversed())
    common = roots_pull & roots_push
    report = ConditionReport("push-pull graph conditions")
    report.add(
        "pull_graph_has_spanning_tree", "root count > 0",
        float(len(roots_pull)), len(roots_pull) > 0,
    )
    report.add(
        "reversed_push_graph_has_spanning_tree", "root count > 0",
        float(len(roots_push)), len(roots_push) > 0,
    )
    report.add(
        "common_root_exists", "shared root count > 0",
        float(len(common)), len(common) > 0,
    )
    return report


def _null_vector(A: np.ndarray) -> np.ndarray:
    """The null vector of A scaled to sum to m, from one SVD: the right
    singular vector of the smallest singular value.  Raises
    StructureError unless exactly one singular value is at most 1e-10
    times the largest."""
    _, svals, vt = np.linalg.svd(A)
    if np.sum(svals <= 1e-10 * svals[0]) != 1:
        raise StructureError("push-pull weight null space is degenerate")
    return vt[-1] * (len(A) / vt[-1].sum())


def build_push_pull_weights(
    graph_pull: DirectedGraph,
    graph_push: DirectedGraph,
    edge_weight: float,
) -> PushPullWeights:
    """Build the zero-row-sum / zero-column-sum weight pair with uniform
    edge weights, plus the null vectors used for weighted averaging.

    Raises ConnectivityError when the spanning-tree conditions fail and
    StructureError when either null space is degenerate.
    """
    if edge_weight <= 0:
        raise RangeError("edge_weight must be positive")
    report = validate_push_pull_graphs(graph_pull, graph_push)
    if not report.overall:
        raise ConnectivityError(
            "push-pull graphs violate the spanning-tree conditions: "
            + ", ".join(report.failed_names())
        )
    m = graph_pull.m
    R = _zero_sum(m, graph_pull.edges, edge_weight, axis=1)
    C = _zero_sum(m, graph_push.edges, edge_weight, axis=0)
    u = _null_vector(R.T)
    v = _null_vector(C)
    if np.min(u) < -1e-9 or np.min(v) < -1e-9:
        raise StructureError("null vector has a negative component")
    if float(u @ v) <= 0:
        raise StructureError("null vectors are not positively aligned")
    return PushPullWeights(
        pull=R,
        push=C,
        left_eigvec=u,
        right_eigvec=v,
        min_diag_pull=float(np.min(np.abs(np.diag(R)))),
        min_diag_push=float(np.min(np.abs(np.diag(C)))),
    )
