"""Link-prediction evaluation: test-split AUC and average precision, and
ranked next-state candidates for a dialogue.

Evaluation always uses mean embeddings (Z = mu, no sampling), so results
are deterministic given trained parameters and a split.  Posterior means
are computed once per (checkpoint, graph), encoding a propagation operator
built here from the graph's edge list, and every pair, held-out or
candidate, is scored by the one vectorised scorer `edge_probabilities`.
The AUC and AP themselves live in `metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import EdgeSplit, NodeId, NodeKind, StateGraph
from .metrics import auc, average_precision
from .vgae import Propagation, VgaeParams, edge_probabilities, encode


@dataclass(frozen=True)
class ScoredEdge:
    """A candidate (Domain, SlotValue) pair with its predicted probability."""

    pair: tuple[NodeId, NodeId]
    score: float

    def __post_init__(self):
        if not (0.0 < self.score < 1.0):
            raise ValueError(f"score must lie in (0, 1), got {self.score}")


def mean_embeddings(params: VgaeParams, graph: StateGraph) -> np.ndarray:
    """Posterior means for every node, encoding the graph's full edge list."""
    return encode(Propagation(graph.n_nodes, graph.edges), params)[0]


def evaluate_split(
    params: VgaeParams, graph: StateGraph, split: EdgeSplit
) -> dict[str, float]:
    """AUC and AP over the held-out test edges and their matched negatives.

    The encoder sees the full observed adjacency, matching the candidate
    ranking posture at deployment; the held-out edges were masked from the
    training loss only.  Slot-value nodes touch at most a handful of
    domains, so encoding the train-only graph would leave most held-out
    endpoints isolated and cap the measurable ranking quality near chance.
    """
    if not split.test or not split.neg_test:
        raise ValueError("split has no test edges to evaluate")
    mu = mean_embeddings(params, graph)
    scores = edge_probabilities(mu, *np.array(split.test + split.neg_test).T)
    labels = [True] * len(split.test) + [False] * len(split.neg_test)
    return {"auc": auc(scores, labels), "ap": average_precision(scores, labels)}


def rank_candidates(
    mu: np.ndarray,
    graph: StateGraph,
    context_nodes: Sequence[NodeId] | frozenset[NodeId],
    top_k: int,
) -> list[ScoredEdge]:
    """Top-k unobserved (Domain, SlotValue) pairs for a dialogue's domains.

    ``mu`` holds the posterior means over the full observed adjacency
    (`mean_embeddings`), computed once and shared by every dialogue.
    Candidates are the graph's non-edges incident to the context's Domain
    nodes.  Sorted by descending probability; ties resolve by domain
    index, then slot-value index.
    """
    context = set(context_nodes)
    if not context:
        raise ValueError("context_nodes must be non-empty")
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    d_idx, sv_idx = graph.unobserved_pairs(
        sorted(n.index for n in context if n.kind is NodeKind.DOMAIN)
    )
    scores = edge_probabilities(mu, d_idx, sv_idx)
    best = np.lexsort((sv_idx, d_idx, -scores))[:top_k]
    return [
        ScoredEdge(
            pair=(graph.nodes[d_idx[k]], graph.nodes[sv_idx[k]]), score=float(scores[k])
        )
        for k in best
    ]


def candidate_records(dialogue_id: str, ranked: Sequence[ScoredEdge]) -> list[dict]:
    """JSONL-ready records for ranked candidates, 1-based rank."""
    return [
        {
            "dialogue_id": dialogue_id,
            "domain_label": e.pair[0].label,
            "slotvalue_label": e.pair[1].label,
            "probability": e.score,
            "rank": r,
        }
        for r, e in enumerate(ranked, start=1)
    ]
