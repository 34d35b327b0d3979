"""Link-prediction evaluation: AUC, average precision, and ranked
next-state candidates for a dialogue.

Evaluation always uses mean embeddings (Z = mu, no sampling), so results
are deterministic given trained parameters and a split.  Posterior means
are computed once per (checkpoint, graph), encoding Â built straight from
the graph's edge list, and every pair, held-out or candidate, is scored by
the one vectorised scorer `edge_probabilities`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import EdgeSplit, NodeId, NodeKind, StateGraph
from .vgae import VgaeParams, edge_probabilities, encode


@dataclass(frozen=True)
class ScoredEdge:
    """A candidate (Domain, SlotValue) pair with its predicted probability."""

    pair: tuple[NodeId, NodeId]
    score: float

    def __post_init__(self):
        if not (0.0 < self.score < 1.0):
            raise ValueError(f"score must lie in (0, 1), got {self.score}")


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks in ascending score order; ties get their average rank."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    # a tie group spanning ranks first..last gets (first + last) / 2, exact
    return ((last - counts + 1 + last) / 2.0)[inverse]


def auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Probability a random positive outranks a random negative, ties 0.5.

    Rank-based Mann-Whitney formulation; exactly equals brute-force
    pairwise counting because average ranks are half-integer exact.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs at least one positive and one negative label")
    ranks = _average_ranks(s)
    u = ranks[y].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def average_precision(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Mean precision at each positive's rank, descending score order.

    Ties are broken by stable input order; AP is not tie-invariant, so the
    policy is part of the contract.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    if not y.any():
        raise ValueError("average_precision needs at least one positive label")
    order = np.argsort(-s, kind="stable")
    hit_ranks = np.flatnonzero(y[order]) + 1
    precisions = np.arange(1, len(hit_ranks) + 1) / hit_ranks
    # cumsum adds in sequence; np.sum's pairwise order would change the last bits
    return float(np.cumsum(precisions)[-1] / len(hit_ranks))


def mean_embeddings(params: VgaeParams, graph: StateGraph) -> np.ndarray:
    """Posterior means for every node, encoding the graph's full edge list."""
    return encode(graph.norm_adj, params)[0]


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
