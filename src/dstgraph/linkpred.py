"""Link-prediction evaluation: test-split AUC and average precision, and
the ranked next-state candidates at a dialogue's domains.

Evaluation always uses mean embeddings (Z = mu, no sampling), so results
are deterministic given trained parameters and a split.  Posterior means
are computed once per (checkpoint, graph), encoding a propagation operator
built here from the graph's edge array, and every pair, held-out or
candidate, is scored by the one vectorised scorer `edge_probabilities`.
Candidates come back as plain records, the one form that `predict`
writes and `repl` prints.  The AUC and AP themselves live in `metrics`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import EdgeSplit, NodeKind, StateGraph
from .metrics import auc, average_precision
from .vgae import Propagation, VgaeParams, edge_probabilities, encode, held_out_scores


def mean_embeddings(params: VgaeParams, graph: StateGraph) -> np.ndarray:
    """Posterior means for every node, encoding the graph's full edge array."""
    return encode(Propagation(graph.n_nodes, graph.edges), params)[0]


def evaluate_split(
    params: VgaeParams, graph: StateGraph, split: EdgeSplit
) -> dict[str, float]:
    """AUC and AP over the held-out test edges and their matched negatives,
    scored by `held_out_scores` as `train` scores its validation edges.

    The encoder sees the full observed adjacency, matching the candidate
    ranking posture at deployment; the held-out edges were masked from the
    training loss only.  Slot-value nodes touch at most a handful of
    domains, so encoding the train-only graph would leave most held-out
    endpoints isolated and cap the measurable ranking quality near chance.
    """
    if not len(split.test) or not len(split.neg_test):
        raise ValueError("split has no test edges to evaluate")
    mu = mean_embeddings(params, graph)
    scores, labels = held_out_scores(mu, split.test, split.neg_test)
    return {"auc": auc(scores, labels), "ap": average_precision(scores, labels)}


def rank_candidates(
    mu: np.ndarray, graph: StateGraph, domains: Sequence[int], top_k: int
) -> list[dict]:
    """Top-k unobserved (Domain, SlotValue) pairs for a dialogue's domains.

    ``mu`` holds the posterior means over the full observed adjacency
    (`mean_embeddings`), computed once and shared by every dialogue.
    ``domains`` are the sorted, distinct indices of the dialogue's Domain
    nodes (`dialogue_domains`).  Candidates are the graph's
    non-edges at those domains, as records ``{domain_label,
    slotvalue_label, probability, rank}`` with 1-based rank, sorted by
    descending probability; ties resolve by domain index, then slot-value
    index.
    """
    if not domains:
        raise ValueError("domains must be non-empty")
    if list(domains) != sorted(set(domains)) or any(
        not 0 <= d < graph.n_nodes or graph.nodes[d].kind is not NodeKind.DOMAIN
        for d in domains
    ):
        raise ValueError(
            f"domains must be sorted distinct domain node indices, got {domains}"
        )
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    d_idx, sv_idx = graph.unobserved_pairs(domains)
    scores = edge_probabilities(mu, d_idx, sv_idx)
    best = np.lexsort((sv_idx, d_idx, -scores))[:top_k]
    return [
        {
            "domain_label": graph.nodes[d_idx[k]].label,
            "slotvalue_label": graph.nodes[sv_idx[k]].label,
            "probability": float(scores[k]),
            "rank": rank,
        }
        for rank, k in enumerate(best, start=1)
    ]
