"""Link-prediction evaluation: test-split AUC and average precision, and
the ranked next-state candidates at a dialogue's domains.

Evaluation always uses mean embeddings (Z = mu, no sampling), so results
are deterministic given trained parameters and a split.  Posterior means
are computed once per (checkpoint, graph), encoding a propagation operator
built here from the graph's edge array, and every pair, held-out or
candidate, is scored by the one vectorised scorer `edge_probabilities`.
One `CandidateRanker` serves a whole `predict` run or `repl` session: it
scores each distinct domain's candidates once per run, and then each
dialogue costs a merge of at most k kept entries per domain.  Candidates
come back as plain records, the one form that `predict` writes and `repl`
prints.  The AUC and AP themselves live in `vgae`, beside the scorer.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .graph import EdgeSplit, NodeKind, StateGraph
from .vgae import (
    Propagation,
    VgaeParams,
    auc,
    average_precision,
    edge_probabilities,
    encode,
    held_out_scores,
)


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


class CandidateRanker:
    """Top-k unobserved (Domain, SlotValue) pairs at a dialogue's domains,
    for every dialogue of a `predict` run or a `repl` session.

    ``mu`` holds the posterior means over the full observed adjacency
    (`mean_embeddings`).  A pair's score does not depend on the dialogue,
    so a domain's non-edges are scored once, by `edge_probabilities`, the
    first time a dialogue names the domain, and only its ``top_k`` best are
    kept, by descending probability then slot-value index: at most
    ``top_k`` entries per domain seen.  A dialogue's candidates are then a
    merge of its domains' kept lists.
    """

    def __init__(self, mu: np.ndarray, graph: StateGraph, top_k: int):
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        self.mu = mu
        self.graph = graph
        self.top_k = top_k
        # domain index -> (-probability, domain, slot-value) of its kept
        # candidates, ascending
        self._kept: dict[int, list[tuple[float, int, int]]] = {}

    def _domain_best(self, d: int) -> list[tuple[float, int, int]]:
        kept = self._kept.get(d)
        if kept is None:
            d_idx, sv_idx = self.graph.unobserved_pairs([d])
            scores = edge_probabilities(self.mu, d_idx, sv_idx)
            # stable, so ties keep the slot values' node order
            best = np.argsort(-scores, kind="stable")[: self.top_k]
            kept = self._kept[d] = [
                (-p, int(d), sv) for p, sv in zip(scores[best].tolist(), sv_idx[best].tolist())
            ]
        return kept

    def rank(self, domains: Sequence[int]) -> list[dict]:
        """Candidates at ``domains``, the sorted, distinct indices of a
        dialogue's Domain nodes (`dialogue_domains`): the graph's non-edges
        at those domains, as records ``{domain_label, slotvalue_label,
        probability, rank}`` with 1-based rank, sorted by descending
        probability; ties resolve by domain index, then slot-value index.
        """
        graph = self.graph
        if not domains:
            raise ValueError("domains must be non-empty")
        if list(domains) != sorted(set(domains)) or any(
            not 0 <= d < graph.n_nodes or graph.nodes[d].kind is not NodeKind.DOMAIN
            for d in domains
        ):
            raise ValueError(
                f"domains must be sorted distinct domain node indices, got {domains}"
            )
        merged = sorted(chain.from_iterable(self._domain_best(d) for d in domains))
        return [
            {
                "domain_label": graph.nodes[d].label,
                "slotvalue_label": graph.nodes[sv].label,
                "probability": -neg_p,
                "rank": rank,
            }
            for rank, (neg_p, d, sv) in enumerate(merged[: self.top_k], start=1)
        ]
