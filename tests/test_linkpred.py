import numpy as np
import pytest

from dstgraph.graph import NodeKind, split_edges
from dstgraph.linkpred import (
    auc,
    average_precision,
    evaluate_split,
    mean_embeddings,
    rank_candidates,
)
from dstgraph.vgae import TrainConfig, glorot_init, train

from conftest import random_bipartite_graph


# --- independent oracles, used again by the acceptance gate ---


def pairwise_auc(scores, labels):
    """Brute-force Mann-Whitney: count positive/negative pairs directly."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def rank_walk_ap(scores, labels):
    """AP by walking the stable descending order and averaging precision."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    acc = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i]:
            hits += 1
            acc += hits / rank
    return acc / hits


# --- metric hand values ---


def test_auc_hand_example():
    scores = [0.9, 0.4, 0.35, 0.3]
    labels = [True, False, True, False]
    # positive 0.9 beats both negatives; positive 0.35 beats only 0.3
    assert auc(scores, labels) == pytest.approx(0.75, abs=1e-15)


def test_auc_all_tied_is_half():
    assert auc([0.5, 0.5, 0.5, 0.5], [True, True, False, False]) == 0.5


def test_auc_perfect_and_inverted():
    assert auc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0
    assert auc([0.9, 0.8, 0.2, 0.1], [False, False, True, True]) == 0.0


def test_auc_requires_both_classes():
    with pytest.raises(ValueError):
        auc([0.5, 0.6], [True, True])
    with pytest.raises(ValueError):
        auc([0.5, 0.6], [False, False])
    with pytest.raises(ValueError):
        auc([0.5], [True, False])


def test_average_precision_hand_example():
    # order: pos(1), neg(2), pos(3) -> (1/1 + 2/3) / 2
    got = average_precision([0.9, 0.5, 0.3], [True, False, True])
    assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-15)


def test_average_precision_single_positive_ranked_last():
    n = 7
    scores = [1.0 - 0.1 * i for i in range(n)]
    labels = [False] * (n - 1) + [True]
    assert average_precision(scores, labels) == pytest.approx(1.0 / n, abs=1e-15)


def test_average_precision_requires_a_positive():
    with pytest.raises(ValueError):
        average_precision([0.4, 0.2], [False, False])


def test_auc_matches_brute_force_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(2, 40))
        scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.9], size=n).tolist()
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            continue
        labels = labels.tolist()
        assert auc(scores, labels) == pairwise_auc(scores, labels)


def test_average_precision_matches_rank_walk_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(1, 40))
        scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.9], size=n).tolist()
        labels = rng.random(n) < 0.5
        if not labels.any():
            labels[int(rng.integers(0, n))] = True
        labels = labels.tolist()
        assert average_precision(scores, labels) == rank_walk_ap(scores, labels)


# --- split evaluation ---


def test_evaluate_split_keys_and_determinism(rng):
    g = random_bipartite_graph(rng, 3, 12, 0.4)
    split = split_edges(g, 0.85, 0.10, 0.05, seed=7)
    cfg = TrainConfig(hidden_dim=8, latent_dim=4, epochs=30, seed=7)
    params, _ = train(g, split, cfg)
    r1 = evaluate_split(params, g, split)
    r2 = evaluate_split(params, g, split)
    assert set(r1) == {"auc", "ap"}
    assert r1 == r2
    assert 0.0 <= r1["auc"] <= 1.0
    assert 0.0 <= r1["ap"] <= 1.0


def test_evaluate_split_needs_test_edges(rng):
    g = random_bipartite_graph(rng, 3, 12, 0.4)
    split = split_edges(g, 0.85, 0.10, 0.05, seed=7)
    empty = type(split)(
        train=split.train + split.test,
        val=split.val,
        test=(),
        neg_val=split.neg_val,
        neg_test=(),
    )
    cfg = TrainConfig(hidden_dim=8, latent_dim=4, epochs=5)
    params, _ = train(g, split, cfg)
    with pytest.raises(ValueError):
        evaluate_split(params, g, empty)


# --- candidate ranking ---


def indices_of(g, kind):
    """Label -> node index for the nodes of one kind."""
    return {n.label: n.index for n in g.nodes if n.kind is kind}


def pair_indices(g, rec):
    """The (domain, slot-value) node indices a candidate record names."""
    return (
        indices_of(g, NodeKind.DOMAIN)[rec["domain_label"]],
        indices_of(g, NodeKind.SLOT_VALUE)[rec["slotvalue_label"]],
    )


def ranked_fixture(rng, top_k=6):
    g = random_bipartite_graph(rng, 3, 12, 0.4)
    split = split_edges(g, 0.85, 0.10, 0.05, seed=2)
    cfg = TrainConfig(hidden_dim=8, latent_dim=4, epochs=30, seed=2)
    params, _ = train(g, split, cfg)
    domains = sorted(indices_of(g, NodeKind.DOMAIN).values())
    ranked = rank_candidates(mean_embeddings(params, g), g, domains[:2], top_k=top_k)
    return g, ranked


def test_rank_candidates_excludes_observed_edges(rng):
    g, ranked = ranked_fixture(rng)
    assert ranked
    for rec in ranked:
        d, sv = pair_indices(g, rec)
        key = (d, sv) if d < sv else (sv, d)
        assert key not in g.edges


def test_rank_candidates_ordering_and_bound(rng):
    g, ranked = ranked_fixture(rng, top_k=4)
    assert len(ranked) <= 4
    keys = [(-rec["probability"], *pair_indices(g, rec)) for rec in ranked]
    assert keys == sorted(keys)


def test_rank_candidates_probabilities_lie_strictly_inside_unit_interval(rng):
    g, ranked = ranked_fixture(rng, top_k=50)
    assert ranked
    assert all(0.0 < rec["probability"] < 1.0 for rec in ranked)
    # saturated embeddings still score inside (0, 1)
    domains = sorted(indices_of(g, NodeKind.DOMAIN).values())
    for scale in (1e3, -1e3):
        mu = np.full((g.n_nodes, 4), scale)
        mu[domains] = 1e3
        ranked = rank_candidates(mu, g, domains, top_k=g.n_nodes)
        assert all(0.0 < rec["probability"] < 1.0 for rec in ranked)


def test_rank_candidates_rejects_slotvalue_index(rng):
    g = random_bipartite_graph(rng, 3, 12, 0.4)
    mu = np.zeros((g.n_nodes, 4))
    domain = min(indices_of(g, NodeKind.DOMAIN).values())
    sv = min(indices_of(g, NodeKind.SLOT_VALUE).values())
    for domains in ([sv], sorted([domain, sv])):
        with pytest.raises(ValueError, match="domain node indices"):
            rank_candidates(mu, g, domains, top_k=5)


def test_rank_candidates_validates_arguments(rng):
    g = random_bipartite_graph(rng, 3, 12, 0.4)
    split = split_edges(g, 0.85, 0.10, 0.05, seed=2)
    cfg = TrainConfig(hidden_dim=8, latent_dim=4, epochs=5)
    params, _ = train(g, split, cfg)
    mu = mean_embeddings(params, g)
    domains = sorted(indices_of(g, NodeKind.DOMAIN).values())
    with pytest.raises(ValueError):
        rank_candidates(mu, g, [], top_k=5)
    with pytest.raises(ValueError):
        rank_candidates(mu, g, domains[:1], top_k=0)
    # unsorted, repeated or out-of-range indices
    for bad in (domains[::-1], domains[:1] * 2, [-1], [g.n_nodes]):
        with pytest.raises(ValueError):
            rank_candidates(mu, g, bad, top_k=5)


def test_rank_candidates_ties_resolve_by_domain_then_slotvalue_index(rng):
    # all-zero embeddings score every pair 0.5, so only the tie-break orders
    g = random_bipartite_graph(rng, 3, 12, 0.4)
    domains = sorted(n.index for n in g.nodes if n.kind is NodeKind.DOMAIN)
    svs = sorted(n.index for n in g.nodes if n.kind is NodeKind.SLOT_VALUE)
    non_edges = [
        (d, sv) for d in domains for sv in svs if (min(d, sv), max(d, sv)) not in g.edges
    ]
    mu = np.zeros((g.n_nodes, 4))
    ranked = rank_candidates(mu, g, domains, top_k=10)
    assert [pair_indices(g, rec) for rec in ranked] == non_edges[:10]
    # with top_k past the candidate count the whole list is every non-edge
    ranked = rank_candidates(mu, g, domains, top_k=len(non_edges) + 5)
    assert [pair_indices(g, rec) for rec in ranked] == non_edges
    assert all(rec["probability"] == 0.5 for rec in ranked)


def test_candidate_records_schema(rng):
    g, ranked = ranked_fixture(rng, top_k=3)
    assert [rec["rank"] for rec in ranked] == list(range(1, len(ranked) + 1))
    labels = {n.label: n.kind for n in g.nodes}
    for rec in ranked:
        assert list(rec) == ["domain_label", "slotvalue_label", "probability", "rank"]
        assert labels[rec["domain_label"]] is NodeKind.DOMAIN
        assert labels[rec["slotvalue_label"]] is NodeKind.SLOT_VALUE
        assert type(rec["probability"]) is float
