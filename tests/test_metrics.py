import numpy as np
import pytest

from dstgraph.dialogue import DialogueState
from dstgraph.metrics import PrfScore, TurnPair, jga, per_domain_f1, slot_accuracy, slot_f1

from conftest import make_state, random_states


def pair(pred, gold) -> TurnPair:
    return TurnPair(predicted=pred, gold=gold)


def test_jga_exact_match_only():
    gold = make_state(("hotel", "area", "east"), ("hotel", "stars", "4"))
    same = make_state(("hotel", "stars", "4"), ("hotel", "area", "east"))
    sub = make_state(("hotel", "area", "east"))
    over = make_state(
        ("hotel", "area", "east"), ("hotel", "stars", "4"), ("taxi", "day", "monday")
    )
    assert jga([pair(same, gold)]) == 1.0
    assert jga([pair(sub, gold)]) == 0.0
    assert jga([pair(over, gold)]) == 0.0
    assert jga([pair(same, gold), pair(sub, gold)]) == 0.5


def test_jga_ignores_none_triples():
    gold = make_state(("hotel", "area", "east"))
    pred = make_state(("hotel", "area", "east"), ("hotel", "name", "none"))
    assert jga([pair(pred, gold)]) == 1.0


def test_jga_empty_sequence_rejected():
    with pytest.raises(ValueError):
        jga([])


def test_slot_f1_hand_case():
    # tp=1 (area), fp=1 (food), fn=1 (stars)
    gold = make_state(("hotel", "area", "east"), ("hotel", "stars", "4"))
    pred = make_state(("hotel", "area", "east"), ("restaurant", "food", "thai"))
    score = slot_f1([pair(pred, gold)])
    assert score.precision == 0.5
    assert score.recall == 0.5
    assert score.f1 == 0.5


def test_slot_f1_micro_pools_over_turns():
    gold1 = make_state(("hotel", "area", "east"))
    gold2 = make_state(("hotel", "stars", "4"), ("hotel", "area", "east"))
    pred1 = make_state(("hotel", "area", "east"))
    pred2 = make_state(("hotel", "stars", "4"))
    score = slot_f1([pair(pred1, gold1), pair(pred2, gold2)])
    # tp=2, fp=0, fn=1 pooled
    assert score.precision == 1.0
    assert score.recall == 2 / 3
    assert score.f1 == pytest.approx(0.8)


def test_slot_f1_both_empty_is_perfect():
    score = slot_f1([pair(DialogueState(), DialogueState())])
    assert score == PrfScore(precision=1.0, recall=1.0, f1=1.0)


def test_slot_f1_empty_prediction_zero_precision_convention():
    gold = make_state(("hotel", "area", "east"))
    score = slot_f1([pair(DialogueState(), gold)])
    assert score.precision == 0.0
    assert score.recall == 0.0
    assert score.f1 == 0.0


def test_slot_accuracy_gold_keyed():
    gold = make_state(("hotel", "area", "east"), ("hotel", "stars", "4"))
    pred = make_state(
        ("hotel", "area", "east"),
        ("hotel", "stars", "5"),
        ("taxi", "day", "monday"),  # predicted-only keys never enter
    )
    assert slot_accuracy([pair(pred, gold)]) == 0.5


def test_slot_accuracy_requires_gold_triples():
    with pytest.raises(ValueError):
        slot_accuracy([pair(make_state(("a", "s", "v")), DialogueState())])


def test_per_domain_f1_partitions_by_domain():
    gold = make_state(("hotel", "area", "east"), ("restaurant", "food", "thai"))
    pred = make_state(("hotel", "area", "east"), ("restaurant", "food", "pizza"))
    scores = per_domain_f1([pair(pred, gold)])
    assert scores["hotel"].f1 == 1.0
    assert scores["restaurant"].f1 == 0.0
    assert set(scores) == {"hotel", "restaurant"}


# --- oracle equivalence on randomized turn sets ---


def oracle_scores(pairs):
    """Set-arithmetic reference for all three metrics, written independently."""
    joint = 0
    tp = fp = fn = 0
    gold_total = gold_correct = 0
    for p in pairs:
        ps = {(t.domain, t.slot, t.value) for t in p.predicted if not t.is_none}
        gs = {(t.domain, t.slot, t.value) for t in p.gold if not t.is_none}
        joint += int(ps == gs)
        tp += len(ps & gs)
        fp += len(ps - gs)
        fn += len(gs - ps)
        pd = {(d, s): v for d, s, v in ps}
        for d, s, v in gs:
            gold_total += 1
            gold_correct += int(pd.get((d, s)) == v)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    if tp == 0 and fp == 0 and fn == 0:
        prec = rec = 1.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return {
        "jga": joint / len(pairs),
        "precision": prec,
        "recall": rec,
        "f1": f1,
        "accuracy": (gold_correct / gold_total) if gold_total else None,
    }


def test_metrics_match_oracle_on_random_turn_sets(rng):
    for trial in range(50):
        n = int(rng.integers(1, 12))
        preds = random_states(rng, n)
        golds = random_states(rng, n)
        pairs = [pair(p, g) for p, g in zip(preds, golds)]
        want = oracle_scores(pairs)
        assert jga(pairs) == want["jga"]
        got = slot_f1(pairs)
        assert got.precision == want["precision"]
        assert got.recall == want["recall"]
        assert got.f1 == want["f1"]
        if want["accuracy"] is None:
            with pytest.raises(ValueError):
                slot_accuracy(pairs)
        else:
            assert slot_accuracy(pairs) == want["accuracy"]





def test_jga_builds_no_triple_set_and_equals_set_reference(rng, monkeypatch):
    from dstgraph import dialogue

    turns = [pair(p, g) for p, g in zip(random_states(rng, 200), random_states(rng, 200))]
    turns += [pair(t.gold, t.gold) for t in turns[:50]]  # exact hits
    # the frozenset definition jga replaced, NONE triples stripped
    want = sum(
        frozenset(x for x in t.predicted.unordered() if not x.is_none)
        == frozenset(x for x in t.gold.unordered() if not x.is_none)
        for t in turns
    ) / len(turns)
    built = []
    monkeypatch.setattr(
        dialogue, "frozenset", lambda items: built.append(1) or frozenset(items), raising=False
    )
    assert 0.0 < want < 1.0
    assert jga(turns) == want
    assert built == []
