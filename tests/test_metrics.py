import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dstgraph.dialogue import DialogueState, StateTriple
from dstgraph.metrics import PrfScore, TrackingCounts, per_domain_f1

from conftest import make_state, random_states, tracking_counts

# Each turn is a (predicted, gold) pair of states; `tracking_counts` adds
# their key→value maps to one `TrackingCounts`, as `evaluate` does.


def test_jga_exact_match_only():
    gold = make_state(("hotel", "area", "east"), ("hotel", "stars", "4"))
    same = make_state(("hotel", "stars", "4"), ("hotel", "area", "east"))
    sub = make_state(("hotel", "area", "east"))
    over = make_state(
        ("hotel", "area", "east"), ("hotel", "stars", "4"), ("taxi", "day", "monday")
    )
    assert tracking_counts([(same, gold)]).jga() == 1.0
    assert tracking_counts([(sub, gold)]).jga() == 0.0
    assert tracking_counts([(over, gold)]).jga() == 0.0
    assert tracking_counts([(same, gold), (sub, gold)]).jga() == 0.5


def test_jga_ignores_none_triples():
    gold = make_state(("hotel", "area", "east"))
    pred = make_state(("hotel", "area", "east"), ("hotel", "name", "none"))
    assert tracking_counts([(pred, gold)]).jga() == 1.0


def test_jga_empty_sequence_rejected():
    with pytest.raises(ValueError, match="jga needs at least one turn"):
        TrackingCounts().jga()
    with pytest.raises(ValueError, match="slot_f1 needs at least one turn"):
        TrackingCounts().slot_f1()
    with pytest.raises(ValueError, match="slot_accuracy needs at least one turn"):
        TrackingCounts().slot_accuracy()


def test_slot_f1_hand_case():
    # tp=1 (area), fp=1 (food), fn=1 (stars)
    gold = make_state(("hotel", "area", "east"), ("hotel", "stars", "4"))
    pred = make_state(("hotel", "area", "east"), ("restaurant", "food", "thai"))
    score = tracking_counts([(pred, gold)]).slot_f1()
    assert score.precision == 0.5
    assert score.recall == 0.5
    assert score.f1 == 0.5


def test_slot_f1_micro_pools_over_turns():
    gold1 = make_state(("hotel", "area", "east"))
    gold2 = make_state(("hotel", "stars", "4"), ("hotel", "area", "east"))
    pred1 = make_state(("hotel", "area", "east"))
    pred2 = make_state(("hotel", "stars", "4"))
    score = tracking_counts([(pred1, gold1), (pred2, gold2)]).slot_f1()
    # tp=2, fp=0, fn=1 pooled
    assert score.precision == 1.0
    assert score.recall == 2 / 3
    assert score.f1 == pytest.approx(0.8)


def test_slot_f1_both_empty_is_perfect():
    score = tracking_counts([(DialogueState(), DialogueState())]).slot_f1()
    assert score == PrfScore(precision=1.0, recall=1.0, f1=1.0)


def test_slot_f1_empty_prediction_zero_precision_convention():
    gold = make_state(("hotel", "area", "east"))
    score = tracking_counts([(DialogueState(), gold)]).slot_f1()
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
    assert tracking_counts([(pred, gold)]).slot_accuracy() == 0.5


def test_slot_accuracy_requires_gold_triples():
    counts = tracking_counts([(make_state(("a", "s", "v")), DialogueState())])
    with pytest.raises(ValueError, match="slot_accuracy needs at least one gold triple"):
        counts.slot_accuracy()


def test_per_domain_f1_partitions_by_domain():
    gold = make_state(("hotel", "area", "east"), ("restaurant", "food", "thai"))
    pred = make_state(("hotel", "area", "east"), ("restaurant", "food", "pizza"))
    scores = per_domain_f1([(pred.value_by_key(), gold.value_by_key())])
    assert scores["hotel"].f1 == 1.0
    assert scores["restaurant"].f1 == 0.0
    assert set(scores) == {"hotel", "restaurant"}


# --- oracle equivalence on randomized turn sets ---


def oracle_scores(pairs):
    """Set-arithmetic reference for all three metrics, written independently."""
    joint = 0
    tp = fp = fn = 0
    gold_total = gold_correct = 0
    for pred, gold in pairs:
        ps = {(t.domain, t.slot, t.value) for t in pred if not t.is_none}
        gs = {(t.domain, t.slot, t.value) for t in gold if not t.is_none}
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
        pairs = list(zip(preds, golds))
        want = oracle_scores(pairs)
        counts = tracking_counts(pairs)
        assert counts.jga() == want["jga"]
        got = counts.slot_f1()
        assert got.precision == want["precision"]
        assert got.recall == want["recall"]
        assert got.f1 == want["f1"]
        if want["accuracy"] is None:
            with pytest.raises(ValueError):
                counts.slot_accuracy()
        else:
            assert counts.slot_accuracy() == want["accuracy"]


# few distinct keys, so right, wrong, missing and NONE values all occur
_few_keys = st.builds(
    StateTriple,
    domain=st.sampled_from(["hotel", "taxi"]),
    slot=st.sampled_from(["area", "day", "stars"]),
    value=st.sampled_from(["east", "west", "none", "monday"]),
)
_turn_sets = st.lists(
    st.tuples(st.lists(_few_keys, max_size=6), st.lists(_few_keys, max_size=6)),
    min_size=1,
    max_size=8,
)


@given(_turn_sets)
def test_slot_accuracy_is_slot_f1_recall(turns):
    pairs = [(DialogueState(p), DialogueState(g)) for p, g in turns]
    assume(any(not t.is_none for _, gold in pairs for t in gold))
    counts = tracking_counts(pairs)
    assert counts.slot_accuracy().hex() == counts.slot_f1().recall.hex()


def test_jga_builds_no_triple_set_and_equals_set_reference(rng, monkeypatch):
    from dstgraph import dialogue

    turns = list(zip(random_states(rng, 200), random_states(rng, 200)))
    turns += [(gold, gold) for _, gold in turns[:50]]  # exact hits
    # the frozenset definition jga replaced, NONE triples stripped
    want = sum(
        frozenset(x for x in pred.unordered() if not x.is_none)
        == frozenset(x for x in gold.unordered() if not x.is_none)
        for pred, gold in turns
    ) / len(turns)
    built = []
    monkeypatch.setattr(
        dialogue, "frozenset", lambda items: built.append(1) or frozenset(items), raising=False
    )
    assert 0.0 < want < 1.0
    assert tracking_counts(turns).jga() == want
    assert built == []
