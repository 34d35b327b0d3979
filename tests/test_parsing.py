import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dstgraph.dialogue import DialogueState, Speaker, StateTriple, Turn
from dstgraph.metrics import TurnPair, slot_f1
from dstgraph.parsing import (
    JUNK_TOKENS,
    MAX_ERROR_SAMPLES,
    Diagnostic,
    DiagnosticKind,
    ErrorTally,
    classify_errors,
    format_state,
    merge_error_reports,
    parse_state,
)

from conftest import make_state, make_triple


def triples_of(text: str) -> set[tuple[str, str, str]]:
    out = parse_state(text)
    return {(t.domain, t.slot, t.value) for t in out.state}


def test_parse_single_triple():
    text = "Domain : [`General'] , Slot : [`hobby'] , Value : [`canning or whittling']"
    out = parse_state(text)
    assert not out.failed
    assert triples_of(text) == {("general", "hobby", "canning or whittling")}


def test_parse_without_commas_between_labels():
    text = "Domain : [`Restaurant'] Slot : [`food'] Value : [`prime rib']"
    assert triples_of(text) == {("restaurant", "food", "prime rib")}


def test_parse_singleton_domain_broadcasts():
    text = "Domain : [`General'] Slot : [`plan', `activity'] Value : [`canning', `NONE']"
    out = parse_state(text)
    assert {(t.domain, t.slot, t.value) for t in out.state} == {
        ("general", "plan", "canning"),
        ("general", "activity", "none"),
    }
    assert out.state.get("general", "activity").is_none
    assert out.diagnostics == ()


def test_parse_multiword_value_keeps_case_folded_text():
    text = "Domain : [`General'] Slot : [`topic'] Value : [`Game of Thrones']"
    assert triples_of(text) == {("general", "topic", "game of thrones")}


def test_parse_internal_apostrophe_survives():
    text = "Domain : [`restaurant'] , Slot : [`name'] , Value : [`peter's diner']"
    assert triples_of(text) == {("restaurant", "name", "peter's diner")}


def test_parse_double_quoted_items():
    text = 'Domain : ["hotel"] , Slot : ["area"] , Value : ["east"]'
    assert triples_of(text) == {("hotel", "area", "east")}


def test_parse_unquoted_items():
    text = "Domain : [hotel] , Slot : [area] , Value : [east]"
    assert triples_of(text) == {("hotel", "area", "east")}


def test_parse_last_restatement_wins():
    text = (
        "The format is Domain : [`x'] , Slot : [`y'] , Value : [`z']. "
        "Domain : [`hotel'] , Slot : [`area'] , Value : [`east']"
    )
    assert triples_of(text) == {("hotel", "area", "east")}


def test_parse_plural_labels_accepted():
    text = "Domains : [`hotel'] , Slots : [`area'] , Values : [`east']"
    assert triples_of(text) == {("hotel", "area", "east")}


def test_parse_empty_lists_yield_empty_state():
    out = parse_state("Domain : [] , Slot : [] , Value : []")
    assert not out.failed
    assert len(out.state) == 0
    assert out.diagnostics == ()


def test_parse_failure_on_freeform_text():
    out = parse_state("I could not find any dialogue state to report, sorry!")
    assert out.failed
    assert len(out.state) == 0
    assert out.diagnostics[0].kind is DiagnosticKind.PARSE_FAILURE


def test_parse_failure_lists_missing_labels():
    out = parse_state("Domain : [`hotel']")
    assert out.failed
    assert "slot" in out.diagnostics[0].detail
    assert "value" in out.diagnostics[0].detail


def test_parse_length_mismatch_zips_to_shortest():
    text = "Domain : [`a', `b'] , Slot : [`s1', `s2'] , Value : [`v1']"
    out = parse_state(text)
    kinds = [d.kind for d in out.diagnostics]
    assert DiagnosticKind.LIST_LENGTH_MISMATCH in kinds
    assert {(t.domain, t.slot, t.value) for t in out.state} == {("a", "s1", "v1")}


def test_parse_domain_count_mismatch_reported():
    text = "Domain : [`a', `b', `c'] , Slot : [`s1', `s2'] , Value : [`v1', `v2']"
    out = parse_state(text)
    assert any(d.kind is DiagnosticKind.LIST_LENGTH_MISMATCH for d in out.diagnostics)
    assert {(t.domain, t.slot, t.value) for t in out.state} == {
        ("a", "s1", "v1"),
        ("b", "s2", "v2"),
    }


def test_parse_empty_value_skipped_with_diagnostic():
    text = "Domain : [`a', `a'] , Slot : [`s1', `s2'] , Value : [`', `v2']"
    out = parse_state(text)
    assert any(d.kind is DiagnosticKind.EMPTY_FIELD for d in out.diagnostics)
    assert {(t.domain, t.slot, t.value) for t in out.state} == {("a", "s2", "v2")}


def test_format_state_canonical_and_sorted():
    s = make_state(("hotel", "area", "east"), ("attraction", "type", "museum"))
    assert format_state(s) == (
        "Domain : [`attraction', `hotel'] , Slot : [`type', `area'] , "
        "Value : [`museum', `east']"
    )


def test_format_empty_state():
    assert format_state(DialogueState()) == "Domain : [] , Slot : [] , Value : []"


_word = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), max_codepoint=0x7F),
    min_size=1,
    max_size=8,
).filter(lambda s: s.strip("`'\",") == s)


@given(
    st.lists(
        st.tuples(_word, _word, _word).map(
            lambda t: StateTriple(domain=t[0], slot=t[1], value=t[2])
        ),
        max_size=8,
    )
)
def test_format_parse_round_trip(triples):
    state = DialogueState(triples)
    out = parse_state(format_state(state))
    assert not out.failed
    assert out.state == state


# --- error taxonomy ---


def _turns(*texts):
    return [Turn(speaker=Speaker.USER, text=t) for t in texts]


def test_classify_junk_placeholder_is_nonexistent():
    rep = classify_errors(
        make_state(("restaurant", "name", "XXXXX")), make_state()
    )
    assert rep.nonexistent_value_count == 1
    assert rep.total_errors == 1
    assert rep.samples[0]["kind"] == "nonexistent_value"


def test_classify_punctuation_only_is_nonexistent():
    rep = classify_errors(make_state(("taxi", "destination", "...")), make_state())
    assert rep.nonexistent_value_count == 1


def test_classify_repeated_char_is_nonexistent():
    rep = classify_errors(make_state(("taxi", "destination", "aaaa")), make_state())
    assert rep.nonexistent_value_count == 1


def test_classify_ungrounded_value_is_nonexistent():
    rep = classify_errors(
        make_state(("attraction", "area", "general")),
        make_state(("attraction", "area", "centre")),
        turns=_turns("find me a museum in the centre"),
    )
    assert rep.nonexistent_value_count == 1
    assert rep.synonym_count == 0


def test_classify_surface_variant_is_synonym():
    rep = classify_errors(
        make_state(("hotel", "nights", "5 nights")),
        make_state(("hotel", "nights", "5")),
        turns=_turns("i will stay for 5 nights"),
    )
    assert rep.synonym_count == 1
    assert rep.nonexistent_value_count == 0
    assert rep.samples[0] == {
        "kind": "synonym",
        "domain": "hotel",
        "slot": "nights",
        "predicted": "5 nights",
        "gold": "5",
    }


def test_classify_synonym_without_turns():
    # no dialogue text: the substring rule must not fire
    rep = classify_errors(
        make_state(("hotel", "nights", "5 nights")),
        make_state(("hotel", "nights", "5")),
    )
    assert rep.synonym_count == 1
    assert rep.nonexistent_value_count == 0


def test_classify_grounded_disagreement_is_unclassified():
    rep = classify_errors(
        make_state(("hotel", "area", "north")),
        make_state(("hotel", "area", "east")),
        turns=_turns("a hotel in the north or east"),
    )
    assert rep.total_errors == 1
    assert rep.nonexistent_value_count == 0
    assert rep.synonym_count == 0
    assert rep.samples[0]["kind"] == "unclassified"


def test_classify_correct_and_none_triples_not_errors():
    pred = make_state(("hotel", "area", "east"), ("hotel", "name", "none"))
    gold = make_state(("hotel", "area", "east"))
    rep = classify_errors(pred, gold, turns=_turns("hotel in the east"))
    assert rep.total_errors == 0
    assert rep.samples == ()


def test_classify_missing_gold_keys_are_not_counted():
    # recall misses are not wrong predicted values
    rep = classify_errors(
        make_state(),
        make_state(("hotel", "area", "east")),
        turns=_turns("hotel in the east"),
    )
    assert rep.total_errors == 0


def test_default_junk_tokens_include_placeholders():
    assert {"unknown", "null", "placeholder"} <= set(JUNK_TOKENS)


def test_merge_error_reports_sums_and_caps_samples():
    one = classify_errors(make_state(("a", "s", "xxx")), make_state())
    merged = merge_error_reports([one] * 30)
    assert merged.nonexistent_value_count == 30
    assert merged.total_errors == 30
    assert len(merged.samples) == MAX_ERROR_SAMPLES == 20


def test_error_tally_keeps_the_samples_of_the_first_keys_whatever_the_order():
    # each turn's report has a few wrong values; added shuffled, the tally
    # keeps what merging them in key order keeps
    reports = {
        (dialogue, turn): classify_errors(
            make_state(*((dialogue, f"s{k}", f"v{turn}") for k in range(turn % 4))),
            make_state(),
        )
        for dialogue in ("a", "b", "c")
        for turn in range(6)
    }
    keys = list(reports)
    random.Random(7).shuffle(keys)
    tally = ErrorTally()
    for key in keys:
        tally.add(key, reports[key])
    assert tally.report() == merge_error_reports(reports[k] for k in sorted(reports))
    assert len(tally.report().samples) == MAX_ERROR_SAMPLES


def reference_wrong_values(pred, gold):
    """(triple, gold value) of each wrong prediction, iterating both states
    in sorted order as before the unsorted dict views."""
    gold_real = {t.key: t.value for t in gold if not t.is_none}
    wrong = []
    for t in pred:
        if t.is_none:
            continue
        if t.key not in gold_real:
            wrong.append((t, None))
        elif gold_real[t.key] != t.value:
            wrong.append((t, gold_real[t.key]))
    return wrong


_few_keys = st.builds(
    StateTriple,
    domain=st.sampled_from(["hotel", "Taxi", "a b"]),
    slot=st.sampled_from(["area", "day", "b"]),
    value=st.sampled_from(["east", "west", "none", "NONE", "xxx", "monday"]),
)


@given(st.lists(_few_keys, max_size=9), st.lists(_few_keys, max_size=9))
def test_classify_samples_follow_sorted_prediction_order(pred, gold):
    pred, gold = DialogueState(pred), DialogueState(gold)
    rep = classify_errors(pred, gold)
    expected = reference_wrong_values(pred, gold)
    assert rep.total_errors == len(expected)
    assert [(s["domain"], s["slot"], s["predicted"], s["gold"]) for s in rep.samples] == [
        (t.domain, t.slot, t.value, g) for t, g in expected
    ]


# case variants of each field, and both spellings of the NONE sentinel
_cased = st.builds(
    StateTriple,
    domain=st.sampled_from(["hotel", "Hotel", "taxi"]),
    slot=st.sampled_from(["area", "AREA ", "day"]),
    value=st.sampled_from(["east", "East", "none", "NONE", "monday"]),
)
_turn_sets = st.lists(
    st.tuples(st.lists(_cased, max_size=6), st.lists(_cased, max_size=6)),
    min_size=1,
    max_size=6,
)


@given(_turn_sets)
def test_classified_errors_are_slot_f1_false_positives(turns):
    pairs = [TurnPair(DialogueState(p), DialogueState(g)) for p, g in turns]
    tp = fp = 0
    for pair in pairs:
        # an independent reference: the sets of non-NONE triples
        pred = {(t.domain, t.slot, t.value) for t in pair.predicted if not t.is_none}
        gold = {(t.domain, t.slot, t.value) for t in pair.gold if not t.is_none}
        tp += len(pred & gold)
        fp += len(pred - gold)
    assert sum(classify_errors(p.predicted, p.gold).total_errors for p in pairs) == fp
    if tp + fp:
        assert slot_f1(pairs).precision == tp / (tp + fp)
