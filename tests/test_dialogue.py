import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dstgraph.dialogue import (
    NONE_VALUE,
    DialogueContext,
    DialogueState,
    Speaker,
    StateTriple,
    Turn,
    accumulate_state,
    append_turn,
    normalize_text,
    serialize_context,
    state_triple,
)

from conftest import make_state, make_triple


def test_normalize_text_collapses_case_and_whitespace():
    assert normalize_text("  Hotel   East\t") == "hotel east"
    assert normalize_text("CAFE") == "cafe"
    assert normalize_text("a\nb") == "a b"
    assert normalize_text("") == ""


def test_turn_render_prefixes_speaker():
    assert Turn(speaker=Speaker.USER, text="hi").render() == "USER: hi"
    assert Turn(speaker=Speaker.SYSTEM, text="hello").render() == "SYSTEM: hello"


def test_turn_rejects_empty_text():
    with pytest.raises(ValueError):
        Turn(speaker=Speaker.USER, text="   ")


def test_turn_flattens_newlines():
    t = Turn(speaker=Speaker.USER, text="line one\nline two")
    assert t.text == "line one line two"


def collapse_by_regex(s: str) -> str:
    """The reference whitespace collapse: trim, then one space per run."""
    return re.sub(r"\s+", " ", s.strip())


_ALL_CHARS = [chr(c) for c in range(sys.maxunicode + 1)]
_WHITESPACE = [c for c in _ALL_CHARS if c.isspace()]


def test_split_and_regex_agree_on_what_whitespace_is():
    # str.split() breaks at the isspace() code points; the regex's \s
    # must match exactly those, so both collapse forms cut at the same places
    space = re.compile(r"\s")
    assert [c for c in _ALL_CHARS if space.match(c)] == _WHITESPACE
    assert len(_WHITESPACE) == 29
    for c in _WHITESPACE:
        text = f"{c}a{c}{c}b{c}"
        assert Turn(speaker=Speaker.USER, text=text).text == collapse_by_regex(text)
        assert normalize_text(text) == collapse_by_regex(text).casefold() == "a b"


@given(st.one_of(st.text(), st.text(alphabet=st.sampled_from([*_WHITESPACE, "a", "B"]))))
def test_turn_text_matches_the_regex_collapse(text):
    expected = collapse_by_regex(text)
    if not expected:
        with pytest.raises(ValueError):
            Turn(speaker=Speaker.USER, text=text)
    else:
        assert Turn(speaker=Speaker.USER, text=text).text == expected


def test_context_append_is_pure_and_counts_user_turns():
    ctx = DialogueContext()
    ctx2 = append_turn(ctx, Turn(speaker=Speaker.USER, text="hi"))
    ctx3 = append_turn(ctx2, Turn(speaker=Speaker.SYSTEM, text="hello"))
    ctx4 = append_turn(ctx3, Turn(speaker=Speaker.USER, text="find a hotel"))
    assert ctx.turns == ()
    user_turns = lambda c: sum(t.speaker is Speaker.USER for t in c.turns)
    assert [user_turns(c) for c in (ctx2, ctx3, ctx4)] == [1, 1, 2]


def test_serialize_context_one_line_per_turn():
    ctx = DialogueContext(
        turns=(
            Turn(speaker=Speaker.USER, text="i want asian food"),
            Turn(speaker=Speaker.SYSTEM, text="any part of town ?"),
            Turn(speaker=Speaker.USER, text="the centre"),
        )
    )
    assert serialize_context(ctx) == (
        "USER: i want asian food\nSYSTEM: any part of town ?\nUSER: the centre"
    )


def test_triple_normalizes_fields():
    t = StateTriple(domain=" Hotel ", slot="Price  Range", value="CHEAP")
    assert (t.domain, t.slot, t.value) == ("hotel", "price range", "cheap")
    assert t.key == ("hotel", "price range")


def test_triple_none_sentinel_is_case_insensitive():
    assert StateTriple(domain="d", slot="s", value="NONE").is_none
    assert StateTriple(domain="d", slot="s", value="none").is_none
    assert not StateTriple(domain="d", slot="s", value="nones").is_none


@pytest.mark.parametrize("field", ["domain", "slot", "value"])
@pytest.mark.parametrize("bad", [5, None, ["x"]])
def test_triple_rejects_non_string_fields(field, bad):
    fields = {"domain": "d", "slot": "s", "value": "v", field: bad}
    with pytest.raises(TypeError):
        StateTriple(**fields)


def test_triple_requires_domain_and_slot():
    with pytest.raises(ValueError):
        StateTriple(domain="", slot="s", value="v")
    with pytest.raises(ValueError):
        StateTriple(domain="d", slot=" ", value="v")


def test_state_latest_wins_per_key():
    s = make_state(("hotel", "area", "north"), ("hotel", "area", "east"))
    assert s.triples() == (make_triple("hotel", "area", "east"),)
    assert s.get("hotel", "area").value == "east"
    assert s.get("Hotel", "AREA").value == "east"


def test_state_is_immutable_and_hashable():
    s = make_state(("hotel", "area", "north"))
    with pytest.raises(AttributeError):
        s.x = 1
    assert hash(s) == hash(make_state(("hotel", "area", "north")))


def test_state_triples_sorted():
    s = make_state(
        ("taxi", "day", "monday"),
        ("attraction", "type", "museum"),
        ("hotel", "area", "east"),
    )
    assert [t.domain for t in s.triples()] == ["attraction", "hotel", "taxi"]


def test_accumulate_unions_and_overwrites():
    s0 = DialogueState()
    s1 = accumulate_state(s0, [make_triple("hotel", "area", "north")])
    s2 = accumulate_state(
        s1,
        [make_triple("hotel", "stars", "4"), make_triple("hotel", "area", "east")],
    )
    assert set(s2) == {
        make_triple("hotel", "stars", "4"),
        make_triple("hotel", "area", "east"),
    }
    assert s1.get("hotel", "area").value == "north"  # inputs untouched


def test_accumulate_none_never_enters_nor_erases():
    s1 = accumulate_state(DialogueState(), [make_triple("hotel", "area", "east")])
    s2 = accumulate_state(s1, [make_triple("hotel", "area", NONE_VALUE)])
    assert s2.get("hotel", "area").value == "east"
    s3 = accumulate_state(DialogueState(), [make_triple("hotel", "name", NONE_VALUE)])
    assert len(s3) == 0


_words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=0x7F),
    min_size=1,
    max_size=8,
)
_triples = st.builds(
    StateTriple,
    domain=_words,
    slot=_words,
    value=st.one_of(_words, st.just(NONE_VALUE)),
)


@given(st.lists(_triples, max_size=12))
def test_accumulate_with_self_is_idempotent(triples):
    s = accumulate_state(DialogueState(), triples)
    assert accumulate_state(s, s.triples()) == s


@given(st.lists(_triples, max_size=12), st.lists(_triples, max_size=12))
def test_accumulate_keys_grow_monotonically(first, second):
    s1 = accumulate_state(DialogueState(), first)
    s2 = accumulate_state(s1, second)
    assert {t.key for t in s1} <= {t.key for t in s2}
    assert all(not t.is_none for t in s2)


@given(st.text())
def test_memoised_normalize_text_matches_its_definition(s):
    expected = re.sub(r"\s+", " ", s.strip()).casefold()
    normalize_text.cache_clear()
    assert normalize_text(s) == expected  # computed
    assert normalize_text(s) == expected  # served from the memo


# few distinct keys, so latest-wins collisions are common
_keyed_triples = st.builds(
    StateTriple,
    domain=st.sampled_from(["hotel", "Taxi", "a b"]),
    slot=st.sampled_from(["area", "day", "b"]),
    value=st.one_of(_words, st.just(NONE_VALUE), st.just("NONE")),
)


@given(st.lists(_keyed_triples, max_size=12))
def test_state_triples_order_matches_sorting_the_triples(triples):
    s = DialogueState(triples)
    latest = {t.key: t for t in triples}  # latest wins on a repeated key
    assert s.triples() == tuple(sorted(latest.values()))


def reference_accumulate(prev, new_triples):
    """Merge by iterating the previous state, as before the fast path."""
    merged = {t.key: t for t in prev}
    for t in new_triples:
        if not t.is_none:
            merged[t.key] = t
    return DialogueState(merged.values())


@given(st.lists(st.lists(_keyed_triples, max_size=6), max_size=6))
def test_accumulate_matches_iterate_and_merge_reference(turns):
    state = expected = DialogueState()
    for new in turns:
        state = accumulate_state(state, new)
        expected = reference_accumulate(expected, new)
        assert state == expected
        assert state.triples() == expected.triples()


@given(st.lists(_keyed_triples, max_size=12))
def test_unordered_views_hold_the_sorted_triples(triples):
    s = DialogueState(triples)
    assert tuple(sorted(s.unordered())) == s.triples()
    assert s.value_by_key() == {t.key: t.value for t in s if not t.is_none}


def _outcome(make, domain, slot, value):
    """The triple ``make`` returns, or the type of exception it raises."""
    try:
        return make(domain, slot, value)
    except (TypeError, ValueError) as exc:
        return type(exc)


@given(st.text(), st.text(), st.text())
def test_state_triple_equals_the_constructor_on_any_strings(domain, slot, value):
    expected = _outcome(StateTriple, domain, slot, value)
    assert _outcome(state_triple, domain, slot, value) == expected
    if isinstance(expected, StateTriple):
        # served from the cache the second time, as the same instance
        assert state_triple(domain, slot, value) is state_triple(domain, slot, value)


# strings, including empty and blank ones, and non-strings both hashable
# and unhashable
_any_field = st.one_of(
    st.sampled_from(["", " ", "\t", "d", "Hotel"]),
    st.integers(),
    st.none(),
    st.floats(allow_nan=False),
    st.lists(st.text(max_size=3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@given(_any_field, _any_field, _any_field)
def test_state_triple_raises_like_the_constructor_and_caches_no_error(
    domain, slot, value
):
    expected = _outcome(StateTriple, domain, slot, value)
    size = state_triple.cache_info().currsize
    got = _outcome(state_triple, domain, slot, value)
    assert got == expected
    if not isinstance(expected, StateTriple):
        assert state_triple.cache_info().currsize == size
        assert _outcome(state_triple, domain, slot, value) == expected
