import copy
import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dstgraph import cli, datasets
from dstgraph.datasets import (
    AnnotatedDialogue,
    CorpusFormat,
    CorpusReader,
    LoadResult,
    PredictionsSpool,
    TurnKeys,
    fixture_corpus_path,
    fixture_error_cases_path,
    fixture_keywords_path,
    fixture_replay_path,
    iter_predictions,
    load_corpus,
    prediction_record,
    read_json_lines,
    read_predictions,
    state_from_jsonable,
    state_to_jsonable,
    write_corpus,
    write_json_lines,
)
from dstgraph.dialogue import DialogueState, Speaker, Turn
from dstgraph.parsing import parse_state
from dstgraph.prompts import load_exemplars

from conftest import make_state, reference_load_corpus, sgd_record, write_predictions


def plain_record(dialogue_id="d1", gold=True):
    rec = {
        "dialogue_id": dialogue_id,
        "turns": [
            {"speaker": "user", "text": "i want thai food"},
            {"speaker": "system", "text": "any price range?"},
            {"speaker": "user", "text": "cheap please"},
        ],
    }
    if gold:
        rec["gold"] = [
            [{"domain": "restaurant", "slot": "food", "value": "thai"}],
            [
                {"domain": "restaurant", "slot": "food", "value": "thai"},
                {"domain": "restaurant", "slot": "pricerange", "value": "cheap"},
            ],
        ]
    return rec


def user_turns(d: AnnotatedDialogue) -> int:
    return sum(t.speaker is Speaker.USER for t in d.turns)


# --- plain JSONL ---


def test_plain_jsonl_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(plain_record()) + "\n", encoding="utf-8")
    result = load_corpus(path)
    assert len(result.dialogues) == 1
    assert result.skipped == 0
    d = result.dialogues[0]
    assert d.dialogue_id == "d1"
    assert user_turns(d) == 2
    assert d.gold_states[1] == make_state(
        ("restaurant", "food", "thai"), ("restaurant", "pricerange", "cheap")
    )
    # normal-form writer reproduces the corpus
    out = tmp_path / "copy.jsonl"
    write_corpus(out, result.dialogues)
    assert load_corpus(out).dialogues == result.dialogues


def test_plain_jsonl_counts_malformed_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    bad_speaker = plain_record("d2")
    bad_speaker["turns"][0]["speaker"] = "narrator"
    bad_gold = plain_record("d3")
    bad_gold["gold"] = bad_gold["gold"][:1]  # one state for two user turns
    lines = [json.dumps(plain_record()), json.dumps(bad_speaker), json.dumps(bad_gold)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = load_corpus(path)
    assert len(result.dialogues) == 1
    assert result.skipped == 2


def test_plain_jsonl_skips_non_string_gold_field(tmp_path):
    path = tmp_path / "c.jsonl"
    bad = plain_record("d2")
    bad["gold"][0][0]["domain"] = 5
    lines = [json.dumps(plain_record()), json.dumps(bad), json.dumps(plain_record("d3"))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = load_corpus(path)
    assert [d.dialogue_id for d in result.dialogues] == ["d1", "d3"]
    assert result.skipped == 1


def test_extract_skips_and_counts_malformed_gold_lines(tmp_path, capsys):
    int_field = plain_record("d2")
    int_field["gold"][1][1]["value"] = 3
    missing_key = plain_record("d3")
    del missing_key["gold"][0][0]["slot"]
    empty_domain = plain_record("d4")
    empty_domain["gold"][1][0]["domain"] = " "
    records = [plain_record("d1"), int_field, missing_key, empty_domain, plain_record("d5")]
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "pred.jsonl"
    assert cli.main(["extract", "--corpus", str(corpus), "--out", str(out)]) == 0
    capsys.readouterr()
    predictions, meta = read_predictions(out)
    assert meta["corpus_skipped"] == 3
    assert sorted({r["dialogue_id"] for r in predictions}) == ["d1", "d5"]


def test_plain_jsonl_gold_optional(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(plain_record(gold=False)) + "\n", encoding="utf-8")
    result = load_corpus(path)
    assert result.dialogues[0].gold_states is None


def test_annotated_dialogue_validates_gold_length():
    turns = (Turn(speaker=Speaker.USER, text="hi"),)
    with pytest.raises(ValueError):
        AnnotatedDialogue(dialogue_id="d", turns=turns, gold_states=(DialogueState(), DialogueState()))


# --- goal-oriented JSON with belief metadata ---


MULTIWOZ = {
    "PMUL0001.json": {
        "log": [
            {"text": "i need a cheap restaurant", "metadata": {}},
            {
                "text": "sure, which area?",
                "metadata": {
                    "restaurant": {
                        "semi": {"pricerange": "cheap", "area": "not mentioned"},
                        "book": {"people": "", "booked": []},
                    }
                },
            },
            {"text": "the centre, for 4 people", "metadata": {}},
            {
                "text": "booked!",
                "metadata": {
                    "restaurant": {
                        "semi": {"pricerange": "cheap", "area": "centre"},
                        "book": {"people": "4", "booked": [{"name": "x"}]},
                    }
                },
            },
        ]
    }
}


def test_multiwoz_loader_reads_belief_state(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(MULTIWOZ), encoding="utf-8")
    d = load_corpus(path).dialogues[0]
    assert user_turns(d) == 2
    assert [t.speaker for t in d.turns] == [
        Speaker.USER,
        Speaker.SYSTEM,
        Speaker.USER,
        Speaker.SYSTEM,
    ]
    # absent markers and the booked list are filtered out
    assert d.gold_states[0] == make_state(("restaurant", "pricerange", "cheap"))
    assert d.gold_states[1] == make_state(
        ("restaurant", "pricerange", "cheap"),
        ("restaurant", "area", "centre"),
        ("restaurant", "people", "4"),
    )


def test_multiwoz_trailing_user_turn_keeps_state(tmp_path):
    raw = {
        "A.json": {
            "log": MULTIWOZ["PMUL0001.json"]["log"][:2]
            + [{"text": "thanks, goodbye", "metadata": {}}]
        }
    }
    path = tmp_path / "data.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    d = load_corpus(path).dialogues[0]
    assert user_turns(d) == 2
    assert d.gold_states[1] == d.gold_states[0]


# --- schema-guided JSON ---


SGD = [
    {
        "dialogue_id": "1_00000",
        "turns": [
            {
                "speaker": "USER",
                "utterance": "find me a restaurant",
                "frames": [
                    {
                        "service": "Restaurants_1",
                        "state": {"slot_values": {"cuisine": ["thai", "siamese"]}},
                    }
                ],
            },
            {"speaker": "SYSTEM", "utterance": "where?"},
            {
                "speaker": "USER",
                "utterance": "in cambridge, and a hotel too",
                "frames": [
                    {
                        "service": "Restaurants_1",
                        "state": {
                            "slot_values": {"cuisine": ["thai"], "city": ["cambridge"]}
                        },
                    },
                    {
                        "service": "Hotels_2",
                        "state": {"slot_values": {"city": ["cambridge"]}},
                    },
                ],
            },
        ],
    }
]


def test_sgd_loader_takes_first_value_and_strips_service_counter(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(SGD), encoding="utf-8")
    d = load_corpus(path).dialogues[0]
    assert d.gold_states[0] == make_state(("restaurants", "cuisine", "thai"))
    assert d.gold_states[1] == make_state(
        ("restaurants", "cuisine", "thai"),
        ("restaurants", "city", "cambridge"),
        ("hotels", "city", "cambridge"),
    )


# --- format detection and error handling ---


def test_load_corpus_auto_detects_by_extension_then_shape(tmp_path):
    # each file loads only under its own format, so an equal result shows
    # the format auto-detection chose; the .jsonl line is also a JSON
    # object, which the extension overrides
    cases = [
        ("a.jsonl", json.dumps(plain_record()), CorpusFormat.PLAIN_JSONL),
        ("b.json", json.dumps(MULTIWOZ), CorpusFormat.MULTIWOZ_JSON),
        ("c.json", json.dumps(SGD), CorpusFormat.SGD_JSON),
    ]
    for name, text, fmt in cases:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert load_corpus(path) == load_corpus(path, fmt)
        for other in set(CorpusFormat) - {fmt}:
            with pytest.raises(ValueError):
                load_corpus(path, other)
    bad = tmp_path / "d.json"
    bad.write_text('"just a string"', encoding="utf-8")
    with pytest.raises(ValueError, match=f"unrecognized corpus shape in {bad}"):
        load_corpus(bad)


def edited(rec, *path, drop: str = "", **fields):
    """A deep copy of ``rec`` whose object at ``path`` has its ``drop`` key
    removed and ``fields`` set."""
    rec = copy.deepcopy(rec)
    target = rec
    for key in path:
        target = target[key]
    target.pop(drop, None)
    target.update(fields)
    return rec


def own_ids(records: list) -> list:
    """``records`` with each dialogue_id made one no other record has, so a
    record that parsed by mistake is kept, not skipped as a repeated id."""
    return [
        dict(r, dialogue_id=f"bad{i}") if isinstance(r, dict) and "dialogue_id" in r else r
        for i, r in enumerate(records)
    ]


_NOT_OBJECTS = [[], "x", None]
_PLAIN = plain_record()
_CLASSIC = MULTIWOZ["PMUL0001.json"]
# per format: a good dialogue record, then one record of each malformed kind
# that format can hold; a classic record's id is its key, distinct unless
# given as a (key, record) pair
_GOOD_AND_BAD = {
    CorpusFormat.PLAIN_JSONL: (_PLAIN, own_ids([
        *_NOT_OBJECTS,
        edited(_PLAIN, drop="turns"),
        edited(_PLAIN, "turns", 0, speaker="narrator"),
        edited(_PLAIN, gold=_PLAIN["gold"][:1]),
        edited(_PLAIN, turns=[["user", "i want thai food"]]),
    ])),
    CorpusFormat.MULTIWOZ_JSON: (_CLASSIC, [
        ("d00.json", edited(_CLASSIC, "log", 0, text="the good dialogue's id again")),
        *_NOT_OBJECTS,
        edited(_CLASSIC, "log", 0, drop="text"),
        edited(_CLASSIC, "log", 1, metadata=[]),
        edited(_CLASSIC, "log", 3, "metadata", "restaurant", semi=[]),
    ]),
    CorpusFormat.SGD_JSON: (SGD[0], own_ids([
        *_NOT_OBJECTS,
        edited(SGD[0], drop="dialogue_id"),
        edited(SGD[0], "turns", 1, speaker="NARRATOR"),
        edited(SGD[0], "turns", 0, "frames", 0, state=[]),
        edited(SGD[0], "turns", 0, "frames", 0, "state", slot_values=[]),
        edited(SGD[0], "turns", 2, "frames", 1, "state", "slot_values", city="cambridge"),
    ])),
}


def corpus_text(fmt: CorpusFormat, records: list) -> str:
    """A corpus in ``fmt`` holding ``records`` in order."""
    if fmt is CorpusFormat.PLAIN_JSONL:
        return "".join(json.dumps(r) + "\n" for r in records)
    if fmt is CorpusFormat.MULTIWOZ_JSON:
        # entry by entry, as one JSON object may repeat a key
        items = [r if isinstance(r, tuple) else (f"d{i:02d}.json", r)
                 for i, r in enumerate(records)]
        return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(r)}" for k, r in items) + "}"
    return json.dumps(records)


def read_streamed(path, fmt=None) -> tuple[list[AnnotatedDialogue], int]:
    with CorpusReader(path, fmt) as reader:
        dialogues = list(reader.dialogues())
        return dialogues, reader.skipped


def assert_reads_the_reference(path, fmt=None) -> LoadResult:
    """``path`` read by ``CorpusReader`` and by ``load_corpus`` is the
    reference's corpus sorted by id, with as many records skipped."""
    reference = reference_load_corpus(path, fmt)
    expected = (sorted(reference.dialogues, key=lambda d: d.dialogue_id), reference.skipped)
    assert read_streamed(path, fmt) == expected
    result = load_corpus(path, fmt)
    assert (list(result.dialogues), result.skipped) == expected
    return result


@pytest.mark.parametrize("fmt", _GOOD_AND_BAD, ids=lambda fmt: fmt.value)
def test_every_format_skips_and_counts_each_malformed_dialogue(fmt, tmp_path):
    # one skip rule for every format, a list where an object belongs at
    # any depth included
    good, bad = _GOOD_AND_BAD[fmt]
    alone = tmp_path / "alone.json"
    alone.write_text(corpus_text(fmt, [good]), encoding="utf-8")
    mixed = tmp_path / "mixed.json"
    mixed.write_text(corpus_text(fmt, [good, *bad]), encoding="utf-8")
    result = assert_reads_the_reference(mixed, fmt)
    assert result.dialogues == load_corpus(alone, fmt).dialogues
    assert result.skipped == len(bad)
    # the malformed records first, the good one last: in a classic
    # document it repeats the id of an earlier entry that parses, which wins
    last = ("d00.json", good) if fmt is CorpusFormat.MULTIWOZ_JSON else good
    mixed.write_text(corpus_text(fmt, [*bad, last]), encoding="utf-8")
    assert assert_reads_the_reference(mixed, fmt).skipped == len(bad)


def test_extract_skips_classic_dialogues_with_nested_lists(tmp_path, capsys):
    corpus = tmp_path / "c.json"
    good, bad = _GOOD_AND_BAD[CorpusFormat.MULTIWOZ_JSON]
    corpus.write_text(
        corpus_text(CorpusFormat.MULTIWOZ_JSON, [good, *bad[-2:]]), encoding="utf-8"
    )
    out = tmp_path / "pred.jsonl"
    assert cli.main(["extract", "--corpus", str(corpus), "--out", str(out)]) == 0
    capsys.readouterr()
    predictions, meta = read_predictions(out)
    assert meta["corpus_skipped"] == 2
    assert {r["dialogue_id"] for r in predictions} == {"d00.json"}


@pytest.mark.parametrize("fmt", [CorpusFormat.PLAIN_JSONL, CorpusFormat.SGD_JSON],
                         ids=lambda fmt: fmt.value)
def test_repeated_dialogue_id_is_skipped_and_counted(fmt, tmp_path, capsys):
    # the fixture corpus with its first dialogue read again at the end: the
    # first of an id stands, so extract writes no repeated (dialogue_id,
    # turn) and evaluate pairs every turn once
    fixture = load_corpus(fixture_corpus_path()).dialogues
    if fmt is CorpusFormat.PLAIN_JSONL:
        lines = fixture_corpus_path().read_text(encoding="utf-8").splitlines()
        text = "".join(line + "\n" for line in [*lines, lines[0]])
    else:
        text = corpus_text(fmt, [sgd_record(d) for d in [*fixture, fixture[0]]])
    corpus = tmp_path / "doubled"
    corpus.write_text(text, encoding="utf-8")
    result = load_corpus(corpus, fmt)
    assert (len(result.dialogues), result.skipped) == (20, 1)
    assert result.dialogues == fixture
    pred, report = tmp_path / "pred.jsonl", tmp_path / "report.json"
    flags = ["--corpus", str(corpus), "--format", fmt.value]
    assert cli.main(["extract", *flags, "--out", str(pred)]) == 0
    assert read_predictions(pred)[1]["corpus_skipped"] == 1
    assert cli.main(["evaluate", *flags, "--predictions", str(pred),
                     "--out", str(report)]) == 0
    assert json.loads(report.read_text(encoding="utf-8"))["turn_count"] == 41
    capsys.readouterr()


def test_load_corpus_missing_file():
    with pytest.raises(FileNotFoundError):
        load_corpus("/nonexistent/corpus.jsonl")


def test_load_corpus_zero_valid_dialogues(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"dialogue_id": "d"}\n', encoding="utf-8")
    with pytest.raises(ValueError):
        load_corpus(path)


# --- state (de)serialization ---


def test_state_jsonable_round_trip():
    state = make_state(("restaurant", "food", "thai"), ("hotel", "stars", "4"))
    items = state_to_jsonable(state)
    assert items == [
        {"domain": "hotel", "slot": "stars", "value": "4"},
        {"domain": "restaurant", "slot": "food", "value": "thai"},
    ]
    assert state_from_jsonable(items) == state


# --- JSON Lines files ---


def test_write_json_lines_round_trips_non_ascii_text_unescaped(tmp_path):
    path = tmp_path / "r.jsonl"
    records = [{"text": "café — naïve ☕", "n": 1}, {"nested": {"label": "日本"}}]
    write_json_lines(path, records)
    assert list(read_json_lines(path)) == [(1, records[0]), (2, records[1])]
    text = path.read_text(encoding="utf-8")
    assert "café — naïve ☕" in text and "日本" in text and "\\u" not in text
    assert text.endswith("}\n") and text.count("\n") == 2


def test_write_json_lines_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "r.jsonl"
    write_json_lines(path, [{"a": 1}])
    before = path.read_bytes()

    def records():
        yield {"a": 2}
        raise RuntimeError("aborted midway")

    with pytest.raises(RuntimeError):
        write_json_lines(path, records())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]


# --- prediction persistence ---


def test_write_read_predictions_with_meta(tmp_path):
    path = tmp_path / "pred.jsonl"
    records = [{"dialogue_id": "d1", "turn": 1, "predicted_state": []}]
    write_predictions(path, records, meta={"version": "0.1.0", "seed": 3})
    got_records, got_meta = read_predictions(path)
    assert got_records == records
    assert got_meta == {"version": "0.1.0", "seed": 3}
    first_line = json.loads(path.read_text().splitlines()[0])
    assert first_line["record_type"] == "meta"


def test_write_read_predictions_without_meta(tmp_path):
    path = tmp_path / "pred.jsonl"
    write_predictions(path, [{"a": 1}])
    records, meta = read_predictions(path)
    assert records == [{"a": 1}]
    assert meta is None


def test_write_predictions_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "pred.jsonl"
    write_predictions(path, [{"a": 1}], meta={"run": 1})
    before = path.read_bytes()

    def records():
        yield {"a": 2}
        raise RuntimeError("aborted midway")

    with pytest.raises(RuntimeError):
        write_predictions(path, records(), meta={"run": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pred.jsonl"]


# --- bundled fixtures ---


def test_fixture_corpus_loads():
    result = load_corpus(fixture_corpus_path())
    assert len(result.dialogues) == 20
    assert all(d.gold_states is not None for d in result.dialogues)
    assert result.skipped == 0
    domains = {
        t.domain for d in result.dialogues for s in d.gold_states for t in s.triples()
    }
    assert domains == {"restaurant", "hotel", "attraction"}


def test_fixture_keywords_shape():
    raw = json.loads(fixture_keywords_path().read_text(encoding="utf-8"))
    assert len(raw) == 27
    for rec in raw.values():
        assert set(rec) == {"domain", "slot", "value"}


def test_fixture_replay_covers_every_user_turn():
    lines = [
        l for l in fixture_replay_path().read_text(encoding="utf-8").splitlines() if l
    ]
    result = load_corpus(fixture_corpus_path())
    total_user_turns = sum(user_turns(d) for d in result.dialogues)
    assert len(lines) == total_user_turns == 41


def test_fixture_error_cases_shape():
    raw = json.loads(fixture_error_cases_path().read_text(encoding="utf-8"))
    assert len(raw["cases"]) == 4
    for case in raw["cases"]:
        assert {"name", "predicted", "gold", "expected"} <= set(case)


# --- the streamed corpus reader ---


def messy_corpus_lines() -> list[str]:
    """Plain corpus lines out of id order: a repeated id whose first record
    is malformed, a repeated valid id, lines that are not records, a blank
    line, an integer id and a dialogue with no gold."""
    bad_speaker = plain_record("d2")
    bad_speaker["turns"][0]["speaker"] = "narrator"
    int_id = plain_record()
    int_id["dialogue_id"] = 7
    return [
        json.dumps(plain_record("d3")),
        json.dumps(bad_speaker),
        "not json",
        json.dumps(plain_record("d1", gold=False)),
        "",
        json.dumps(plain_record("d2")),
        "[1, 2]",
        json.dumps(plain_record("d3")),
        json.dumps(int_id),
        json.dumps({"turns": []}),
        json.dumps(plain_record("d2")),
    ]


@pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_reader_reads_what_load_corpus_loads_in_dialogue_id_order(ending, tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(ending.join(messy_corpus_lines()) + ending, encoding="utf-8")
    result = assert_reads_the_reference(path)
    assert [d.dialogue_id for d in result.dialogues] == ["7", "d1", "d2", "d3"]
    assert result.skipped == 6


def test_reader_parses_no_record_after_the_winner(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    path.write_text("".join(line + "\n" for line in messy_corpus_lines()), encoding="utf-8")
    parsed = []
    parse = datasets._plain_dialogue
    monkeypatch.setattr(datasets, "_plain_dialogue", lambda line: parsed.append(line) or parse(line))
    with CorpusReader(path) as reader:
        assert reader.read("d2").dialogue_id == "d2"
        assert reader.read("d2") is reader.read("d2")  # the last one read is kept
        assert reader.read("nope") is None
    # d2's malformed record, then its first valid one; not its second valid one
    assert [json.loads(line)["dialogue_id"] for line in parsed] == ["d2", "d2"]


def raised(read, *args) -> BaseException:
    with pytest.raises((OSError, ValueError)) as info:
        read(*args)
    return info.value


def test_reader_errors_match_load_corpus(tmp_path):
    # a missing file, a corpus none of whose records parses, and each
    # document that is not JSON or of the wrong shape, under every format
    cases = {
        "nope.jsonl": None,
        "c.jsonl": '{"dialogue_id": "d"}\nnot json\n',
        "classic.json": corpus_text(CorpusFormat.MULTIWOZ_JSON, [{"log": 1}, [], "x"]),
        "sgd.json": corpus_text(CorpusFormat.SGD_JSON, [{"dialogue_id": "d"}, [], "x"]),
        "empty.json": "[]",
        "broken.json": '{"d": [',
        "string.json": '"just a string"',
    }
    messages = set()
    for (name, text), fmt in itertools.product(cases.items(), [None, *CorpusFormat]):
        path = tmp_path / name
        if text is not None:
            path.write_text(text, encoding="utf-8")
        reference = raised(reference_load_corpus, path, fmt)
        for read in (load_corpus, read_streamed):
            error = raised(read, path, fmt)
            assert (type(error), str(error)) == (type(reference), str(reference)), (name, fmt)
        messages.add(str(reference).replace(str(tmp_path), "~"))
    assert messages >= {
        "corpus file not found: ~/nope.jsonl",
        "no valid dialogues in ~/c.jsonl (2 skipped)",
        "no valid dialogues in ~/classic.json (3 skipped)",
        "no valid dialogues in ~/sgd.json (3 skipped)",
        "no valid dialogues in ~/empty.json (0 skipped)",
        "~/sgd.json: expected a dialogue_id -> dialogue object mapping",
        "~/classic.json: expected a list of dialogue objects",
        "unrecognized corpus shape in ~/string.json",
    }


def test_reader_reads_json_formats_whole(tmp_path):
    # each JSON format out of id order, with a repeated id whose first
    # record is malformed, a repeated valid id and records that are not objects
    fixture = [sgd_record(d) for d in load_corpus(fixture_corpus_path()).dialogues]
    bad_speaker = edited(fixture[3], "turns", 0, speaker="NARRATOR")
    again = edited(fixture[5], "turns", 0, utterance="read again")
    sgd = [*fixture[:3:-1], bad_speaker, *_NOT_OBJECTS, *fixture[:4], again]
    no_text = edited(_CLASSIC, "log", 2, drop="text")
    classic = [("m2", _CLASSIC), ("m1", no_text), ("m0", []), ("m1", _CLASSIC),
               ("m2", edited(_CLASSIC, "log", 0, text="read again")), ("m3", no_text)]
    cases = [
        (CorpusFormat.SGD_JSON, sgd, sorted(r["dialogue_id"] for r in fixture), 5),
        (CorpusFormat.MULTIWOZ_JSON, classic, ["m1", "m2"], 4),
    ]
    for fmt, records, ids, n_skipped in cases:
        path = tmp_path / f"{fmt.value}.json"
        path.write_text(corpus_text(fmt, records), encoding="utf-8")
        result = assert_reads_the_reference(path)
        assert ([d.dialogue_id for d in result.dialogues], result.skipped) == (ids, n_skipped)


@pytest.mark.parametrize("reader", ["load_corpus", "reader", "json_lines"])
def test_a_file_that_is_not_utf8_names_the_byte_in_the_whole_file(reader, tmp_path):
    path = tmp_path / "c.jsonl"
    good = json.dumps(plain_record()).encode()
    path.write_bytes(good + b"\n" + good + b"\n" + b'{"dialogue_id": "\xff"}\n')
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_bytes().decode("utf-8")
    read = {"load_corpus": load_corpus, "reader": CorpusReader,
            "json_lines": lambda p: list(read_json_lines(p))}[reader]
    with pytest.raises(UnicodeDecodeError) as raised:
        read(path)
    assert str(raised.value) == str(whole.value)
    assert f"position {2 * len(good) + 2 + 17}" in str(raised.value)


# --- JSON Lines split only at "\n" ---

_LINE_BREAKS = {"nel": "\u0085", "ls": "\u2028", "ps": "\u2029"}


@pytest.mark.parametrize("char", _LINE_BREAKS.values(), ids=_LINE_BREAKS.keys())
def test_a_line_break_character_in_a_diagnostic_round_trips(char, tmp_path):
    # a completion is untrusted text; its diagnostic is written unescaped
    outcome = parse_state(f"Domain : [`hotel{char}x'] , Slot : [`name'] , Value : [`']")
    assert [d.detail for d in outcome.diagnostics] == [f"empty value for (hotel{char}x, name)"]
    records = [prediction_record("d1", turn, outcome.state, outcome.diagnostics)
               for turn in (0, 1)]
    path = tmp_path / "pred.jsonl"
    write_predictions(path, records, meta={"run": 1})
    assert char in path.read_text(encoding="utf-8")
    assert read_predictions(path) == (records, {"run": 1})
    assert [p.turn for p in iter_predictions(path)] == [0, 1]


@pytest.mark.parametrize("char", _LINE_BREAKS.values(), ids=_LINE_BREAKS.keys())
def test_a_line_break_character_in_a_dialogue_id_round_trips(char, tmp_path):
    dialogues = load_corpus(fixture_corpus_path()).dialogues[:3]
    dialogues = (AnnotatedDialogue(f"d1{char}x", dialogues[0].turns, dialogues[0].gold_states),
                 *dialogues[1:])
    path = tmp_path / "c.jsonl"
    write_corpus(path, dialogues)
    result = load_corpus(path)
    assert (result.dialogues, result.skipped) == (dialogues, 0)
    assert read_streamed(path) == (sorted(dialogues, key=lambda d: d.dialogue_id), 0)


@pytest.mark.parametrize("char", _LINE_BREAKS.values(), ids=_LINE_BREAKS.keys())
def test_a_line_break_character_in_an_exemplar_round_trips(char, tmp_path):
    path = tmp_path / "ex.jsonl"
    pairs = [(f"USER: a{char}b", "Domain : [] , Slot : [] , Value : []"), ("USER: c", "d")]
    write_json_lines(path, [{"input": i, "output": o} for i, o in pairs])
    assert load_exemplars(path) == tuple(pairs)


@pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_bad_json_line_is_named_by_the_same_number_under_either_ending(ending, tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(ending.join(['{"a": 1}', "", "[1]", '{"a": 2}']) + ending, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:3: expected a JSON object, got list$"):
        list(read_json_lines(path))


def test_a_lone_carriage_return_does_not_end_a_line(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"a": 1}\r{"a": 2}\n', encoding="utf-8", newline="")
    with pytest.raises(ValueError, match=f"^{path}:1: Extra data"):
        list(read_json_lines(path))


# --- turn keys and the predictions spool ---

_keys = st.tuples(st.sampled_from(["a", "b", "c"]),
                  st.one_of(st.integers(-3, 40), st.integers(-10**12, 10**12)))


@given(st.lists(_keys), st.lists(_keys))
def test_turn_keys_act_as_a_set(added, probed):
    keys, reference = TurnKeys(), set()
    for key in added:
        assert keys.add(key) == (key not in reference)
        reference.add(key)
    assert all((key in keys) == (key in reference) for key in added + probed)


def test_spool_writes_the_bytes_write_predictions_writes(tmp_path):
    records = [{"dialogue_id": "d", "turn": t, "text": "café\u2028"} for t in range(3)]
    write_predictions(tmp_path / "direct.jsonl", records, meta={"run": 1})
    target = tmp_path / "spooled.jsonl"
    with PredictionsSpool(target) as spool:
        for rec in records:
            spool.write(rec)
        # the spool has no name: nothing but the direct file is listed
        assert [p.name for p in tmp_path.iterdir()] == ["direct.jsonl"]
        spool.commit({"run": 1})
    assert spool.count == 3
    assert target.read_bytes() == (tmp_path / "direct.jsonl").read_bytes()
    with PredictionsSpool(tmp_path / "empty.jsonl") as spool:
        spool.commit({"run": 2})
    assert read_predictions(tmp_path / "empty.jsonl") == ([], {"run": 2})


def test_spool_closed_without_commit_keeps_the_previous_target(tmp_path):
    target = tmp_path / "pred.jsonl"
    write_predictions(target, [{"a": 1}], meta={"run": 1})
    before = target.read_bytes()
    with pytest.raises(RuntimeError), PredictionsSpool(target) as spool:
        spool.write({"a": 2})
        raise RuntimeError("aborted before the commit")
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pred.jsonl"]
