"""Regenerate the bundled fixture corpus, keyword table, and replay store.

The corpus is 20 synthetic dialogues over three domains (restaurant,
hotel, attraction).  Gold states mostly agree with what the keyword
mock extracts, with three planted divergences so the evaluate report
exercises real error paths:

  fx007  gold tracks nights=5, the mock says "5 nights"  (synonym error)
  fx012  gold has an area constraint no keyword covers   (recall miss)
  fx015  a system turn mentions a museum the user never
         asked about, which the mock happily extracts    (precision miss)

The replay store is generated by running the standard extract prompts
through the keyword mock, so `--backend replay` reproduces the same
pipeline offline without the keyword table.

Usage: python3 tools/make_fixtures.py
"""

import json
import sys
from pathlib import Path

from dstgraph.backends import ReplayBackend, RuleMockBackend, prompt_hash
from dstgraph.cli import RunConfig, extract_records
from dstgraph.datasets import (
    AnnotatedDialogue,
    load_corpus,
    write_corpus,
    write_json_lines,
)
from dstgraph.dialogue import DialogueState, Speaker, StateTriple, Turn

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "dstgraph" / "fixtures"

KEYWORDS = {
    "asian food": ("restaurant", "food", "asian"),
    "italian food": ("restaurant", "food", "italian"),
    "thai food": ("restaurant", "food", "thai"),
    "chinese food": ("restaurant", "food", "chinese"),
    "restaurant in the centre": ("restaurant", "area", "centre"),
    "restaurant in the south": ("restaurant", "area", "south"),
    "cheap price range": ("restaurant", "price range", "cheap"),
    "expensive price range": ("restaurant", "price range", "expensive"),
    "moderate price range": ("restaurant", "price range", "moderate"),
    "curry garden": ("restaurant", "name", "curry garden"),
    "golden wok": ("restaurant", "name", "golden wok"),
    "hotel in the north": ("hotel", "area", "north"),
    "hotel in the east": ("hotel", "area", "east"),
    "hotel in the west": ("hotel", "area", "west"),
    "4 star": ("hotel", "stars", "4"),
    "3 star": ("hotel", "stars", "3"),
    "guesthouse": ("hotel", "type", "guesthouse"),
    "5 nights": ("hotel", "nights", "5 nights"),
    "2 nights": ("hotel", "nights", "2"),
    "museum": ("attraction", "type", "museum"),
    "local park": ("attraction", "type", "park"),
    "theatre": ("attraction", "type", "theatre"),
    "cafe jello gallery": ("attraction", "name", "cafe jello gallery"),
    "whipple museum": ("attraction", "name", "whipple museum"),
    "attraction in the centre": ("attraction", "area", "centre"),
    "attraction in the west": ("attraction", "area", "west"),
    "free entrance": ("attraction", "fee", "free"),
}

# (dialogue_id, [(speaker, text), ...], [cumulative gold triples per user turn])
U, S = "user", "system"
DIALOGUES = [
    (
        "fx001",
        [
            (U, "i am looking for a restaurant in the centre serving asian food"),
            (S, "sure , there are several options in that part of town ."),
            (U, "something in the cheap price range please"),
            (S, "how about one of the budget places ? i can book it ."),
        ],
        [
            [("restaurant", "area", "centre"), ("restaurant", "food", "asian")],
            [
                ("restaurant", "area", "centre"),
                ("restaurant", "food", "asian"),
                ("restaurant", "price range", "cheap"),
            ],
        ],
    ),
    (
        "fx002",
        [
            (U, "is there a restaurant in the south that serves italian food"),
            (S, "yes , i know a couple of places there ."),
            (U, "i would prefer the expensive price range"),
            (S, "noted , i will look at the upscale options ."),
        ],
        [
            [("restaurant", "area", "south"), ("restaurant", "food", "italian")],
            [
                ("restaurant", "area", "south"),
                ("restaurant", "food", "italian"),
                ("restaurant", "price range", "expensive"),
            ],
        ],
    ),
    (
        "fx003",
        [
            (U, "book me a table at the place called curry garden"),
            (S, "happy to . what else do you need ?"),
            (U, "do they serve thai food"),
            (S, "they do . shall i confirm the booking ?"),
        ],
        [
            [("restaurant", "name", "curry garden")],
            [("restaurant", "name", "curry garden"), ("restaurant", "food", "thai")],
        ],
    ),
    (
        "fx004",
        [
            (U, "i need a hotel in the north with a 4 star rating"),
            (S, "there are two matches . any other requirements ?"),
            (U, "i will stay for 2 nights"),
            (S, "got it , your stay is noted ."),
        ],
        [
            [("hotel", "area", "north"), ("hotel", "stars", "4")],
            [
                ("hotel", "area", "north"),
                ("hotel", "stars", "4"),
                ("hotel", "nights", "2"),
            ],
        ],
    ),
    (
        "fx005",
        [
            (U, "i am looking for a guesthouse for my visit"),
            (S, "there are several places available ."),
            (U, "does it have a 3 star rating"),
            (S, "yes , that rating is correct ."),
        ],
        [
            [("hotel", "type", "guesthouse")],
            [("hotel", "type", "guesthouse"), ("hotel", "stars", "3")],
        ],
    ),
    (
        "fx006",
        [
            (U, "find me a hotel in the east part of town"),
            (S, "searching now ."),
            (U, "it should have a 4 star rating"),
            (S, "done , i found a match ."),
        ],
        [
            [("hotel", "area", "east")],
            [("hotel", "area", "east"), ("hotel", "stars", "4")],
        ],
    ),
    (
        "fx007",
        [
            (U, "i want to book a hotel in the north"),
            (S, "certainly , when will you arrive ?"),
            (U, "i will be staying 5 nights"),
            (S, "okay , the reservation is in ."),
        ],
        [
            [("hotel", "area", "north")],
            # gold normalizes the stay length; the mock tracks the raw span
            [("hotel", "area", "north"), ("hotel", "nights", "5")],
        ],
    ),
    (
        "fx008",
        [
            (U, "what museums can i visit around here"),
            (S, "quite a few . any particular one ?"),
            (U, "is the whipple museum open today"),
            (S, "it is open until five ."),
        ],
        [
            [("attraction", "type", "museum")],
            [
                ("attraction", "type", "museum"),
                ("attraction", "name", "whipple museum"),
            ],
        ],
    ),
    (
        "fx009",
        [
            (U, "tell me about cafe jello gallery"),
            (S, "it is a popular spot for visitors ."),
            (U, "is there any other attraction in the centre"),
            (S, "several , i can send a list ."),
        ],
        [
            [("attraction", "name", "cafe jello gallery")],
            [
                ("attraction", "name", "cafe jello gallery"),
                ("attraction", "area", "centre"),
            ],
        ],
    ),
    (
        "fx010",
        [
            (U, "i fancy visiting a local park this afternoon"),
            (S, "nice choice , the weather is good ."),
            (U, "one with free entrance please"),
            (S, "no charge at the one i have in mind ."),
        ],
        [
            [("attraction", "type", "park")],
            [("attraction", "type", "park"), ("attraction", "fee", "free")],
        ],
    ),
    (
        "fx011",
        [
            (U, "i need a hotel in the east and a restaurant in the centre"),
            (S, "let us start with the place to stay ."),
            (U, "the restaurant should serve chinese food"),
            (S, "understood , i have a few ideas ."),
        ],
        [
            [("hotel", "area", "east"), ("restaurant", "area", "centre")],
            [
                ("hotel", "area", "east"),
                ("restaurant", "area", "centre"),
                ("restaurant", "food", "chinese"),
            ],
        ],
    ),
    (
        "fx012",
        [
            (U, "i want to see a theatre show tonight"),
            (S, "there are two performances tonight ."),
            (U, "somewhere fun downtown would be great"),
            (S, "i will keep that in mind ."),
        ],
        [
            [("attraction", "type", "theatre")],
            # "downtown" means the centre, but no keyword covers it
            [("attraction", "type", "theatre"), ("attraction", "area", "centre")],
        ],
    ),
    (
        "fx013",
        [
            (U, "find a restaurant in the centre serving thai food"),
            (S, "plenty of choices there ."),
            (U, "make sure it is in the moderate price range"),
            (S, "of course , nothing too pricey ."),
        ],
        [
            [("restaurant", "area", "centre"), ("restaurant", "food", "thai")],
            [
                ("restaurant", "area", "centre"),
                ("restaurant", "food", "thai"),
                ("restaurant", "price range", "moderate"),
            ],
        ],
    ),
    (
        "fx014",
        [
            (U, "i am looking for a guesthouse near the station"),
            (S, "there is one just across the road ."),
            (U, "i need it for 2 nights"),
            (S, "booked , enjoy your stay ."),
        ],
        [
            [("hotel", "type", "guesthouse")],
            [("hotel", "type", "guesthouse"), ("hotel", "nights", "2")],
        ],
    ),
    (
        "fx015",
        [
            (U, "book a hotel in the west for me"),
            (S, "there is a lovely place , it is right by the whipple museum ."),
            (U, "i also want a 3 star rating"),
            (S, "that works , it has exactly that rating ."),
        ],
        [
            [("hotel", "area", "west")],
            # the system's museum aside is not a user goal
            [("hotel", "area", "west"), ("hotel", "stars", "3")],
        ],
    ),
    (
        "fx016",
        [
            (U, "is there an attraction in the west like a museum"),
            (S, "yes , there is one with nice exhibits ."),
            (U, "what is the entrance fee"),
            (S, "admission details are on their site ."),
        ],
        [
            [("attraction", "area", "west"), ("attraction", "type", "museum")],
            [("attraction", "area", "west"), ("attraction", "type", "museum")],
        ],
    ),
    (
        "fx017",
        [
            (U, "i want a restaurant in the south in the cheap price range"),
            (S, "a few budget spots come to mind ."),
            (U, "maybe the one called golden wok"),
            (S, "good pick , i will reserve a table ."),
        ],
        [
            [("restaurant", "area", "south"), ("restaurant", "price range", "cheap")],
            [
                ("restaurant", "area", "south"),
                ("restaurant", "price range", "cheap"),
                ("restaurant", "name", "golden wok"),
            ],
        ],
    ),
    (
        "fx018",
        [
            (U, "get me a 3 star hotel in the east"),
            (S, "found a couple of candidates ."),
            (U, "i will need it for 2 nights"),
            (S, "all set ."),
        ],
        [
            [("hotel", "stars", "3"), ("hotel", "area", "east")],
            [
                ("hotel", "stars", "3"),
                ("hotel", "area", "east"),
                ("hotel", "nights", "2"),
            ],
        ],
    ),
    (
        "fx019",
        [
            (U, "i am visiting cafe jello gallery and then want asian food nearby"),
            (S, "there are places to eat close by ."),
            (U, "the meal should be in the cheap price range"),
            (S, "noted , keeping it affordable ."),
        ],
        [
            [
                ("attraction", "name", "cafe jello gallery"),
                ("restaurant", "food", "asian"),
            ],
            [
                ("attraction", "name", "cafe jello gallery"),
                ("restaurant", "food", "asian"),
                ("restaurant", "price range", "cheap"),
            ],
        ],
    ),
    (
        "fx020",
        [
            (U, "i need a 4 star hotel in the west for tonight"),
            (S, "checking availability ."),
            (U, "actually make it a guesthouse instead"),
            (S, "switched , no problem ."),
            (U, "is free parking included"),
            (S, "yes , parking comes at no cost ."),
        ],
        [
            [("hotel", "stars", "4"), ("hotel", "area", "west")],
            [
                ("hotel", "stars", "4"),
                ("hotel", "area", "west"),
                ("hotel", "type", "guesthouse"),
            ],
            [
                ("hotel", "stars", "4"),
                ("hotel", "area", "west"),
                ("hotel", "type", "guesthouse"),
            ],
        ],
    ),
]


def build_dialogues() -> list[AnnotatedDialogue]:
    out = []
    for dialogue_id, turns, gold in DIALOGUES:
        out.append(
            AnnotatedDialogue(
                dialogue_id=dialogue_id,
                turns=tuple(Turn(speaker=Speaker(s), text=t) for s, t in turns),
                gold_states=tuple(
                    DialogueState(
                        StateTriple(domain=d, slot=s, value=v) for d, s, v in triples
                    )
                    for triples in gold
                ),
            )
        )
    return out


class _Recorder:
    """Pass the mock's completions through, keeping one replay record per
    call, in call order."""

    def __init__(self, mock: RuleMockBackend):
        self.mock = mock
        self.records: list[dict] = []

    def complete(self, prompt, params):
        completion = self.mock.complete(prompt, params)
        self.records.append(
            {"prompt_hash": prompt_hash(prompt), "completion": completion}
        )
        return completion


def extract(dialogues, backend) -> list[dict]:
    """The records `extract` writes for ``dialogues``: dialogue_id order."""
    records: list[dict] = []
    ordered = sorted(dialogues, key=lambda d: d.dialogue_id)
    failure = extract_records(ordered, backend, RunConfig(), records.append)
    if failure is not None:
        raise failure
    return records


def build_replay(dialogues, mock: RuleMockBackend, path: Path) -> int:
    """Write the mock's completion for every extract prompt to ``path``."""
    recorder = _Recorder(mock)
    n = len(extract(dialogues, recorder))
    write_json_lines(path, recorder.records)
    return n


def main() -> int:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    dialogues = build_dialogues()

    corpus_path = FIXTURES / "corpus.jsonl"
    write_corpus(corpus_path, dialogues)

    keywords_path = FIXTURES / "keywords.json"
    keywords_path.write_text(
        json.dumps(
            {
                kw: {"domain": d, "slot": s, "value": v}
                for kw, (d, s, v) in sorted(KEYWORDS.items())
            },
            indent=2,
            ensure_ascii=False,
        )
        + "\n",
        encoding="utf-8",
    )

    replay_path = FIXTURES / "replay.jsonl"
    mock = RuleMockBackend.from_json(keywords_path)
    n = build_replay(dialogues, mock, replay_path)

    # sanity: the written corpus must read back as the dialogues it was
    # written from, and the replay store must reproduce the mock run exactly
    loaded = load_corpus(corpus_path).dialogues
    assert loaded == tuple(dialogues), "corpus does not round-trip"
    mock_records = extract(loaded, mock)
    replay_records = extract(loaded, ReplayBackend(replay_path))
    assert mock_records == replay_records, "replay store out of sync with mock"

    print(f"wrote {len(dialogues)} dialogues, {len(KEYWORDS)} keywords, {n} replays")
    return 0


if __name__ == "__main__":
    sys.exit(main())
