"""The library's turn pipeline, run without the command line's settings."""

from pathlib import Path

from dstgraph.backends import ReplayBackend
from dstgraph.datasets import (
    fixture_corpus_path,
    fixture_replay_path,
    load_corpus,
    read_predictions,
)
from dstgraph.tracking import TurnTracker, extract_records

GOLDENS = Path(__file__).resolve().parent / "goldens"


def test_tracker_defaults_are_the_extract_defaults():
    # the replay store holds the prompts `extract` sends with no flags, so
    # a default that drifts from the command's misses one; the golden
    # predictions are what `extract` wrote with those prompts
    corpus = load_corpus(fixture_corpus_path())
    dialogues = sorted(corpus.dialogues, key=lambda d: d.dialogue_id)
    records: list[dict] = []
    tracker = TurnTracker(ReplayBackend(fixture_replay_path()))
    assert extract_records(dialogues, tracker, records.append) is None
    assert records == read_predictions(GOLDENS / "predictions.jsonl")[0]
