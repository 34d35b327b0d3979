import itertools
import json
import os
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import dstgraph
from dstgraph import datasets
from dstgraph.datasets import (
    META_KEY,
    AnnotatedDialogue,
    CorpusFormat,
    LoadResult,
    write_json_lines,
)
from dstgraph.dialogue import DialogueState, Speaker, StateTriple
from dstgraph.graph import StateGraph, build_graph
from dstgraph.metrics import TrackingCounts

# Every hypothesis test draws the same examples on every run (a seed from
# the test itself, no example database), so a failure seen in CI reproduces
# locally; each test keeps its default example count.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def make_triple(domain: str, slot: str, value: str) -> StateTriple:
    return StateTriple(domain=domain, slot=slot, value=value)


def make_state(*triples: tuple[str, str, str]) -> DialogueState:
    return DialogueState(make_triple(*t) for t in triples)


def tracking_counts(pairs) -> TrackingCounts:
    """The counts of (predicted, gold) state pairs, each turn added as
    `evaluate` adds it: as the two states' key→value maps."""
    counts = TrackingCounts()
    for pred, gold in pairs:
        counts.add(pred.value_by_key(), gold.value_by_key())
    return counts


def random_states(rng: np.random.Generator, n_states: int, max_triples: int = 10):
    """Random dialogue states over a small closed vocabulary."""
    domains = ["restaurant", "hotel", "attraction", "taxi", "train"]
    slots = ["area", "food", "stars", "type", "name", "day"]
    values = ["centre", "north", "cheap", "4", "museum", "thai", "none"]
    states = []
    for _ in range(n_states):
        k = int(rng.integers(0, max_triples + 1))
        triples = [
            make_triple(
                domains[rng.integers(len(domains))],
                slots[rng.integers(len(slots))],
                values[rng.integers(len(values))],
            )
            for _ in range(k)
        ]
        states.append(DialogueState(triples))
    return states


def random_bipartite_graph(
    rng: np.random.Generator, n_domains: int, n_slotvalues: int, p: float
) -> StateGraph:
    """Random state graph built through the public constructor path.

    Guarantees every node appears by giving slot-value j a backbone edge
    to domain j % n_domains, then adds independent extra edges with
    probability p.
    """
    states = []
    for j in range(n_slotvalues):
        triples = [(f"d{j % n_domains}", f"s{j}", f"v{j}")]
        for d in range(n_domains):
            if d != j % n_domains and rng.random() < p:
                triples.append((f"d{d}", f"s{j}", f"v{j}"))
        states.append(make_state(*triples))
    return build_graph(states)


def edge_set(edges) -> set[tuple[int, int]]:
    """The (i, j) rows of an edge array as a set of int pairs."""
    return set(map(tuple, np.asarray(edges).tolist()))


class FakeResponse:
    """A chat-completions HTTP response for fake sessions."""

    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self._text = text

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


def completion_payload(content):
    return {"choices": [{"message": {"content": content}}]}


def write_predictions(path, records, meta: dict | None = None) -> None:
    """The reference predictions writer: ``records`` as UTF-8 JSONL, headed,
    when ``meta`` is given, by a meta line tagged record_type=meta.  The
    file is replaced only once every record is written.  `PredictionsSpool`
    must write the same bytes."""
    head = [] if meta is None else [{META_KEY: "meta", **meta}]
    write_json_lines(path, itertools.chain(head, records))


def reference_load_corpus(path, format: CorpusFormat | None = None) -> LoadResult:
    """The reference corpus loader: the whole file read at once, each
    record parsed in file order (a classic document's entries sorted by
    id), a record that does not parse skipped and counted, and so is a
    dialogue whose id an earlier one has.  `CorpusReader` must read these
    dialogues in dialogue_id order, skip as many records and raise the
    same errors."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    if format is CorpusFormat.PLAIN_JSONL or (format is None and p.suffix == ".jsonl"):
        parse = datasets._plain_dialogue
        records = (line for _, line in datasets._lines(p) if line.strip())
    else:
        last = deque(maxlen=1)  # the (key, value) pairs of the object decoded last
        text = p.read_text(encoding="utf-8")
        try:
            raw = json.loads(text, object_pairs_hook=lambda kv: last.append(kv) or dict(kv))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if format is None and isinstance(raw, dict):
            format = CorpusFormat.MULTIWOZ_JSON
        elif format is None and isinstance(raw, list):
            format = CorpusFormat.SGD_JSON
        if format is CorpusFormat.MULTIWOZ_JSON:
            if not isinstance(raw, dict):
                raise ValueError(f"{path}: expected a dialogue_id -> dialogue object mapping")
            # the outermost object is decoded last: its entries in file order,
            # a repeated id too, which the stable sort keeps after the first
            parse, records = datasets._multiwoz_dialogue, sorted(last[0], key=lambda kv: kv[0])
        elif format is CorpusFormat.SGD_JSON:
            if not isinstance(raw, list):
                raise ValueError(f"{path}: expected a list of dialogue objects")
            parse, records = datasets._sgd_dialogue, raw
        else:
            raise ValueError(f"unrecognized corpus shape in {path}")
    dialogues = {}
    skipped = 0
    for record in records:
        try:
            dialogue = parse(record)
        except datasets._MALFORMED:
            skipped += 1
            continue
        if dialogues.setdefault(dialogue.dialogue_id, dialogue) is not dialogue:
            skipped += 1  # a repeated id: the first dialogue read keeps it
    if not dialogues:
        raise ValueError(f"no valid dialogues in {path} ({skipped} skipped)")
    return LoadResult(dialogues=tuple(dialogues.values()), skipped=skipped)


def sgd_record(d: AnnotatedDialogue) -> dict:
    """``d`` as a schema-guided record: one frame per domain of each gold state."""
    gold = iter(d.gold_states)
    turns = []
    for turn in d.turns:
        entry = {"speaker": turn.speaker.value.upper(), "utterance": turn.text}
        if turn.speaker is Speaker.USER:
            frames: dict[str, dict] = {}
            for t in next(gold).triples():
                frames.setdefault(t.domain, {})[t.slot] = [t.value]
            entry["frames"] = [
                {"service": domain, "state": {"slot_values": values}}
                for domain, values in frames.items()
            ]
        turns.append(entry)
    return {"dialogue_id": d.dialogue_id, "turns": turns}


def child_env() -> dict:
    """The environment for Python subprocesses (CLI runs, demos): PYTHONPATH
    leads with the absolute directory holding the imported dstgraph, so a
    child started in a tmp cwd runs the same code this process tests (a
    relative PYTHONPATH such as `src` would resolve against the child's cwd)."""
    package_root = str(Path(dstgraph.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    paths = [package_root, inherited] if inherited else [package_root]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
