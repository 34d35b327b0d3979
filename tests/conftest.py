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
from dstgraph.dialogue import DialogueState, Speaker, StateTriple, state_triple
from dstgraph.graph import EdgeError, NodeId, NodeKind, StateGraph, build_graph
from dstgraph.metrics import TrackingCounts

# Every hypothesis test draws the same examples on every run (a seed from
# the test itself, no example database), so a failure seen in CI reproduces
# locally; each test keeps its default example count.  The deep profile,
# chosen with --hypothesis-profile=deep, draws 20 times as many.
settings.register_profile("deterministic", derandomize=True)
settings.register_profile(
    "deep", derandomize=True, max_examples=20 * settings.default.max_examples
)
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


# The reference readers and writers below are the straightforward forms
# of the package's own: each record decoded by json.loads and checked
# field by field, each state's triples visited in sorted order, each node
# record encoded by json.dumps.  The package's forms must return equal
# objects, write the same bytes and raise the same errors.


def reference_read_json_lines(path):
    """The reference JSONL reader: (line number, object) for each
    non-blank line, each decoded by json.loads."""
    for lineno, (_, line) in enumerate(datasets._lines(path), start=1):
        if line.strip():
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            yield lineno, rec


def reference_state_from_jsonable(items) -> DialogueState:
    """The reference state decoder: one triple per item, latest key wins."""
    return DialogueState(state_triple(i["domain"], i["slot"], i["value"]) for i in items)


def _reference_prediction(rec: dict, seen) -> datasets.Prediction:
    for field in ("dialogue_id", "turn", "predicted_state"):
        if field not in rec:
            raise ValueError(f"no {field!r} key")
    key = dialogue_id, turn = rec["dialogue_id"], rec["turn"]
    if not isinstance(dialogue_id, str):
        raise ValueError(f"dialogue_id must be str, got {dialogue_id!r}")
    if type(turn) is not int:
        raise ValueError(f"turn must be int, got {turn!r}")
    if key in seen:
        raise ValueError(f"duplicate (dialogue_id, turn) {key}")
    seen.add(key)
    try:
        state = reference_state_from_jsonable(rec["predicted_state"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed predicted_state: {exc!r}") from exc
    diagnostics = rec.get("diagnostics", [])
    if not isinstance(diagnostics, list) or not all(
        isinstance(d, dict) and "kind" in d for d in diagnostics
    ):
        raise ValueError(f"malformed diagnostics: {diagnostics!r}")
    parse_failed = any(d["kind"] == "parse_failure" for d in diagnostics)
    return datasets.Prediction(dialogue_id, turn, state, parse_failed)


def reference_iter_predictions(path, seen=None):
    """The reference predictions reader: every record checked in file
    order; a line that is not a JSON object is named ahead of any broken
    record, wherever it is."""
    seen = set() if seen is None else seen
    lines = reference_read_json_lines(path)
    number = 0
    for _, rec in lines:
        if rec.get(META_KEY) == "meta":
            continue
        number += 1
        try:
            prediction = _reference_prediction(rec, seen)
        except ValueError as exc:
            for _ in lines:
                pass
            raise ValueError(f"{path}: prediction record {number}: {exc}") from exc
        yield prediction


def reference_build_graph(states) -> StateGraph:
    """The reference graph builder: every triple of every state visited,
    in sorted order within each state."""
    nodes: list[NodeId] = []
    domain_index: dict[str, int] = {}
    slotvalue_index: dict[tuple[str, str], int] = {}
    used_sv_labels: set[str] = set()
    edges: set[tuple[int, int]] = set()
    for state in states:
        for t in state.triples():
            if t.is_none:
                continue
            if t.domain not in domain_index:
                domain_index[t.domain] = len(nodes)
                nodes.append(NodeId(len(nodes), NodeKind.DOMAIN, t.domain))
            pair = (t.slot, t.value)
            if pair not in slotvalue_index:
                label = f"{t.slot}-{t.value}"
                k = 2
                while label in used_sv_labels:
                    label = f"{t.slot}-{t.value}#{k}"
                    k += 1
                used_sv_labels.add(label)
                slotvalue_index[pair] = len(nodes)
                nodes.append(NodeId(len(nodes), NodeKind.SLOT_VALUE, label))
            d, v = domain_index[t.domain], slotvalue_index[pair]
            edges.add((d, v) if d < v else (v, d))
    slot_values = {idx: pair for pair, idx in slotvalue_index.items()}
    return StateGraph(nodes, list(edges), slot_values)


def reference_write_node_table(g: StateGraph, path) -> None:
    """The reference node-table writer: each node's record by json.dumps."""
    lines = []
    for node in g.nodes:
        rec: dict = {"index": node.index, "kind": node.kind.value, "label": node.label}
        if node.kind is NodeKind.SLOT_VALUE:
            slot, value = g.slot_values[node.index]
            rec["slot"] = slot
            rec["value"] = value
        lines.append(json.dumps(rec, ensure_ascii=False) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def reference_load_graph(edge_path, node_path) -> StateGraph:
    """The reference graph loader: each node line checked field by field,
    each edge line split and parsed by int(), one StateGraph build."""
    nodes: list[NodeId] = []
    slot_values: dict[int, tuple[str, str]] = {}
    for lineno, rec in reference_read_json_lines(node_path):
        try:
            index = rec["index"]
            if type(index) is not int:
                raise ValueError(f"index must be an int, got {index!r}")
            kind = NodeKind(rec["kind"])
            label = rec["label"]
            if not isinstance(label, str):
                raise ValueError(f"label must be a str, got {label!r}")
            if kind is NodeKind.SLOT_VALUE:
                slot = rec["slot"]
                if not isinstance(slot, str):
                    raise ValueError(f"slot must be a str, got {slot!r}")
                value = rec["value"]
                if not isinstance(value, str):
                    raise ValueError(f"value must be a str, got {value!r}")
                slot_values[index] = (slot, value)
            nodes.append(NodeId(index, kind, label))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{node_path}:{lineno}: {exc!r}") from exc
    nodes.sort(key=lambda n: n.index)
    parsed: list[int] = []  # line number, i and j of each edge line
    fault = lineno = None
    try:
        lines = Path(edge_path).read_text(encoding="utf-8").split("\n")
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                i, j = line.split()
                i, j = int(i), int(j)
                if not (-(2**63) <= i < 2**63 and -(2**63) <= j < 2**63):
                    raise EdgeError(nodes, i, j, row=len(parsed) // 3)
                parsed += lineno, i, j
    except (OSError, ValueError) as exc:
        fault = exc
    rows = np.array(parsed, dtype=np.int64).reshape(-1, 3)
    try:
        graph = StateGraph(nodes, rows[:, 1:], slot_values)
    except EdgeError as exc:
        fault, lineno = exc, rows[exc.row, 0]
    except ValueError as exc:
        raise ValueError(f"{node_path}: {exc}") from exc
    if fault is None:
        return graph
    if lineno is None:
        raise fault
    raise ValueError(f"{edge_path}:{lineno}: {ValueError(*fault.args)!r}") from fault


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
