"""The package's readers and writers against their references in
conftest.py: the same objects, node order included, the same exception
type and message, and the same bytes, on valid files and mutated ones.

CI also runs this module under the deep hypothesis profile
(``--hypothesis-profile=deep``), which draws 20 times the examples."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dstgraph import datasets
from dstgraph.datasets import iter_predictions, json_line, state_from_jsonable
from dstgraph.dialogue import DialogueState, StateTriple
from dstgraph.graph import (
    NodeId,
    NodeKind,
    StateGraph,
    build_graph,
    load_graph,
    planted_graph,
    write_edge_list,
    write_node_table,
)

from conftest import (
    reference_build_graph,
    reference_iter_predictions,
    reference_load_graph,
    reference_state_from_jsonable,
    reference_write_node_table,
)


def outcome(run):
    """("ok", what ``run`` returns) or ("raised", the exception's type and text)."""
    try:
        return "ok", run()
    except Exception as exc:  # the type is compared, so no error is hidden
        return "raised", type(exc), str(exc)


def drained(items):
    """What ``items`` yields before it ends or raises, and the type and
    text of the exception that ended it, or None."""
    got = []
    try:
        for item in items:
            got.append(item)
    except Exception as exc:
        return got, (type(exc), str(exc))
    return got, None


def same_graph(a: StateGraph, b: StateGraph) -> bool:
    return (
        a.nodes == b.nodes
        and a.slot_values == b.slot_values
        and np.array_equal(a.edges, b.edges)
        and np.array_equal(a.edge_keys, b.edge_keys)
    )


def graph_outcome(run):
    """``outcome`` of a graph-returning call, the graph as comparable parts."""
    result = outcome(run)
    if result[0] == "ok":
        g = result[1]
        return "ok", g.nodes, g.slot_values, g.edges.tolist()
    return result


# --- one JSON line ---

_floats = st.floats(allow_nan=True, allow_infinity=True)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _floats | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@pytest.mark.parametrize("rec", [
    {"text": "café ☕ naïve – 日本語", "emoji": "\U0001f600"},
    {"escapes": "quote \" backslash \\ tab \t nl \n cr \r nul \x00 del \x7f"},
    {"separators": "\u2028 \u2029 \x85 \x0b \x0c \x1c"},
    {"nan": math.nan, "inf": math.inf, "-inf": -math.inf},
    {"floats": [0.1, 1e300, -0.0, 5e-324, 1.7976931348623157e308, 2.0**53 + 1]},
    {"ints": [0, -1, 2**64, True, False, None], "nested": {"a": [{"b": []}]}},
    {"": "empty key", "ключ": "значение"},
])
def test_json_line_writes_the_bytes_json_dumps_writes(rec):
    assert json_line(rec) == json.dumps(rec, ensure_ascii=False) + "\n"


@given(st.dictionaries(st.text(max_size=8), _json_values, max_size=5))
def test_json_line_writes_the_bytes_json_dumps_writes_for_any_record(rec):
    assert json_line(rec) == json.dumps(rec, ensure_ascii=False) + "\n"


_pads = st.sampled_from(["", " ", "\t", "\n", "\r\n", "\r", "\x0c", "\ufeff", "\u2028", " x"])


@given(
    st.one_of(
        st.dictionaries(st.text(max_size=4), _json_values, max_size=3).map(json.dumps),
        _json_values.map(json.dumps),
        st.text(max_size=12),
    ),
    _pads,
    _pads,
)
def test_a_json_line_is_read_as_json_loads_reads_it(text, before, after):
    line = before + text + after
    # repr tells 1 from 1.0 and True, and reads nan as itself
    assert outcome(lambda: repr(datasets._json_value(line))) == outcome(
        lambda: repr(json.loads(line))
    )


# --- states ---

_words = st.sampled_from(["hotel", "Hotel ", " area", "area", "a-b", "b", "a", "b-c", "c",
                          "none", "NONE", "", " ", "café", "x\u2028y"])
_fields = st.one_of(_words, _words, st.none(), st.integers(-2, 2), st.floats(0, 1),
                    st.lists(st.integers(0, 1), max_size=1), st.booleans())


@st.composite
def state_items(draw):
    """A predicted_state value: mostly lists of well-formed items, with
    dropped keys, wrong types and non-list states mixed in."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_json_values)
    items = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            items.append(draw(_json_values))
            continue
        item = {"domain": draw(_words), "slot": draw(_words), "value": draw(_words)}
        if kind == 1:
            del item[draw(st.sampled_from(list(item)))]
        elif kind == 2:
            item[draw(st.sampled_from(list(item)))] = draw(_fields)
        items.append(item)
    return items


@given(state_items())
def test_state_decoding_matches_the_reference(items):
    got, want = outcome(lambda: state_from_jsonable(items)), outcome(
        lambda: reference_state_from_jsonable(items)
    )
    assert got == want
    if got[0] == "ok":
        assert got[1].triples() == want[1].triples()


# --- prediction files ---

_vocab = {
    "domain": ["hotel", "Hotel", "taxi", "train"],
    "slot": ["area", "day", "a-b", "a"],
    "value": ["north", "b-c", "c", "none", "b", " North "],
}


@st.composite
def dialogue_records(draw, n_dialogues=4):
    """Prediction records whose states accumulate turn by turn, so each
    restates the triples before it, at times with a changed value."""
    records = []
    for d in range(draw(st.integers(1, n_dialogues))):
        state: dict = {}
        for turn in range(draw(st.integers(1, 4))):
            for _ in range(draw(st.integers(0, 3))):
                domain, slot, value = (draw(st.sampled_from(_vocab[f])) for f in _vocab)
                state[domain, slot] = value
            items = [{"domain": k[0], "slot": k[1], "value": v} for k, v in sorted(state.items())]
            diagnostics = draw(st.lists(st.fixed_dictionaries(
                {"kind": st.sampled_from(["parse_failure", "empty_field"]),
                 "detail": st.text(max_size=3)}), max_size=2))
            records.append({"dialogue_id": f"d{d}", "turn": turn,
                            "predicted_state": items, "diagnostics": diagnostics})
    return records


def as_record(line: str):
    """The JSON object on ``line``, or None for a line that holds none."""
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    return rec if isinstance(rec, dict) else None


_bad_lines = ["not json", "[1]", "1", '"text"', "null", "{", '{"a": 1} x', "\ufeff{}",
              "{}", '{"record_type": "meta"}', "", "   ", "\t"]


@st.composite
def mutated_prediction_file(draw):
    """The bytes of a predictions file: a meta line, records, and up to
    three mutations of its records, lines or bytes."""
    records = draw(dialogue_records())
    lines = [json.dumps({"record_type": "meta", "run": 1})]
    lines += [json.dumps(r, ensure_ascii=draw(st.booleans())) for r in records]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 1
        kind = draw(st.integers(0, 6))
        rec = as_record(lines[at]) if at < len(lines) else None
        if kind == 0 and rec is not None:  # drop or retype some fields
            for field in draw(st.lists(st.sampled_from(
                    ["dialogue_id", "turn", "predicted_state", "diagnostics"]), unique=True)):
                if draw(st.booleans()):
                    rec.pop(field, None)
                else:
                    rec[field] = draw(_json_values)
            lines[at] = json.dumps(rec)
        elif kind == 1 and rec is not None:  # a broken state
            rec["predicted_state"] = draw(state_items())
            lines[at] = json.dumps(rec)
        elif kind == 2 and at < len(lines):  # a repeated (dialogue_id, turn)
            lines.insert(at, lines[at])
        elif kind == 3:
            lines.insert(at, draw(st.sampled_from(_bad_lines)))
        elif kind == 4 and rec is not None:  # malformed diagnostics
            rec["diagnostics"] = draw(st.sampled_from(
                [None, {}, "x", [1], [{}], [{"kind": 1}], [{"detail": "d"}], [[]]]))
            lines[at] = json.dumps(rec)
        elif kind == 5:  # padding the value: json.loads reads it, raw_decode does not
            lines[at - 1] = draw(st.sampled_from([" ", "\t"])) + lines[at - 1] + " "
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    data = (ending.join(lines) + draw(st.sampled_from([ending, ""]))).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:  # not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def write_bytes(directory, name, data: bytes) -> Path:
    path = Path(directory) / name
    path.write_bytes(data)
    return path


@given(mutated_prediction_file())
def test_predictions_are_read_as_the_reference_reads_them(data):
    with tempfile.TemporaryDirectory() as d:
        path = write_bytes(d, "pred.jsonl", data)
        got = drained(iter_predictions(path))
        want = drained(reference_iter_predictions(path))
    assert got == want
    assert [p.state.triples() for p in got[0]] == [p.state.triples() for p in want[0]]


def test_a_line_that_is_not_json_is_named_ahead_of_an_earlier_broken_record(tmp_path):
    record = {"dialogue_id": "d", "turn": 0, "predicted_state": [{"domain": "x"}]}
    path = tmp_path / "pred.jsonl"
    path.write_text(json.dumps(record) + "\nnot json\n", encoding="utf-8")
    got = outcome(lambda: list(iter_predictions(path)))
    assert got == outcome(lambda: list(reference_iter_predictions(path)))
    assert got[1:] == (ValueError, f"{path}:2: Expecting value: line 1 column 1 (char 0)")


# --- graphs ---

def triples_of(draw, n):
    return [tuple(draw(st.sampled_from(_vocab[f])) for f in _vocab) for _ in range(n)]


@st.composite
def dialogue_states(draw):
    """Accumulating dialogue states: each restates the one before, with
    its triples shared or made anew, and at times a changed value."""
    states = []
    for _ in range(draw(st.integers(0, 5))):
        by_key: dict = {}
        for _ in range(draw(st.integers(1, 4))):
            for fields in triples_of(draw, draw(st.integers(0, 3))):
                t = StateTriple(*fields)
                by_key[t.key] = t
            if draw(st.booleans()):  # equal triples, not the same objects
                states.append(DialogueState(StateTriple(*k, t.value) for k, t in by_key.items()))
            else:
                states.append(DialogueState(by_key.values()))
    return states


@given(dialogue_states())
def test_build_graph_matches_the_reference(states):
    assert graph_outcome(lambda: build_graph(states)) == graph_outcome(
        lambda: reference_build_graph(states)
    )


def test_build_graph_matches_the_reference_on_predictions_files(tmp_path):
    # states as iter_predictions makes them: restated triples are shared
    path = tmp_path / "pred.jsonl"
    rng = np.random.default_rng(3)
    lines = []
    for d in range(40):
        state: dict = {}
        for turn in range(int(rng.integers(1, 6))):
            for _ in range(int(rng.integers(0, 3))):
                key = (f"dom{rng.integers(4)}", f"slot{rng.integers(6)}")
                state[key] = str(rng.choice(["v1", "v2", "none", "v-3", "3"]))
            items = [{"domain": a, "slot": b, "value": v} for (a, b), v in state.items()]
            rec = {"dialogue_id": f"d{d}", "turn": turn, "predicted_state": items}
            lines.append(json.dumps(rec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got = build_graph(p.state for p in iter_predictions(path))
    want = reference_build_graph(p.state for p in reference_iter_predictions(path))
    assert same_graph(got, want)


_labels = st.text(max_size=6)


@st.composite
def any_graph(draw):
    """A graph of arbitrary text labels, built through StateGraph."""
    n_domains = draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(_labels, _labels), unique=True, max_size=5))
    domains = draw(st.lists(_labels, min_size=n_domains, max_size=n_domains, unique=True))
    sv_labels = draw(st.lists(_labels, min_size=len(pairs), max_size=len(pairs), unique=True))
    nodes = [NodeId(i, NodeKind.DOMAIN, label) for i, label in enumerate(domains)]
    nodes += [NodeId(n_domains + k, NodeKind.SLOT_VALUE, label)
              for k, label in enumerate(sv_labels)]
    slot_values = {n_domains + k: pair for k, pair in enumerate(pairs)}
    edges = [(draw(st.integers(0, n_domains - 1)), n_domains + k) for k in range(len(pairs))]
    return StateGraph(nodes, edges, slot_values)


def node_table_bytes(g, writer) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "g.nodes.jsonl"
        writer(g, path)
        return path.read_bytes()


@given(st.one_of(any_graph(), dialogue_states().map(reference_build_graph)))
def test_the_node_table_is_written_as_the_reference_writes_it(g):
    assert node_table_bytes(g, write_node_table) == node_table_bytes(g, reference_write_node_table)


@pytest.mark.parametrize("nodes, slot_values", [
    # an index that equals its position without being an int
    ([NodeId(0, NodeKind.DOMAIN, "d"), NodeId(True, NodeKind.SLOT_VALUE, "s-v")], {1: ("s", "v")}),
    ([NodeId(0.0, NodeKind.DOMAIN, "d"), NodeId(1, NodeKind.SLOT_VALUE, "s-v")], {1: ("s", "v")}),
    # texts that are not strs
    ([NodeId(0, NodeKind.DOMAIN, 7), NodeId(1, NodeKind.SLOT_VALUE, "s-v")], {1: ("s", "v")}),
    ([NodeId(0, NodeKind.DOMAIN, "d"), NodeId(1, NodeKind.SLOT_VALUE, "s-v")], {1: ("s", 2.5)}),
])
def test_a_node_table_of_other_types_is_written_as_json_dumps_writes_it(nodes, slot_values):
    g = StateGraph(nodes, [(0, 1)], slot_values)
    assert node_table_bytes(g, write_node_table) == node_table_bytes(g, reference_write_node_table)


_edge_faults = ["0 0", "x 1", "1", "1 2 3", f"{2**64} 1", f"1 {-2**63}", f"{2**70} {2**70}",
                "-1 2", " 0  1 ", "0\t1", "+0 1", "00 01", "\u0660 1", "0 1\x0c", "0 1\u2028",
                "", "   ", "1 0", "0 99", "1_0 2", "0 1.0", "9" * 19 + " 1"]
_node_faults = [
    ("drop", "index"), ("drop", "kind"), ("drop", "label"), ("drop", "slot"), ("drop", "value"),
    ("set", "index"), ("set", "kind"), ("set", "label"), ("set", "slot"), ("set", "value"),
]


@st.composite
def mutated_graph_files(draw):
    """A graph's node table and edge list as written, then up to three
    mutations of their lines or bytes; the edge list may be missing."""
    g = reference_build_graph(draw(dialogue_states()))
    node_lines = [json.dumps(json.loads(line)) for line in
                  node_table_bytes(g, reference_write_node_table).decode().split("\n")[:-1]]
    edge_lines = [f"{i} {j}" for i, j in g.edges.tolist()]
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(["node", "edge"]))
        lines = node_lines if target == "node" else edge_lines
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.integers(0, 4))
        rec = as_record(lines[at]) if at < len(lines) else None
        if target == "edge" and kind < 3:
            lines.insert(at, draw(st.sampled_from(_edge_faults)))
        elif target == "node" and kind < 2 and rec is not None:
            how, field = draw(st.sampled_from(_node_faults))
            if how == "drop":
                rec.pop(field, None)
            else:
                rec[field] = draw(st.one_of(_json_values, st.sampled_from(
                    ["domain", "slot_value", "DOMAIN", "x", 0, 1, len(lines)])))
            lines[at] = json.dumps(rec)
        elif kind == 2 and at < len(lines):  # a repeated line
            lines.insert(at, lines[at])
        elif kind == 3 and len(lines) > 1:  # two lines swapped
            i, j = draw(st.permutations(range(len(lines))))[:2]
            lines[i], lines[j] = lines[j], lines[i]
        elif at < len(lines):
            lines.insert(at, draw(st.sampled_from(_bad_lines)))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    nodes = (ending.join(node_lines) + ending).encode("utf-8")
    edges = (ending.join(edge_lines) + draw(st.sampled_from([ending, ""]))).encode("utf-8")
    corrupt = draw(st.integers(0, 19))
    if corrupt == 0:
        nodes = nodes + b"\xff"
    elif corrupt == 1:
        edges = b"\xff" + edges
    elif corrupt == 2:
        edges = None  # no edge list
    return nodes, edges


@given(mutated_graph_files())
def test_graph_files_are_loaded_as_the_reference_loads_them(files):
    nodes, edges = files
    with tempfile.TemporaryDirectory() as d:
        node_path = write_bytes(d, "g.nodes.jsonl", nodes)
        edge_path = Path(d) / "g.edges.txt"
        if edges is not None:
            edge_path.write_bytes(edges)
        got = graph_outcome(lambda: load_graph(edge_path, node_path))
        want = graph_outcome(lambda: reference_load_graph(edge_path, node_path))
    assert got == want


@pytest.mark.parametrize("g", [planted_graph(), planted_graph(5, 40, 0.3, 0.1, seed=2)],
                         ids=["planted", "planted-larger"])
def test_written_graphs_load_as_the_reference_loads_them(g, tmp_path):
    edge_path, node_path = tmp_path / "g.edges.txt", tmp_path / "g.nodes.jsonl"
    write_edge_list(g, edge_path)
    write_node_table(g, node_path)
    loaded = load_graph(edge_path, node_path)
    assert same_graph(loaded, reference_load_graph(edge_path, node_path))
    assert same_graph(loaded, g)
