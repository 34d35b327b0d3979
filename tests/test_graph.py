import dataclasses

import numpy as np
import pytest

from dstgraph.datasets import fixture_corpus_path, load_corpus
from dstgraph.dialogue import DialogueState
from dstgraph import graph as graph_module
from dstgraph.graph import (
    EdgeError,
    NodeId,
    NodeKind,
    StateGraph,
    build_graph,
    dialogue_domains,
    load_graph,
    planted_graph,
    split_edges,
    write_edge_list,
    write_node_table,
)
from dstgraph.vgae import Propagation

from conftest import edge_set, make_state, random_bipartite_graph, random_states


def small_graph() -> StateGraph:
    return build_graph(
        [
            make_state(("hotel", "area", "east"), ("hotel", "stars", "4")),
            make_state(("restaurant", "area", "east")),
            make_state(("restaurant", "food", "thai")),
        ]
    )


def test_build_graph_nodes_and_edges():
    g = small_graph()
    domains = [n for n in g.nodes if n.kind is NodeKind.DOMAIN]
    values = [n for n in g.nodes if n.kind is NodeKind.SLOT_VALUE]
    assert [n.label for n in domains] == ["hotel", "restaurant"]
    assert {n.label for n in values} == {"area-east", "stars-4", "food-thai"}
    # hotel-area_east, hotel-stars_4, restaurant-area_east, restaurant-food_thai
    assert len(g.edges) == 4
    for i, j in g.edges:
        assert i < j
        assert {g.nodes[i].kind, g.nodes[j].kind} == {
            NodeKind.DOMAIN,
            NodeKind.SLOT_VALUE,
        }


def test_build_graph_first_seen_indexing():
    g = small_graph()
    assert g.nodes[0].label == "hotel"  # triples sorted within a state
    assert [n.index for n in g.nodes] == list(range(g.n_nodes))


def test_build_graph_skips_none_values():
    g = build_graph([make_state(("hotel", "area", "east"), ("hotel", "name", "none"))])
    assert {n.label for n in g.nodes} == {"hotel", "area-east"}


def test_build_graph_deduplicates_across_states():
    g = build_graph([make_state(("hotel", "area", "east"))] * 5)
    assert g.n_nodes == 2
    assert len(g.edges) == 1


def test_build_graph_reads_a_generator_as_it_reads_a_list(rng):
    # graph feeds it the states straight from the predictions file
    states = random_states(rng, 40)
    from_list, from_generator = build_graph(states), build_graph(s for s in states)
    assert from_generator.nodes == from_list.nodes
    assert from_generator.slot_values == from_list.slot_values
    assert np.array_equal(from_generator.edges, from_list.edges)


def test_build_graph_disambiguates_label_collisions():
    # ("a", "b-c") and ("a-b", "c") share the composite label "a-b-c"
    g = build_graph([make_state(("d1", "a", "b-c"), ("d1", "a-b", "c"))])
    labels = {n.label for n in g.nodes if n.kind is NodeKind.SLOT_VALUE}
    assert labels == {"a-b-c", "a-b-c#2"}
    pairs = {g.nodes[i].label: pair for i, pair in g.slot_values.items()}
    assert pairs == {"a-b-c": ("a", "b-c"), "a-b-c#2": ("a-b", "c")}


def test_state_graph_validates_structure():
    d = NodeId(0, NodeKind.DOMAIN, "d")
    v = NodeId(1, NodeKind.SLOT_VALUE, "s-v")
    sv = {1: ("s", "v")}
    with pytest.raises(ValueError):
        StateGraph([v, d], [], sv)  # indices out of order
    with pytest.raises(ValueError):
        StateGraph([d, NodeId(1, NodeKind.DOMAIN, "d")], [], {})  # duplicate label
    with pytest.raises(ValueError):
        StateGraph([d, v], [(0, 0)], sv)  # self-loop
    with pytest.raises(ValueError):
        StateGraph(
            [d, v, NodeId(2, NodeKind.DOMAIN, "d2")], [(0, 2)], sv
        )  # domain-domain edge
    with pytest.raises(ValueError):
        StateGraph([d, v], [(0, 7)], sv)  # unknown endpoint
    for edges in ([(0, 1.0)], [(0.7, 1.2)], [("0", "1")], [(0, 1, 1)]):
        with pytest.raises(ValueError, match="edges must be integer"):
            StateGraph([d, v], edges, sv)  # never truncated to (0, 1)


def reference_edge_check(nodes, i, j):
    """The per-edge rule the vectorised check replaced: the edge (i, j) as
    (min, max), if it joins a Domain node of ``nodes`` to a SlotValue node."""
    if i == j:
        raise ValueError("self-loops are not allowed")
    a, b = (i, j) if i < j else (j, i)
    if not (0 <= a and b < len(nodes)):
        raise ValueError(f"edge ({i}, {j}) references unknown node")
    if nodes[a].kind == nodes[b].kind:
        raise ValueError(f"edge ({i}, {j}) joins two {nodes[a].kind.value} nodes")
    return a, b


def test_edge_check_names_the_first_row_the_per_edge_rule_rejects(rng):
    rejected = 0
    for trial in range(300):
        n = int(rng.integers(1, 9))
        kinds = rng.random(n) < 0.4
        nodes = [
            NodeId(k, NodeKind.DOMAIN if kinds[k] else NodeKind.SLOT_VALUE, f"n{k}")
            for k in range(n)
        ]
        sv = {k: (f"s{k}", "v") for k in range(n) if not kinds[k]}
        domains, values = np.flatnonzero(kinds), np.flatnonzero(~kinds)
        rows = []
        for _ in range(int(rng.integers(0, 8))):
            # mostly good pairs in either orientation, repeated, plus
            # self-loops, same-kind pairs and endpoints out of range
            if len(domains) and len(values) and rng.random() < 0.8:
                pair = [int(rng.choice(domains)), int(rng.choice(values))]
                rows.append(pair[:: 1 if rng.random() < 0.5 else -1])
            else:
                rows.append([int(x) for x in rng.integers(-3, n + 3, size=2)])
            if rng.random() < 0.2:
                rows.append(rows[-1])
        want = None
        for row, (i, j) in enumerate(rows):
            try:
                reference_edge_check(nodes, i, j)
            except ValueError as exc:
                want = row, str(exc)
                break
        edges = np.array(rows, dtype=np.int64).reshape(-1, 2)
        if want is None:
            g = StateGraph(nodes, edges, sv)
            kept = sorted({reference_edge_check(nodes, i, j) for i, j in rows})
            assert g.edges.tolist() == [list(e) for e in kept]
            assert g.edge_keys.tolist() == [i * n + j for i, j in kept]
            assert g.edges.dtype == g.edge_keys.dtype == np.int64
        else:
            rejected += 1
            with pytest.raises(EdgeError) as caught:
                StateGraph(nodes, edges, sv)
            assert (caught.value.row, str(caught.value)) == want, trial
    assert 50 < rejected < 250


def test_graph_and_split_arrays_are_read_only(rng):
    g = random_bipartite_graph(rng, 3, 12, 0.3)
    split = split_edges(g, 0.85, 0.10, 0.05, seed=0)
    stored = [g.edges, g.edge_keys]
    stored += [getattr(split, f.name) for f in dataclasses.fields(split)]
    for array in stored:
        assert len(array) > 0
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_state_graph_slot_values_cover_exactly_the_slot_value_nodes():
    d = NodeId(0, NodeKind.DOMAIN, "d")
    v = NodeId(1, NodeKind.SLOT_VALUE, "s-v")
    w = NodeId(2, NodeKind.SLOT_VALUE, "s-w")
    for slot_values in ({}, {1: ("s", "v")}, {0: ("d", "x"), 1: ("s", "v"), 2: ("s", "w")}):
        with pytest.raises(ValueError, match="exactly the slot-value node indices"):
            StateGraph([d, v, w], [(0, 1)], slot_values)
    with pytest.raises(ValueError, match="share one"):
        StateGraph([d, v, w], [(0, 1)], {1: ("s", "v"), 2: ("s", "v")})
    g = StateGraph([d, v, w], [(0, 1)], {1: ("s", "v"), 2: ("s", "w")})
    assert g.slot_values == {1: ("s", "v"), 2: ("s", "w")}


def test_propagation_weights_are_read_only():
    g = small_graph()
    a_hat = Propagation(g.n_nodes, g.edges)
    for stored in (a_hat.rows, a_hat.cols, a_hat.weights):
        with pytest.raises(ValueError):
            stored[0] = 0


def test_propagation_matrix_symmetric_with_edge_pattern():
    g = small_graph()
    # Â @ I is Â exactly: each entry is one weight times 1 plus zeros
    a_hat = Propagation(g.n_nodes, g.edges) @ np.eye(g.n_nodes)
    assert a_hat.shape == (g.n_nodes, g.n_nodes)
    assert (a_hat == a_hat.T).all()
    assert (a_hat.diagonal() > 0).all()
    off_diagonal = {(int(i), int(j)) for i, j in zip(*np.nonzero(a_hat)) if i < j}
    assert off_diagonal == edge_set(g.edges)


def candidate_pairs(g: StateGraph) -> list[tuple[int, int]]:
    """All Domain x SlotValue pairs, normalized i < j, sorted: the per-pair
    reference for the vectorised non-edge enumeration."""
    domains = [n.index for n in g.nodes if n.kind is NodeKind.DOMAIN]
    values = [n.index for n in g.nodes if n.kind is NodeKind.SLOT_VALUE]
    return sorted((d, v) if d < v else (v, d) for d in domains for v in values)


def key_pairs(g: StateGraph, keys: np.ndarray) -> list[tuple[int, int]]:
    """The (i, j) pairs of keys i * n + j, in key order."""
    return [divmod(k, g.n_nodes) for k in keys.tolist()]


def test_candidate_pairs_and_non_edges_partition():
    g = small_graph()
    cands = candidate_pairs(g)
    n_domains = sum(1 for n in g.nodes if n.kind is NodeKind.DOMAIN)
    n_values = g.n_nodes - n_domains
    assert len(cands) == n_domains * n_values
    non = set(key_pairs(g, g.non_edge_keys()))
    assert non.isdisjoint(edge_set(g.edges))
    assert non | edge_set(g.edges) == set(cands)


def test_non_edges_equal_comprehension_reference(rng):
    graphs = [fixture_graph(), planted_graph(), small_graph()]
    for n_domains, p in ((1, 0.3), (4, 0.0), (5, 0.6)):
        graphs.append(random_bipartite_graph(rng, n_domains, 25, p))
    edgeless = StateGraph(
        [NodeId(0, NodeKind.DOMAIN, "d"), NodeId(1, NodeKind.SLOT_VALUE, "s-v")],
        [],
        {1: ("s", "v")},
    )
    assert key_pairs(edgeless, edgeless.non_edge_keys()) == [(0, 1)]
    for g in graphs + [edgeless]:
        # the per-pair comprehension the vectorised form replaced
        edges = edge_set(g.edges)
        reference = [p for p in candidate_pairs(g) if p not in edges]
        assert key_pairs(g, g.non_edge_keys()) == reference
        assert g.non_edge_keys().dtype == np.int64


def test_unobserved_pairs_equal_domain_major_reference(rng):
    graphs = [fixture_graph(), planted_graph(), small_graph()]
    for n_domains, p in ((1, 0.3), (4, 0.0), (5, 0.6)):
        graphs.append(random_bipartite_graph(rng, n_domains, 25, p))
    for g in graphs:
        domains = [n.index for n in g.nodes if n.kind is NodeKind.DOMAIN]
        values = [n.index for n in g.nodes if n.kind is NodeKind.SLOT_VALUE]
        edges = edge_set(g.edges)
        for subset in (domains, domains[1::2], domains[-1:], []):
            d_idx, sv_idx = g.unobserved_pairs(subset)
            reference = [
                (d, v) for d in subset for v in values
                if (min(d, v), max(d, v)) not in edges
            ]
            assert list(zip(d_idx.tolist(), sv_idx.tolist())) == reference


def fixture_graph() -> StateGraph:
    corpus = load_corpus(fixture_corpus_path())
    return build_graph([s for d in corpus.dialogues for s in d.gold_states])


def test_split_edges_negatives_equal_list_based_draws(rng):
    graphs = [
        fixture_graph(),
        planted_graph(),
        random_bipartite_graph(rng, 3, 30, 0.3),
        random_bipartite_graph(rng, 5, 40, 0.5),
    ]
    for g in graphs:
        non_edges = key_pairs(g, g.non_edge_keys())
        for seed in range(6):
            split = split_edges(g, 0.85, 0.10, 0.05, seed=seed)
            # the list-based draws: edge order first, then indices into non_edges
            reference = np.random.default_rng(seed)
            reference.permutation(len(g.edges))
            neg_order = reference.permutation(len(non_edges))
            n_test, n_val = len(split.test), len(split.val)
            assert list(map(tuple, split.neg_test.tolist())) == [
                non_edges[i] for i in neg_order[:n_test]
            ]
            assert list(map(tuple, split.neg_val.tolist())) == [
                non_edges[i] for i in neg_order[n_test : n_test + n_val]
            ]
            assert split.neg_test.dtype == split.neg_val.dtype == np.int64


def test_split_edges_partitions_exactly(rng):
    g = random_bipartite_graph(rng, 4, 30, 0.3)
    split = split_edges(g, 0.85, 0.10, 0.05, seed=7)
    parts = [edge_set(split.train), edge_set(split.val), edge_set(split.test)]
    assert parts[0] | parts[1] | parts[2] == edge_set(g.edges)
    assert sum(len(p) for p in parts) == len(g.edges)
    assert parts[0].isdisjoint(parts[1]) and parts[0].isdisjoint(parts[2])
    assert parts[1].isdisjoint(parts[2])


def test_split_edges_sizes_within_one_of_fractions(rng):
    for _ in range(20):
        g = random_bipartite_graph(rng, 3, int(rng.integers(10, 40)), 0.25)
        e = len(g.edges)
        split = split_edges(g, 0.85, 0.10, 0.05, seed=int(rng.integers(10_000)))
        assert abs(len(split.test) - 0.10 * e) <= 1
        assert abs(len(split.val) - 0.05 * e) <= 1
        assert abs(len(split.train) - 0.85 * e) <= 1


def test_split_edges_negatives_are_non_edges(rng):
    g = random_bipartite_graph(rng, 4, 25, 0.3)
    split = split_edges(g, 0.85, 0.10, 0.05, seed=3)
    negatives = edge_set(split.neg_val) | edge_set(split.neg_test)
    assert negatives.isdisjoint(edge_set(g.edges))
    assert len(split.neg_val) == len(split.val)
    assert len(split.neg_test) == len(split.test)
    assert len(edge_set(split.neg_val)) == len(split.neg_val)  # without replacement
    assert edge_set(split.neg_val).isdisjoint(edge_set(split.neg_test))


def test_split_edges_deterministic_by_seed(rng):
    g = random_bipartite_graph(rng, 3, 20, 0.3)
    a = split_edges(g, 0.85, 0.10, 0.05, seed=11)
    b = split_edges(g, 0.85, 0.10, 0.05, seed=11)
    c = split_edges(g, 0.85, 0.10, 0.05, seed=12)

    def same(x, y):
        return all(
            np.array_equal(getattr(x, f.name), getattr(y, f.name))
            for f in dataclasses.fields(x)
        )

    assert same(a, b)
    assert not same(a, c)


def test_split_edges_validates_inputs(rng):
    g = random_bipartite_graph(rng, 3, 20, 0.3)
    with pytest.raises(ValueError):
        split_edges(g, 0.9, 0.2, 0.05, seed=0)  # sums past 1
    with pytest.raises(ValueError):
        split_edges(g, 1.0, 0.0, 0.0, seed=0)  # zero fractions
    tiny = build_graph([make_state(("d", "s", "v"))])
    with pytest.raises(ValueError):
        split_edges(tiny, 0.85, 0.10, 0.05, seed=0)


def test_dialogue_domains_found_and_missing():
    g = small_graph()
    index = {n.label: n.index for n in g.nodes}
    found = dialogue_domains(
        g,
        [
            make_state(("restaurant", "food", "thai"), ("spa", "service", "massage")),
            make_state(("hotel", "area", "east")),
        ],
    )
    assert found == sorted([index["hotel"], index["restaurant"]])
    # a known slot-value under an unknown domain names no domain
    assert dialogue_domains(g, [make_state(("spa", "area", "east"))]) == []


def test_dialogue_domains_none_names_the_domain():
    g = small_graph()
    found = dialogue_domains(g, [make_state(("hotel", "name", "none"))])
    assert [g.nodes[i].label for i in found] == ["hotel"]


def test_planted_graph_shape_and_determinism():
    g = planted_graph()
    assert g.n_nodes == 3 + 60
    assert {n.kind for n in g.nodes[:3]} == {NodeKind.DOMAIN}
    assert np.array_equal(g.edges, planted_graph().edges)
    assert not np.array_equal(g.edges, planted_graph(seed=43).edges)


def test_planted_graph_community_densities():
    g = planted_graph(n_domains=3, values_per_domain=20, seed=42)
    intra = inter = 0
    for d, v in g.edges:
        block = (v - 3) // 20
        if block == d:
            intra += 1
        else:
            inter += 1
    assert intra / 60 > 0.6  # intra_p = 0.8
    assert inter / 120 < 0.15  # inter_p = 0.05


def test_graph_write_load_round_trip(tmp_path, rng):
    g = random_bipartite_graph(rng, 3, 12, 0.3)
    write_edge_list(g, tmp_path / "g.edges.txt")
    write_node_table(g, tmp_path / "g.nodes.jsonl")
    g2 = load_graph(tmp_path / "g.edges.txt", tmp_path / "g.nodes.jsonl")
    assert np.array_equal(g2.edges, g.edges)
    assert [(n.index, n.kind, n.label) for n in g2.nodes] == [
        (n.index, n.kind, n.label) for n in g.nodes
    ]
    # the (slot, value) pairs survive the round trip
    assert g2.slot_values == g.slot_values


def write_graph(g, tmp_path):
    """Export ``g``; returns (edge path, node path)."""
    write_edge_list(g, tmp_path / "g.edges.txt")
    write_node_table(g, tmp_path / "g.nodes.jsonl")
    return tmp_path / "g.edges.txt", tmp_path / "g.nodes.jsonl"


def test_load_graph_checks_each_edge_once(tmp_path, rng, monkeypatch):
    # one StateGraph build checks every edge, on a good file and a bad one
    g = random_bipartite_graph(rng, 3, 12, 0.3)
    edge_path, node_path = write_graph(g, tmp_path)
    builds = []

    class Counting(StateGraph):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(graph_module, "StateGraph", Counting)
    assert np.array_equal(load_graph(edge_path, node_path).edges, g.edges)
    assert len(builds) == 1
    lines = edge_path.read_text().splitlines()
    edge_path.write_text("\n".join([*lines[:3], "0 0", *lines[3:]]) + "\n")
    builds.clear()
    with pytest.raises(ValueError, match=r"g\.edges\.txt:4: ValueError\('self-loops"):
        load_graph(edge_path, node_path)
    assert len(builds) == 1


def test_load_graph_names_the_first_fault(tmp_path):
    edge_path, node_path = write_graph(small_graph(), tmp_path)
    lines = edge_path.read_text().splitlines()
    # good lines and a blank one before the fault
    edge_path.write_text("\n".join([*lines[:2], "", "0 0", *lines[2:]]) + "\n")
    with pytest.raises(
        ValueError, match=r"g\.edges\.txt:4: ValueError\('self-loops are not allowed'\)$"
    ):
        load_graph(edge_path, node_path)
    # a node table that StateGraph rejects is named before any edge line,
    # and before an edge list that cannot be read
    node_lines = node_path.read_text().splitlines()
    node_path.write_text("\n".join([*node_lines, node_lines[-1]]) + "\n")
    node_fault = r"g\.nodes\.jsonl: node indices must be 0\.\.n-1 in order$"
    with pytest.raises(ValueError, match=node_fault):
        load_graph(edge_path, node_path)
    edge_path.unlink()
    with pytest.raises(ValueError, match=node_fault):
        load_graph(edge_path, node_path)


@pytest.mark.parametrize(
    "bad_lines, named",
    [
        # a rejected edge before a line that does not parse, and after one
        (["0 0", "x 1"], "2: ValueError('self-loops are not allowed')"),
        (["x 1", "0 0"], "2: ValueError(\"invalid literal for int() with base 10: 'x'\")"),
        (["0 1 2", "0 0"], "2: ValueError('too many values to unpack (expected 2)')"),
        # an endpoint past int64 names an unknown node, unless it is a self-loop
        ([f"0 {2**64}"], f"2: ValueError('edge (0, {2**64}) references unknown node')"),
        ([f"{-2**63} 1"], f"2: ValueError('edge ({-2**63}, 1) references unknown node')"),
        ([f"{2**70} {2**70}"], "2: ValueError('self-loops are not allowed')"),
    ],
    ids=["loop-then-parse", "parse-then-loop", "three-fields-then-loop",
         "past-int64", "int64-min", "loop-past-int64"],
)
def test_load_graph_names_the_first_faulty_edge_line(bad_lines, named, tmp_path):
    edge_path, node_path = write_graph(small_graph(), tmp_path)
    lines = edge_path.read_text().splitlines()
    edge_path.write_text("\n".join([lines[0], *bad_lines, *lines[1:]]) + "\n")
    with pytest.raises(ValueError) as caught:
        load_graph(edge_path, node_path)
    assert str(caught.value) == f"{edge_path}:{named}"


def test_edge_list_format(tmp_path):
    g = small_graph()
    write_edge_list(g, tmp_path / "e.txt")
    lines = (tmp_path / "e.txt").read_text().splitlines()
    assert lines == [f"{i} {j}" for i, j in sorted(edge_set(g.edges))]
