"""Dialogue-state graphs: typed nodes, edge splits, negative sampling.

Accumulated dialogue states are turned into one undirected bipartite graph:
a node per distinct domain, a node per distinct (slot, value) pair, and an
edge for every observed <domain, slot, value> triple.  Graphs are immutable
after construction; splitting and negative sampling take an explicit seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .datasets import atomic_writer, read_json_lines
from .dialogue import DialogueState

Edge = tuple[int, int]


class NodeKind(Enum):
    DOMAIN = "domain"
    SLOT_VALUE = "slot_value"


@dataclass(frozen=True)
class NodeId:
    index: int
    kind: NodeKind
    label: str


def _checked_edge(nodes: Sequence[NodeId], i: int, j: int) -> Edge:
    """The edge (i, j) as (min, max), if it joins a Domain node of ``nodes``
    to a SlotValue node."""
    if i == j:
        raise ValueError("self-loops are not allowed")
    a, b = (i, j) if i < j else (j, i)
    if not (0 <= a and b < len(nodes)):
        raise ValueError(f"edge ({i}, {j}) references unknown node")
    if nodes[a].kind == nodes[b].kind:
        raise ValueError(f"edge ({i}, {j}) joins two {nodes[a].kind.value} nodes")
    return a, b


class StateGraph:
    """Undirected bipartite graph over Domain and SlotValue nodes.

    Edges are stored as (i, j) pairs with i < j and always connect a Domain
    node to a SlotValue node.  SlotValue node identity is the (slot, value)
    pair; the composite display label is "slot-value".  ``slot_values``
    maps each SlotValue node index, and no other, to its distinct pair.
    """

    def __init__(
        self,
        nodes: Sequence[NodeId],
        edges: Iterable[Edge],
        slot_values: dict[int, tuple[str, str]],
    ):
        self.nodes = tuple(nodes)
        for pos, node in enumerate(self.nodes):
            if node.index != pos:
                raise ValueError("node indices must be 0..n-1 in order")
        seen_labels: dict[NodeKind, set[str]] = {k: set() for k in NodeKind}
        for node in self.nodes:
            if node.label in seen_labels[node.kind]:
                raise ValueError(f"duplicate {node.kind.value} label: {node.label!r}")
            seen_labels[node.kind].add(node.label)

        self.edges = frozenset(_checked_edge(self.nodes, i, j) for i, j in edges)
        # sorted keys i * n + j of the edges (i < j), and the slot-value node
        # indices in node order, for vectorised candidate masks
        self.edge_keys = np.sort(
            np.array([a * len(self.nodes) + b for a, b in self.edges], dtype=np.int64)
        )
        self.slotvalue_indices = np.array(
            [v.index for v in self.nodes if v.kind is NodeKind.SLOT_VALUE], dtype=np.intp
        )

        self._domain_index = {
            n.label: n.index for n in self.nodes if n.kind is NodeKind.DOMAIN
        }
        if set(slot_values) != set(self.slotvalue_indices.tolist()):
            raise ValueError("slot_values must map exactly the slot-value node indices")
        if len(set(slot_values.values())) != len(slot_values):
            raise ValueError("two slot-value nodes share one (slot, value) pair")
        self.slot_values = dict(slot_values)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def _pair_keys(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return np.minimum(i, j) * self.n_nodes + np.maximum(i, j)

    def unobserved_pairs(self, domains: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The Domain x SlotValue non-edges (d, sv) at the given distinct
        domain indices, domain-major: each domain's slot values in node
        order."""
        domains = np.asarray(domains, dtype=np.intp)
        d_idx = np.repeat(domains, len(self.slotvalue_indices))
        sv_idx = np.tile(self.slotvalue_indices, len(domains))
        keys = self._pair_keys(d_idx, sv_idx)
        unobserved = ~np.isin(keys, self.edge_keys, assume_unique=True)
        return d_idx[unobserved], sv_idx[unobserved]

    def non_edge_keys(self) -> np.ndarray:
        """Sorted keys i * n + j (i < j) of the Domain x SlotValue non-edges."""
        d_idx, sv_idx = self.unobserved_pairs(sorted(self._domain_index.values()))
        return np.sort(self._pair_keys(d_idx, sv_idx))

    def key_edges(self, keys: np.ndarray) -> list[Edge]:
        """The (i, j) pairs of keys i * n + j, as Python ints, in key order."""
        return list(zip(*(part.tolist() for part in np.divmod(keys, self.n_nodes))))


def build_graph(states: Sequence[DialogueState]) -> StateGraph:
    """Build the state graph from a sequence of dialogue states.

    One Domain node per distinct domain, one SlotValue node per distinct
    (slot, value) pair with a real (non-NONE) value, one edge per observed
    triple.  Duplicates collapse; node indices follow first-seen order,
    with triples visited in sorted order within each state.
    """
    nodes: list[NodeId] = []
    domain_index: dict[str, int] = {}
    slotvalue_index: dict[tuple[str, str], int] = {}
    used_sv_labels: set[str] = set()
    edges: set[Edge] = set()

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
                # distinct pairs can collide on the composite label
                k = 2
                while label in used_sv_labels:
                    label = f"{t.slot}-{t.value}#{k}"
                    k += 1
                used_sv_labels.add(label)
                slotvalue_index[pair] = len(nodes)
                nodes.append(NodeId(len(nodes), NodeKind.SLOT_VALUE, label))
            d, v = domain_index[t.domain], slotvalue_index[pair]
            edges.add((d, v) if d < v else (v, d))

    return StateGraph(
        nodes, edges, slot_values={idx: pair for pair, idx in slotvalue_index.items()}
    )


@dataclass(frozen=True)
class EdgeSplit:
    """Disjoint train/val/test edge partition with matched negatives."""

    train: tuple[Edge, ...]
    val: tuple[Edge, ...]
    test: tuple[Edge, ...]
    neg_val: tuple[Edge, ...]
    neg_test: tuple[Edge, ...]


def split_edges(
    g: StateGraph,
    train_frac: float,
    test_frac: float,
    val_frac: float,
    seed: int,
) -> EdgeSplit:
    """Randomly partition edges and sample matched negatives.

    Split sizes are round(|E| * frac) for test and val, with train taking
    the remainder, so every size is within one edge of its exact fraction.
    Negatives are drawn uniformly without replacement from the graph's
    Domain x SlotValue non-edges.  Deterministic given ``seed``.
    """
    fracs = (train_frac, test_frac, val_frac)
    if any(f <= 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be positive and sum to 1, got {fracs}")
    edges = g.sorted_edges()
    if len(edges) < 3:
        raise ValueError(f"need at least 3 edges to split, got {len(edges)}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(edges))
    n_test = round(len(edges) * test_frac)
    n_val = round(len(edges) * val_frac)
    n_train = len(edges) - n_test - n_val
    if n_train <= 0:
        raise ValueError("training fraction leaves no training edges")

    shuffled = [edges[i] for i in order]
    test = tuple(shuffled[:n_test])
    val = tuple(shuffled[n_test : n_test + n_val])
    train = tuple(shuffled[n_test + n_val :])

    non_edge_keys = g.non_edge_keys()
    if n_test + n_val > len(non_edge_keys):
        raise ValueError(
            f"cannot sample {n_test + n_val} negatives "
            f"from {len(non_edge_keys)} non-edges"
        )
    neg_order = rng.permutation(len(non_edge_keys))
    neg_test = tuple(g.key_edges(non_edge_keys[neg_order[:n_test]]))
    neg_val = tuple(g.key_edges(non_edge_keys[neg_order[n_test : n_test + n_val]]))

    return EdgeSplit(train, val, test, neg_val, neg_test)


def dialogue_domains(g: StateGraph, states: Sequence[DialogueState]) -> list[int]:
    """Sorted indices of the Domain nodes of ``g`` that any triple of the
    given states names, a NONE-valued one included.

    Domains the graph has never seen are skipped.
    """
    named = {t.domain for state in states for t in state.triples()}
    return sorted(g._domain_index[d] for d in named if d in g._domain_index)


def planted_graph(
    n_domains: int = 3,
    values_per_domain: int = 20,
    intra_p: float = 0.8,
    inter_p: float = 0.05,
    seed: int = 42,
) -> StateGraph:
    """Synthetic bipartite graph with planted domain communities.

    Each domain connects to its own block of slot-value nodes with
    probability ``intra_p`` and to every other block with ``inter_p``.
    Used as a verifiable desk-scale stand-in for dataset-scale graphs.
    """
    rng = np.random.default_rng(seed)
    nodes: list[NodeId] = []
    slot_values: dict[int, tuple[str, str]] = {}
    for d in range(n_domains):
        nodes.append(NodeId(len(nodes), NodeKind.DOMAIN, f"domain{d}"))
    n_values = n_domains * values_per_domain
    for k in range(n_values):
        idx = len(nodes)
        nodes.append(NodeId(idx, NodeKind.SLOT_VALUE, f"s{k}-v{k}"))
        slot_values[idx] = (f"s{k}", f"v{k}")

    edges: set[Edge] = set()
    for d in range(n_domains):
        for k in range(n_values):
            p = intra_p if k // values_per_domain == d else inter_p
            if rng.random() < p:
                edges.add((d, n_domains + k))
    return StateGraph(nodes, edges, slot_values=slot_values)


def write_edge_list(g: StateGraph, path: str | Path) -> None:
    """Write one "i j" pair per line, sorted, for cross-tool use."""
    lines = [f"{i} {j}" for i, j in g.sorted_edges()]
    with atomic_writer(path) as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


def write_node_table(g: StateGraph, path: str | Path) -> None:
    """Write the node table as JSONL: {index, kind, label} plus identity fields."""
    with atomic_writer(path) as f:
        for node in g.nodes:
            rec: dict = {"index": node.index, "kind": node.kind.value, "label": node.label}
            if node.kind is NodeKind.SLOT_VALUE:
                slot, value = g.slot_values[node.index]
                rec["slot"] = slot
                rec["value"] = value
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def load_graph(edge_path: str | Path, node_path: str | Path) -> StateGraph:
    """Rebuild a StateGraph from its edge-list and node-table exports.

    A malformed node-table or edge-list line, or an edge that `StateGraph`
    would reject, raises ``ValueError`` naming the file and the line; a
    node table that `StateGraph` would reject names the file.  The graph is
    validated once, by `StateGraph`; only when it is rejected are the node
    table and then each edge line checked again, to name the fault.
    """
    nodes: list[NodeId] = []
    slot_values: dict[int, tuple[str, str]] = {}
    for lineno, rec in read_json_lines(node_path):
        try:
            index = rec["index"]
            if type(index) is not int:
                raise ValueError(f"index must be an int, got {index!r}")
            kind = NodeKind(rec["kind"])
            named = ("label", "slot", "value")[: 3 if kind is NodeKind.SLOT_VALUE else 1]
            for field in named:
                if not isinstance(rec[field], str):
                    raise ValueError(f"{field} must be a str, got {rec[field]!r}")
            nodes.append(NodeId(index, kind, rec["label"]))
            if kind is NodeKind.SLOT_VALUE:
                slot_values[index] = (rec["slot"], rec["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{node_path}:{lineno}: {exc!r}") from exc
    nodes.sort(key=lambda n: n.index)
    try:
        text = Path(edge_path).read_text(encoding="utf-8")
        parts = filter(None, map(str.split, text.splitlines()))  # blank lines skipped
        edges = [(int(i), int(j)) for i, j in parts]
        return StateGraph(nodes, edges, slot_values=slot_values)
    except (OSError, ValueError) as exc:
        fault = exc

    # locate the fault: the node table is named before the edge list is read
    try:
        StateGraph(nodes, (), slot_values)
    except ValueError as exc:
        raise ValueError(f"{node_path}: {exc}") from exc
    text = Path(edge_path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            i, j = line.split()
            _checked_edge(nodes, int(i), int(j))
        except ValueError as exc:
            raise ValueError(f"{edge_path}:{lineno}: {exc!r}") from exc
    raise fault
