"""Dialogue-state graphs: typed nodes, edge splits, negative sampling.

Accumulated dialogue states become one undirected bipartite graph: a node
per distinct domain, a node per distinct (slot, value) pair, an edge per
observed <domain, slot, value> triple.  Graphs and splits are immutable:
each edge set is one read-only int64 (E, 2) array.  Splits take a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .datasets import atomic_writer, read_json_lines, write_json_lines
from .dialogue import DialogueState


class NodeKind(Enum):
    DOMAIN = "domain"
    SLOT_VALUE = "slot_value"


# a dict lookup, not the slower NodeKind(value) call, for each node line
_KIND_BY_VALUE = {kind.value: kind for kind in NodeKind}


@dataclass(frozen=True)
class NodeId:
    index: int
    kind: NodeKind
    label: str


class EdgeError(ValueError):
    """The edge (i, j) at ``row`` of the edges given, named by the rule it breaks."""

    def __init__(self, nodes: Sequence[NodeId], i: int, j: int, row: int):
        if i == j:
            super().__init__("self-loops are not allowed")
        elif min(i, j) < 0 or max(i, j) >= len(nodes):
            super().__init__(f"edge ({i}, {j}) references unknown node")
        else:
            kind = nodes[min(i, j)].kind.value
            super().__init__(f"edge ({i}, {j}) joins two {kind} nodes")
        self.row = row


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d non-negative integer array, ascending:
    `np.unique` without the import of numpy.ma its first call makes."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) > 0]


class StateGraph:
    """Undirected bipartite graph over Domain and SlotValue nodes.

    ``edges``, given as integer pairs in either orientation, is kept as a
    read-only (E, 2) int64 array of unique (i, j) rows, i < j, each joining
    a Domain node to a SlotValue node, sorted by key i * n + j, and
    ``edge_keys`` holds those keys, read-only; a bad edge is an `EdgeError`.
    SlotValue node identity is the (slot, value) pair; the composite display
    label is "slot-value".  ``slot_values`` maps each SlotValue node index,
    and no other, to its distinct pair.
    """

    def __init__(
        self,
        nodes: Sequence[NodeId],
        edges: np.ndarray | Sequence[tuple[int, int]],
        slot_values: dict[int, tuple[str, str]],
    ):
        self.nodes = tuple(nodes)
        if [node.index for node in self.nodes] != list(range(len(self.nodes))):
            raise ValueError("node indices must be 0..n-1 in order")
        is_domain = [node.kind is NodeKind.DOMAIN for node in self.nodes]
        self._domain_index = {
            n.label: n.index for n, domain in zip(self.nodes, is_domain) if domain
        }
        sv_labels = {n.label for n, domain in zip(self.nodes, is_domain) if not domain}
        if len(self._domain_index) + len(sv_labels) != len(self.nodes):
            seen: set[tuple[NodeKind, str]] = set()
            for node in self.nodes:  # name the first repeat in node order
                if (node.kind, node.label) in seen:
                    raise ValueError(f"duplicate {node.kind.value} label: {node.label!r}")
                seen.add((node.kind, node.label))
        is_domain = np.array(is_domain, dtype=bool)
        # the slot-value node indices in node order, for vectorised candidate masks
        self.slotvalue_indices = np.flatnonzero(~is_domain)
        if set(slot_values) != set(self.slotvalue_indices.tolist()):
            raise ValueError("slot_values must map exactly the slot-value node indices")
        if len(set(slot_values.values())) != len(slot_values):
            raise ValueError("two slot-value nodes share one (slot, value) pair")
        self.slot_values = dict(slot_values)
        e = np.asarray(edges) if len(edges) else np.empty((0, 2), dtype=np.int64)
        # a cast would turn 0.7 into 0
        if not np.can_cast(e.dtype, np.int64) or e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be integer pairs, got {e.dtype} {e.shape}")
        lo, hi = np.sort(e, axis=1).astype(np.int64, copy=False).T
        bad = (lo == hi) | (lo < 0) | (hi >= self.n_nodes)
        bad[~bad] = is_domain[lo[~bad]] == is_domain[hi[~bad]]
        if bad.any():
            raise EdgeError(self.nodes, *e[bad.argmax()].tolist(), int(bad.argmax()))
        self.edge_keys = sorted_unique(self._pair_keys(lo, hi))
        self.edges = np.stack(np.divmod(self.edge_keys, self.n_nodes), axis=1)
        self.edges.flags.writeable = self.edge_keys.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

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


def build_graph(states: Iterable[DialogueState]) -> StateGraph:
    """Build the state graph from dialogue states, read once in order.

    One Domain node per distinct domain, one SlotValue node per distinct
    (slot, value) pair with a real (non-NONE) value, one edge per observed
    triple.  Duplicates collapse; node indices follow first-seen order,
    with triples visited in sorted order within each state.
    """
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

    slot_values = {idx: pair for pair, idx in slotvalue_index.items()}
    return StateGraph(nodes, list(edges), slot_values)


@dataclass(frozen=True)
class EdgeSplit:
    """Disjoint train/val/test edges and matched negatives: read-only int64
    (k, 2) arrays of (i, j) rows, i < j, in drawn order."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    neg_val: np.ndarray
    neg_test: np.ndarray


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
    n_edges = len(g.edges)
    if n_edges < 3:
        raise ValueError(f"need at least 3 edges to split, got {n_edges}")

    rng = np.random.default_rng(seed)
    shuffled = g.edges[rng.permutation(n_edges)]
    n_test = round(n_edges * test_frac)
    n_val = round(n_edges * val_frac)
    if n_edges - n_test - n_val <= 0:
        raise ValueError("training fraction leaves no training edges")

    non_edge_keys = g.non_edge_keys()
    if n_test + n_val > len(non_edge_keys):
        raise ValueError(
            f"cannot sample {n_test + n_val} negatives "
            f"from {len(non_edge_keys)} non-edges"
        )
    drawn = non_edge_keys[rng.permutation(len(non_edge_keys))[: n_test + n_val]]
    negatives = np.stack(np.divmod(drawn, g.n_nodes), axis=1)
    shuffled.flags.writeable = negatives.flags.writeable = False
    test, val, train = np.split(shuffled, [n_test, n_test + n_val])
    neg_test, neg_val = np.split(negatives, [n_test])
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

    # one draw per (domain, slot value), domain-major
    own = np.arange(n_values) // values_per_domain == np.arange(n_domains)[:, None]
    d, k = np.nonzero(rng.random(own.shape) < np.where(own, intra_p, inter_p))
    return StateGraph(nodes, np.stack([d, n_domains + k], axis=1), slot_values)


def write_edge_list(g: StateGraph, path: str | Path) -> None:
    """Write one "i j" pair per line, sorted, for cross-tool use."""
    with atomic_writer(path) as f:
        f.write("".join(f"{i} {j}\n" for i, j in g.edges.tolist()))


def _node_record(g: StateGraph, node: NodeId) -> dict:
    rec: dict = {"index": node.index, "kind": node.kind.value, "label": node.label}
    if node.kind is NodeKind.SLOT_VALUE:
        slot, value = g.slot_values[node.index]
        rec["slot"] = slot
        rec["value"] = value
    return rec


def write_node_table(g: StateGraph, path: str | Path) -> None:
    """Write the node table as JSONL: {index, kind, label} plus identity fields."""
    write_json_lines(path, (_node_record(g, node) for node in g.nodes))


def load_graph(edge_path: str | Path, node_path: str | Path) -> StateGraph:
    """Rebuild a StateGraph from its edge-list and node-table exports.

    A malformed node-table or edge-list line, or an edge that `StateGraph`
    rejects, raises ``ValueError`` naming the file and the line, the first
    faulty edge line in file order; a node table that `StateGraph` rejects
    names the file, ahead of any edge line or an unreadable edge list.
    `StateGraph` builds and checks the graph once.
    """
    nodes: list[NodeId] = []
    slot_values: dict[int, tuple[str, str]] = {}
    for lineno, rec in read_json_lines(node_path):
        try:
            index = rec["index"]
            if type(index) is not int:
                raise ValueError(f"index must be an int, got {index!r}")
            kind = rec["kind"]
            try:
                kind = _KIND_BY_VALUE[kind]
            except (KeyError, TypeError):  # unknown or unhashable, as NodeKind(kind)
                raise ValueError(f"{kind!r} is not a valid NodeKind") from None
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
                # past int64, so past every node
                if not (-(2**63) <= i < 2**63 and -(2**63) <= j < 2**63):
                    raise EdgeError(nodes, i, j, row=len(parsed) // 3)
                parsed += lineno, i, j
    except (OSError, ValueError) as exc:
        fault = exc  # the lines before it are checked first
    rows = np.array(parsed, dtype=np.int64).reshape(-1, 3)
    try:
        graph = StateGraph(nodes, rows[:, 1:], slot_values)
    except EdgeError as exc:
        fault, lineno = exc, rows[exc.row, 0]
    except ValueError as exc:
        raise ValueError(f"{node_path}: {exc}") from exc
    if fault is None:
        return graph
    if lineno is None:  # the edge list could not be read
        raise fault
    # an edge fault is named as a plain ValueError, as a parse fault is
    raise ValueError(f"{edge_path}:{lineno}: {ValueError(*fault.args)!r}") from fault
