"""Build the dialogue-state graph, train the link predictor, rank candidates.

The states extracted across a corpus form a bipartite graph: Domain
nodes on one side, (slot, value) nodes on the other, an edge whenever a
dialogue asserted that pair.  A variational graph auto-encoder trained
on that graph scores unseen (domain, slot-value) pairs, which ranks
plausible next dialogue states for a conversation.

Run: python3 demos/03_predict_next_states.py
"""

import numpy as np

from dstgraph.datasets import fixture_corpus_path, load_corpus
from dstgraph.graph import build_graph, dialogue_domains, split_edges
from dstgraph.linkpred import CandidateRanker, evaluate_split, mean_embeddings
from dstgraph.vgae import TrainConfig, VgaeParams, train

corpus = load_corpus(fixture_corpus_path())

# every gold state across the corpus contributes its triples as edges
states = [s for d in corpus.dialogues for s in d.gold_states]
graph = build_graph(states)
print(f"graph: {graph.n_nodes} nodes, {len(graph.edges)} edges")
for node in graph.nodes[:6]:
    print(f"  node {node.index}: {node.label} ({node.kind.value})")
print("  ...")

# hold out edges, train on the rest, score the held-out ones
split = split_edges(graph, 0.85, 0.10, 0.05, seed=42)
print(
    f"split: {len(split.train)} train / {len(split.val)} val / "
    f"{len(split.test)} test edges"
)

config = TrainConfig(hidden_dim=16, latent_dim=8, epochs=150, seed=42)
params, history = train(graph, split, config)
for record in history[:: len(history) // 5]:
    line = (
        f"epoch {record.epoch:>4}: bce {record.bce:.4f} kl {record.kl:.4f} "
        f"total {record.total:.4f}"
    )
    if record.val_auc is not None:
        line += f" val_auc {record.val_auc:.3f}"
    print(line)

scores = evaluate_split(params, graph, split)
print(f"held-out test edges: auc {scores['auc']:.4f} ap {scores['ap']:.4f}")

# rank unseen pairs for one dialogue's context; the posterior means are
# computed once, by encoding the propagation matrix built straight from
# the graph's edge list, and one ranker over them can rank any number of
# dialogues, scoring each domain's candidates the first time it is named
ranker = CandidateRanker(mean_embeddings(params, graph), graph, top_k=5)
dialogue = corpus.dialogues[0]
domains = dialogue_domains(graph, dialogue.gold_states)
print()
print(
    f"dialogue {dialogue.dialogue_id} names {len(domains)} known domain(s): "
    + ", ".join(graph.nodes[d].label for d in domains)
)
for rec in ranker.rank(domains):
    print(f"  candidate next state: ({rec['domain_label']}, "
          f"{rec['slotvalue_label']}) p={rec['probability']:.4f}")

# sanity anchor: with all-zero weights every pair scores 0.5 and the
# ranking carries no information (auc is exactly chance)
zero = VgaeParams(
    w_shared=np.zeros((graph.n_nodes, config.hidden_dim)),
    w_mu=np.zeros((config.hidden_dim, config.latent_dim)),
    w_logvar=np.zeros((config.hidden_dim, config.latent_dim)),
)
print()
print(f"zero-weight control: auc {evaluate_split(zero, graph, split)['auc']}")
