"""Verify the trained model's machinery rather than trust it.

Two checks that catch most implementation mistakes in a hand-rolled
graph auto-encoder:

1. Gradient verification: the analytic gradients used by the optimizer
   must match central finite differences of the loss to a few parts in
   ten thousand at double precision.
2. Planted-community recovery: on a synthetic graph whose communities
   are known, held-out edge ranking must be far above chance, and an
   untrained model must sit exactly at chance.

Run: python3 demos/04_verify_the_model.py
"""

import numpy as np

from dstgraph.dialogue import DialogueState, StateTriple
from dstgraph.graph import build_graph, planted_graph, split_edges
from dstgraph.linkpred import evaluate_split
from dstgraph.vgae import TrainConfig, VgaeParams, glorot_init, gradient_check, train


def random_graph(rng, n_domains, n_slotvalues, p=0.3):
    """A random bipartite state graph; every slot-value keeps one edge."""
    states = []
    for j in range(n_slotvalues):
        anchor = int(rng.integers(n_domains))
        for i in range(n_domains):
            if i == anchor or rng.random() < p:
                states.append(
                    DialogueState(
                        [StateTriple(domain=f"d{i}", slot="s", value=f"v{j}")]
                    )
                )
    return build_graph(states)


# --- 1. finite-difference gradient check -------------------------------

graph = random_graph(np.random.default_rng(11), n_domains=4, n_slotvalues=16)
split = split_edges(graph, 0.85, 0.10, 0.05, seed=11)
config = TrainConfig(seed=11)
params = glorot_init(graph.n_nodes, config, np.random.default_rng(11))

err = gradient_check(params, graph, split, config, epsilon=1e-5, n_samples=120)
print(f"gradient check on a {graph.n_nodes}-node graph:")
print(f"  max relative error analytic vs finite difference: {err:.2e}")
assert err < 1e-4

# --- 2. planted-community link prediction ------------------------------

# 3 domains, 20 slot-values each; a domain links to its own block with
# probability 0.8 and to foreign blocks with 0.05, so the structure is
# known and recoverable
planted = planted_graph(
    n_domains=3, values_per_domain=20, intra_p=0.8, inter_p=0.05, seed=42
)
split = split_edges(planted, 0.85, 0.10, 0.05, seed=42)
trained, _ = train(planted, split, TrainConfig())
scores = evaluate_split(trained, planted, split)
print()
print(f"planted graph ({planted.n_nodes} nodes, {len(planted.edges)} edges):")
print(f"  trained:     auc {scores['auc']:.4f} ap {scores['ap']:.4f}")

zero = VgaeParams(
    w_shared=np.zeros((planted.n_nodes, TrainConfig().hidden_dim)),
    w_mu=np.zeros((TrainConfig().hidden_dim, TrainConfig().latent_dim)),
    w_logvar=np.zeros((TrainConfig().hidden_dim, TrainConfig().latent_dim)),
)
chance = evaluate_split(zero, planted, split)
print(f"  zero-weight: auc {chance['auc']:.4f} (exactly chance)")
assert scores["auc"] >= 0.85 and scores["ap"] >= 0.85
assert chance["auc"] == 0.5
print()
print("both checks hold.")
