"""Ontology-free dialogue state tracking over prompted language models.

The toolkit covers the full pipeline: prompt construction for several
reasoning strategies, completion backends (HTTP, replay, rule mock),
parsing of bracketed domain/slot/value lists into dialogue states,
tracking metrics, a bipartite dialogue-state graph, and a from-scratch
variational graph auto-encoder for ranking next-state candidates.

The package root holds only the version: callers take each name from
the module that defines it (``dstgraph.vgae.TrainConfig``), so the text
stages load neither numpy nor the graph auto-encoder.
"""

__version__ = "0.1.0"
