"""Set-up probe: a fresh interpreter imports dstgraph and loads one
workload's inputs, then prints ``ready``.  run.py times it from spawn to
that line.

Usage: python3 perfbench/probe.py SRC_DIR WORKLOAD INPUT_DIR
"""

import sys
from pathlib import Path


def main() -> int:
    src, workload, inputs = sys.argv[1], sys.argv[2], Path(sys.argv[3])
    sys.path.insert(0, src)
    from dstgraph.backends import RuleMockBackend
    from dstgraph.datasets import load_corpus, read_predictions
    from dstgraph.graph import load_graph
    from dstgraph.prompts import load_exemplars
    from dstgraph.vgae import load_checkpoint

    if workload in ("track", "track-http"):
        if workload == "track":
            RuleMockBackend.from_json(inputs / "keywords.json")
        load_exemplars(inputs / "exemplars.jsonl")
        load_corpus(inputs / "corpus.jsonl")
    elif workload == "learn":
        read_predictions(inputs / "predictions.jsonl")
    else:
        load_graph(inputs / "graph.edges.txt", inputs / "graph.nodes.jsonl")
        load_checkpoint(inputs / "checkpoint.json")
        read_predictions(inputs / "predictions.jsonl")
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
