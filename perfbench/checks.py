"""Correctness checks run outside the timed region.

* ``gate``: the bundled fixture pipeline reproduces tests/goldens/ byte
  for byte.
* ``check_track``: the evaluate report equals the generator's planted
  expectation and every user turn has a record.
* ``check_records``: extract records equal a reference run's records.
* ``check_learn``: planned node and edge counts, the requested epochs,
  finite losses, and a final loss below the initial one.
* ``RankReference``: top-k candidates agree with an independent numpy
  encoder and scorer within 1e-12, so only near-ties may swap.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from pathlib import Path

GOLDEN_FILES = (
    "predictions.jsonl", "report.json", "graph.nodes.jsonl", "graph.edges.txt",
    "graph.manifest.json", "checkpoint.json", "train_metrics.json", "candidates.jsonl",
)

GOLDEN_PIPELINE = (
    ["extract", "--corpus", "corpus.jsonl", "--backend", "rulemock",
     "--keywords", "keywords.json", "--out", "predictions.jsonl"],
    ["evaluate", "--predictions", "predictions.jsonl",
     "--corpus", "corpus.jsonl", "--out", "report.json"],
    ["graph", "--predictions", "predictions.jsonl", "--out-prefix", "graph"],
    ["train", "--graph-prefix", "graph", "--checkpoint", "checkpoint.json",
     "--metrics-out", "train_metrics.json", "--seed", "42"],
    ["predict", "--graph-prefix", "graph", "--checkpoint", "checkpoint.json",
     "--predictions", "predictions.jsonl", "--top-k", "5", "--out", "candidates.jsonl"],
)

TIE_TOL = 1e-12


def run_cli(argv: list[str]) -> int:
    """dstgraph.cli.main with its progress lines swallowed."""
    from dstgraph import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def gate(root: Path, workdir: Path) -> str | None:
    """Run the fixture pipeline in-process; None if every golden matches."""
    fixtures = root / "src" / "dstgraph" / "fixtures"
    goldens = root / "tests" / "goldens"
    workdir.mkdir(parents=True)
    for name in ("corpus.jsonl", "keywords.json"):
        shutil.copy(fixtures / name, workdir / name)
    # outputs echo their relative paths, so run from the work directory
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in GOLDEN_PIPELINE:
            if run_cli(list(argv)) != 0:
                return f"golden pipeline stage {argv[0]} failed"
    finally:
        os.chdir(cwd)
    for name in GOLDEN_FILES:
        if (workdir / name).read_bytes() != (goldens / name).read_bytes():
            return f"{name} differs from tests/goldens"
    return None


def read_records(path: Path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec.get("record_type") != "meta":
                    rows.append(rec)
    return rows


def check_track(report_path: Path, predictions: Path, expected: dict, user_turns: int) -> bool:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if any(report.get(k) != v for k, v in expected.items()):
        return False
    return len(read_records(predictions)) == user_turns


def check_records(predictions: Path, reference: list[dict]) -> bool:
    return read_records(predictions) == reference


def check_learn(metrics_path: Path, props: dict) -> bool:
    m = json.loads(metrics_path.read_text(encoding="utf-8"))
    losses = [m.get("final_bce"), m.get("final_kl"), m.get("final_total"), m.get("auc")]
    return (
        m.get("n_nodes") == props["n_nodes"]
        and m.get("n_edges") == props["n_edges"]
        and m.get("epochs") == props["epochs"]
        and all(isinstance(x, float) and math.isfinite(x) for x in losses)
        and m["final_total"] < props["initial_loss"]
    )


class RankReference:
    """Independent dense-numpy encoder and pair scorer for the rank check."""

    def __init__(self, inputs: Path):
        import numpy as np

        self.np = np
        nodes = read_records(inputs / "graph.nodes.jsonl")
        n = len(nodes)
        self.domain_index = {r["label"]: r["index"] for r in nodes if r["kind"] == "domain"}
        self.label = {r["index"]: r["label"] for r in nodes}
        self.sv = np.array([r["index"] for r in nodes if r["kind"] == "slot_value"])
        a = np.zeros((n, n))
        for line in (inputs / "graph.edges.txt").read_text().split("\n"):
            if line.strip():
                i, j = map(int, line.split())
                a[i, j] = a[j, i] = 1.0
        self.adj = a.astype(bool)
        a_hat = a + np.eye(n)
        d = 1.0 / np.sqrt(a_hat.sum(axis=1))
        a_norm = a_hat * d[:, None] * d[None, :]
        ck = json.loads((inputs / "checkpoint.json").read_text())
        w_s, w_mu = np.array(ck["w_shared"]), np.array(ck["w_mu"])
        # one-hot features: A X W = A W
        h = np.maximum(a_norm @ w_s, 0.0)
        self.mu = a_norm @ h @ w_mu

    def _score(self, d: int):
        np = self.np
        s = self.mu[self.sv] @ self.mu[d]
        p = np.where(s >= 0, 1.0 / (1.0 + np.exp(-np.abs(s))),
                     np.exp(-np.abs(s)) / (1.0 + np.exp(-np.abs(s))))
        return np.clip(p, 1e-12, 1.0 - 1e-12)

    def expected(self, domains: list[int], k: int) -> list[tuple[float, int, int]]:
        cands = []
        for d in sorted(domains):
            p = self._score(d)
            for sv, score in zip(self.sv.tolist(), p.tolist()):
                if not self.adj[d, sv]:
                    cands.append((score, d, sv))
        cands.sort(key=lambda c: (-c[0], c[1], c[2]))
        return cands[:k]

    def pairs_scored(self, domains: list[int]) -> int:
        return sum(int((~self.adj[d, self.sv]).sum()) for d in domains)

    def dialogue_domains(self, records: list[dict]) -> dict[str, list[int]]:
        out: dict[str, set] = {}
        for r in records:
            doms = out.setdefault(r["dialogue_id"], set())
            for t in r["predicted_state"]:
                if t["domain"] in self.domain_index:
                    doms.add(self.domain_index[t["domain"]])
        return {k: sorted(v) for k, v in out.items()}

    def check(self, candidates: Path, domains: dict[str, list[int]], k: int) -> bool:
        got: dict[str, list[dict]] = {}
        for r in read_records(candidates):
            got.setdefault(r["dialogue_id"], []).append(r)
        if set(got) != {d for d, doms in domains.items() if doms}:
            return False
        by_label = {label: i for i, label in self.label.items()}
        for dialogue_id, rows in got.items():
            want = self.expected(domains[dialogue_id], k)
            if len(rows) != len(want) or [r["rank"] for r in rows] != list(range(1, len(rows) + 1)):
                return False
            pairs = {(r["domain_label"], r["slotvalue_label"]) for r in rows}
            if len(pairs) != len(rows):
                return False
            for row, (w_score, _, _) in zip(rows, want):
                d, sv = by_label.get(row["domain_label"]), by_label.get(row["slotvalue_label"])
                if d not in domains[dialogue_id] or sv is None or self.adj[d, sv]:
                    return False
                ref = float(self._score(d)[self.np.searchsorted(self.sv, sv)])
                if abs(row["probability"] - ref) > TIE_TOL or abs(ref - w_score) > TIE_TOL:
                    return False
        return True
