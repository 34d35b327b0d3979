"""Acceptance gate: every release criterion as one test with a printed
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s` to see
the one-line verdicts; any FAIL also fails the test.

Each criterion re-derives its expectation from an independent oracle
(brute-force counting, finite differences, hand algebra, or committed
golden files) rather than trusting the implementation under test.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from dstgraph.datasets import (
    fixture_error_cases_path,
    state_from_jsonable,
)
from dstgraph.dialogue import Speaker, Turn
from dstgraph.graph import planted_graph, split_edges
from dstgraph.linkpred import auc, average_precision, evaluate_split
from dstgraph.metrics import TrackingCounts
from dstgraph.parsing import classify_errors, parse_state
from dstgraph.prompts import (
    ANTI_HALLUCINATION,
    DEFAULT_INSTRUCTION,
    PromptSpec,
    PromptStrategy,
    build_prompt,
)
from dstgraph.vgae import (
    TrainConfig,
    VgaeParams,
    glorot_init,
    gradient_check,
    kl_divergence,
    train,
)

from conftest import child_env, edge_set, random_bipartite_graph, random_states

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
FIXTURES = REPO / "src" / "dstgraph" / "fixtures"
GOLDENS = TESTS / "goldens"
DENYLIST = TESTS / "data" / "ontology_denylist.txt"


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- criterion 1


def oracle_metric_scores(pairs):
    """Set-arithmetic reference for jga / slot_f1 / slot_accuracy over
    (predicted, gold) state pairs."""
    joint = 0
    tp = fp = fn = 0
    gold_total = gold_correct = 0
    for pred, gold in pairs:
        ps = {(t.domain, t.slot, t.value) for t in pred if not t.is_none}
        gs = {(t.domain, t.slot, t.value) for t in gold if not t.is_none}
        joint += int(ps == gs)
        tp += len(ps & gs)
        fp += len(ps - gs)
        fn += len(gs - ps)
        pd = {(d, s): v for d, s, v in ps}
        for d, s, v in gs:
            gold_total += 1
            gold_correct += int(pd.get((d, s)) == v)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    if tp == 0 and fp == 0 and fn == 0:
        prec = rec = 1.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return {
        "jga": joint / len(pairs),
        "precision": prec,
        "recall": rec,
        "f1": f1,
        "accuracy": (gold_correct / gold_total) if gold_total else None,
    }


def test_01_metric_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20250819)
    problems = []
    turn_sets = 0
    for batch in range(200):
        n = 5
        pairs = list(zip(random_states(rng, n), random_states(rng, n)))
        turn_sets += n
        want = oracle_metric_scores(pairs)
        # each turn scored as `evaluate` scores it, from its two key→value maps
        counts = TrackingCounts()
        for pred, gold in pairs:
            counts.add(pred.value_by_key(), gold.value_by_key())
        got_f1 = counts.slot_f1()
        if counts.jga() != want["jga"]:
            problems.append(f"batch {batch}: jga {counts.jga()} != {want['jga']}")
        if (got_f1.precision, got_f1.recall, got_f1.f1) != (
            want["precision"], want["recall"], want["f1"],
        ):
            problems.append(f"batch {batch}: slot_f1 mismatch")
        if want["accuracy"] is None:
            try:
                counts.slot_accuracy()
                problems.append(f"batch {batch}: accuracy should reject empty gold")
            except ValueError:
                pass
        elif counts.slot_accuracy() != want["accuracy"]:
            problems.append(f"batch {batch}: slot_accuracy mismatch")
    elapsed = time.perf_counter() - started
    ok = not problems and turn_sets == 1000 and elapsed < 10.0
    verdict(
        "metric oracle equivalence",
        ok,
        problems[0] if problems else f"{turn_sets} turn sets exact, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 2


def oracle_pairwise_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def oracle_rank_walk_ap(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    acc = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i]:
            hits += 1
            acc += hits / rank
    return acc / hits


def test_02_ranking_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    problems = []
    cases = 0
    while cases < 500:
        n = int(rng.integers(2, 51))
        if cases % 2:
            scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n).tolist()
        else:
            scores = rng.random(n).tolist()
        labels = (rng.random(n) < 0.5).tolist()
        if all(labels) or not any(labels):
            labels[0] = True
            labels[-1] = False
        cases += 1
        if auc(scores, labels) != oracle_pairwise_auc(scores, labels):
            problems.append(f"case {cases}: auc mismatch")
        if average_precision(scores, labels) != oracle_rank_walk_ap(scores, labels):
            problems.append(f"case {cases}: ap mismatch")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 5.0
    verdict(
        "auc/ap oracle equivalence",
        ok,
        problems[0] if problems else f"{cases} cases exact, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 3


def test_03_gradient_verification():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    graph = random_bipartite_graph(rng, 4, 16, 0.3)  # 20 nodes
    assert graph.n_nodes == 20
    split = split_edges(graph, 0.85, 0.10, 0.05, seed=11)
    config = TrainConfig(seed=11)
    params = glorot_init(graph.n_nodes, config, np.random.default_rng(11))
    max_rel_err = gradient_check(
        params, graph, split, config, epsilon=1e-5, n_samples=120
    )
    elapsed = time.perf_counter() - started
    ok = max_rel_err < 1e-4 and elapsed < 30.0
    verdict(
        "gradient verification",
        ok,
        f"max relative error {max_rel_err:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 4


def test_04_kl_properties():
    problems = []
    if kl_divergence(np.zeros((3, 2)), np.zeros((3, 2))) != 0.0:
        problems.append("kl(0, 0) != 0 exactly")
    rng = np.random.default_rng(4)
    for i in range(1000):
        shape = (int(rng.integers(1, 8)), int(rng.integers(1, 6)))
        mu = rng.normal(scale=3.0, size=shape)
        logvar = rng.normal(scale=2.0, size=shape)
        if kl_divergence(mu, logvar) < 0.0:
            problems.append(f"negative kl on draw {i}")
            break
    hand = kl_divergence(np.array([[1.0]]), np.array([[0.0]]))
    if not math.isclose(hand, 0.5, abs_tol=1e-12):
        problems.append(f"hand value {hand} != 0.5")
    verdict(
        "kl divergence properties",
        not problems,
        problems[0] if problems else "zero at origin, non-negative, hand value 0.5",
    )


# ---------------------------------------------------------------- criterion 5


def test_05_planted_graph_link_prediction():
    started = time.perf_counter()
    graph = planted_graph(
        n_domains=3, values_per_domain=20, intra_p=0.8, inter_p=0.05, seed=42
    )
    split = split_edges(graph, 0.85, 0.10, 0.05, seed=42)
    params, _ = train(graph, split, TrainConfig())
    scores = evaluate_split(params, graph, split)

    config = TrainConfig()
    zero = VgaeParams(
        w_shared=np.zeros((graph.n_nodes, config.hidden_dim)),
        w_mu=np.zeros((config.hidden_dim, config.latent_dim)),
        w_logvar=np.zeros((config.hidden_dim, config.latent_dim)),
    )
    chance = evaluate_split(zero, graph, split)
    elapsed = time.perf_counter() - started
    ok = (
        scores["auc"] >= 0.85
        and scores["ap"] >= 0.85
        and chance["auc"] == 0.5
        and elapsed < 60.0
    )
    verdict(
        "planted-graph link prediction",
        ok,
        f"auc {scores['auc']:.3f}, ap {scores['ap']:.3f}, "
        f"zero-weight auc {chance['auc']}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 6


def test_06_split_arithmetic():
    rng = np.random.default_rng(6)
    problems = []
    for trial in range(200):
        graph = random_bipartite_graph(
            rng,
            int(rng.integers(2, 6)),
            int(rng.integers(3, 25)),
            float(rng.uniform(0.1, 0.5)),
        )
        split = split_edges(graph, 0.85, 0.10, 0.05, seed=trial)
        edges = edge_set(graph.edges)
        parts = [edge_set(split.train), edge_set(split.test), edge_set(split.val)]
        if parts[0] | parts[1] | parts[2] != edges:
            problems.append(f"trial {trial}: split does not cover the edges")
            break
        if sum(len(p) for p in parts) != len(edges):
            problems.append(f"trial {trial}: split parts overlap")
            break
        total = len(edges)
        for frac, part, name in (
            (0.85, split.train, "train"),
            (0.10, split.test, "test"),
            (0.05, split.val, "val"),
        ):
            if abs(len(part) - frac * total) > 1.0:
                problems.append(
                    f"trial {trial}: {name} size {len(part)} vs {frac * total:.2f}"
                )
        negatives = edge_set(split.neg_test) | edge_set(split.neg_val)
        if negatives & edges:
            problems.append(f"trial {trial}: negative sample collides with an edge")
            break
    verdict(
        "split arithmetic",
        not problems,
        problems[0] if problems else "200 graphs: partitions exact, sizes within 1",
    )


# ---------------------------------------------------------------- criterion 7


PERSONAS = {
    PromptStrategy.COT_PERSONA1: (
        "You are an advanced dialogue state tracker with expertise in "
        "understanding and managing complex conversations to maintain "
        "context and provide accurate responses."
    ),
    PromptStrategy.COT_PERSONA2: (
        "You are a context-aware dialogue specialist, skilled in recognizing "
        "user intents and maintaining seamless conversation flow by "
        "accurately tracking dialogue states."
    ),
    PromptStrategy.COT_PERSONA3: (
        "You are an expert conversational analyst, proficient in monitoring "
        "and updating dialogue states to ensure coherent and contextually "
        "appropriate interactions."
    ),
}

ANTI_CLAUSE = "If the value does not exist, return the value as NONE."


def render(strategy, anti):
    return build_prompt(
        PromptSpec(
            strategy=strategy,
            instruction=DEFAULT_INSTRUCTION,
            input_text="[user] i am looking for a place to stay",
            anti_hallucination=anti,
        )
    )


def test_07_prompt_fidelity():
    problems = []
    if ANTI_HALLUCINATION != ANTI_CLAUSE:
        problems.append("anti-hallucination clause drifted from the pinned text")
    for strategy, sentence in PERSONAS.items():
        if sentence not in render(strategy, anti=True):
            problems.append(f"{strategy.value}: persona sentence not byte-exact")
    denylist = [
        line.strip().lower()
        for line in DENYLIST.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    assert denylist, "denylist fixture is empty"
    for strategy in PromptStrategy:
        for anti in (True, False):
            prompt = render(strategy, anti)
            if (ANTI_CLAUSE in prompt) != anti:
                problems.append(
                    f"{strategy.value}: clause presence does not track the flag"
                )
            lowered = prompt.lower()
            for entry in denylist:
                if entry in lowered:
                    problems.append(f"{strategy.value}: leaks {entry!r}")
    verdict(
        "prompt fidelity",
        not problems,
        problems[0]
        if problems
        else f"3 personas byte-exact, clause iff flag, {len(denylist)} denylist entries clean",
    )


# ---------------------------------------------------------------- criterion 8


TABLE_EXAMPLES = [
    (
        "Domain : [`General'] , Slot : [`hobby'] , Value : [`canning or whittling']",
        {("general", "hobby", "canning or whittling")},
    ),
    (
        "Domain : [`Restaurant'] Slot : [`food'] Value : [`prime rib']",
        {("restaurant", "food", "prime rib")},
    ),
    (
        "Domain : [`General'] Slot : [`plan', `activity'] Value : [`canning', `NONE']",
        {("general", "plan", "canning"), ("general", "activity", "none")},
    ),
    (
        "Domain : [`General'] Slot : [`topic'] Value : [`Game of Thrones']",
        {("general", "topic", "game of thrones")},
    ),
]


def test_08_parser_fidelity():
    problems = []
    for text, expected in TABLE_EXAMPLES:
        outcome = parse_state(text)
        got = {(t.domain, t.slot, t.value) for t in outcome.state}
        if outcome.failed or got != expected:
            problems.append(f"{text[:40]}...: got {sorted(got)}")
    broadcast = parse_state(TABLE_EXAMPLES[2][0])
    none_triple = broadcast.state.get("general", "activity")
    if none_triple is None or not none_triple.is_none:
        problems.append("NONE sentinel not preserved through the broadcast example")
    verdict(
        "parser fidelity",
        not problems,
        problems[0] if problems else "4 published example strings parse exactly",
    )


# ---------------------------------------------------------------- criterion 9


PIPELINE = [
    ["extract", "--corpus", "corpus.jsonl", "--backend", "rulemock",
     "--keywords", "keywords.json", "--out", "predictions.jsonl"],
    ["evaluate", "--predictions", "predictions.jsonl",
     "--corpus", "corpus.jsonl", "--out", "report.json"],
    ["graph", "--predictions", "predictions.jsonl", "--out-prefix", "graph"],
    ["train", "--graph-prefix", "graph", "--checkpoint", "checkpoint.json",
     "--metrics-out", "train_metrics.json", "--seed", "42"],
    ["predict", "--graph-prefix", "graph", "--checkpoint", "checkpoint.json",
     "--predictions", "predictions.jsonl", "--top-k", "5",
     "--out", "candidates.jsonl"],
]

OUTPUTS = [
    "predictions.jsonl",
    "report.json",
    "graph.nodes.jsonl",
    "graph.edges.txt",
    "graph.manifest.json",
    "checkpoint.json",
    "train_metrics.json",
    "candidates.jsonl",
]


def run_pipeline(workdir: Path) -> None:
    for name in ("corpus.jsonl", "keywords.json"):
        shutil.copy(FIXTURES / name, workdir / name)
    env = child_env()
    for args in PIPELINE:
        proc = subprocess.run(
            [sys.executable, "-m", "dstgraph.cli", *args],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, f"{args[0]} failed: {proc.stderr}"


def test_09_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    run_pipeline(run_a)
    run_pipeline(run_b)
    problems = []
    for name in OUTPUTS:
        bytes_a = (run_a / name).read_bytes()
        if bytes_a != (run_b / name).read_bytes():
            problems.append(f"{name}: two runs differ")
        if bytes_a != (GOLDENS / name).read_bytes():
            problems.append(f"{name}: differs from the committed golden")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 120.0
    verdict(
        "end-to-end determinism",
        ok,
        problems[0]
        if problems
        else f"{len(OUTPUTS)} files byte-identical across runs and goldens, {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 10


def test_10_error_taxonomy():
    raw = json.loads(fixture_error_cases_path().read_text(encoding="utf-8"))
    problems = []
    for case in raw["cases"]:
        turns = [
            Turn(
                speaker=Speaker.USER if t["speaker"] == "user" else Speaker.SYSTEM,
                text=t["text"],
            )
            for t in case.get("turns", [])
        ]
        # classified as `evaluate` classifies a turn, from its two key→value maps
        report = classify_errors(
            state_from_jsonable(case["predicted"]).value_by_key(),
            state_from_jsonable(case["gold"]).value_by_key(),
            turns=turns or None,
        )
        got = {
            "nonexistent_value_count": report.nonexistent_value_count,
            "synonym_count": report.synonym_count,
        }
        if got != case["expected"]:
            problems.append(f"{case['name']}: got {got}, want {case['expected']}")
    verdict(
        "error taxonomy",
        not problems,
        problems[0] if problems else f"{len(raw['cases'])} labelled cases reproduced",
    )
