"""Seeded input generator for the pipeline benchmark.

Everything here is a pure function of (workload, seed).  Inputs are
generated once per (workload, seed) into a cache directory and never
timed.  The generator knows what it planted, so it also writes the
outputs each workload must reproduce:

* ``track`` / ``track-http``: a corpus of pseudo-word dialogues, a
  keyword table for the rule-mock backend, few-shot exemplars, the
  evaluate report the planted errors imply, and (for ``track-http``) the
  chat-completions stub's answer table.
* ``learn`` / ``rank``: per-turn predictions whose accumulated states
  cover a planned bipartite graph exactly, so node and edge counts are
  known in advance.  The vocabulary is drawn fresh for the planned size,
  so the graph grows with it (replicating the fixture would not).

Usage (normally called by run.py in a child process):
    python3 perfbench/gen.py --workload track --seed 1 --cache DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# ---------------------------------------------------------------- sizes

# Dialogue counts are multiples of four: user-turn counts cycle through
# 3, 4, 5 and 6, so every seed has the same number of turns of each
# context length and only the content varies with the seed.
TRACK_DIALOGUES = 400
TRACK_KEYWORDS = 350
# track-http: 16 dialogues (72 user turns), of which exactly HTTP_FLAKY
# turns get one 503 first, so the retry wait is the same for every seed;
# 1 of 73 requests (1.4%) keeps both p50 and p95 on clean requests
HTTP_DIALOGUES = 16
HTTP_FLAKY = 1
EXEMPLARS = 4

# planned graphs: (domains, slot-values per domain, share of slot-values
# linked to a second domain)
LEARN_GRAPH = (22, 68, 0.3)
RANK_GRAPH = (16, 62, 0.3)
SLOTS_PER_DOMAIN = 12
LEARN_EPOCHS = 2
# a higher rate than the default 0.01 so that two epochs lower the loss
# by far more than the epoch-to-epoch noise of the sampled embeddings
LEARN_RATE = 0.1
RANK_TRAIN_EPOCHS = 20
TOP_K = 5

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _word_pool(rng: random.Random, n: int) -> list[str]:
    """n distinct lowercase CVCVCV pseudo-words (no English substrings)."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        w = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _norm(text: str) -> str:
    return " ".join(text.split()).casefold()


def _format_completion(triples) -> str:
    """Canonical completion text: sorted triples, LaTeX-style quotes."""
    ts = sorted(triples)

    def q(items):
        return ", ".join(f"`{x}'" for x in items)

    return (
        f"Domain : [{q(t[0] for t in ts)}] , Slot : [{q(t[1] for t in ts)}] , "
        f"Value : [{q(t[2] for t in ts)}]"
    )


# ---------------------------------------------------------------- track

_ASK = [
    "i am looking for {k} today",
    "could you find me {k} please",
    "also {k} would be great",
    "we need {k} for the trip",
    "make sure it has {k}",
    "i would like {k} if possible",
]
_ASK2 = ["{k} and {k2} please", "i want {k} with {k2}"]
_MISS = "maybe something with {v} for the {s} instead"
_SYSTEM = [
    "sure , let me check that for you .",
    "noted , anything else ?",
    "i can help with that .",
    "one moment while i look .",
]

# keyword kinds and their shares of the table: how the rule-mock's answer
# relates to the gold annotation
_KINDS = (
    ("exact", 0.86),    # table value equals gold value
    ("synonym", 0.05),  # table value is the whole phrase, gold the first word
    ("extra", 0.04),    # mentioned but not in gold (unclassified error)
    ("junk", 0.03),     # table value is a placeholder (nonexistent value)
    ("empty", 0.02),    # table value is empty (parser emits empty_field)
)


def make_track(seed: int, n_dialogues: int) -> dict:
    """Dialogues with planted keyword mentions, and what each turn should yield."""
    rng = random.Random(f"track-{seed}")
    n_domains = TRACK_KEYWORDS // 40
    words = _word_pool(rng, 2 * TRACK_KEYWORDS + n_domains * (SLOTS_PER_DOMAIN + 1) + 64)
    domains = [words.pop() for _ in range(n_domains)]
    slots = {d: [words.pop() for _ in range(SLOTS_PER_DOMAIN)] for d in domains}

    keywords: list[dict] = []
    kinds = [k for k, share in _KINDS for _ in range(round(share * TRACK_KEYWORDS))]
    kinds += ["exact"] * (TRACK_KEYWORDS - len(kinds))
    rng.shuffle(kinds)
    for kind in kinds:
        d = rng.choice(domains)
        s = rng.choice(slots[d])
        v, tail = words.pop(), words.pop()
        phrase = f"{v} {tail}"
        table_value = {"exact": v, "synonym": phrase, "extra": v, "junk": "tbd",
                       "empty": ""}[kind]
        keywords.append({"phrase": phrase, "domain": d, "slot": s,
                         "table_value": table_value, "gold_value": v, "kind": kind})
    miss_pool = [(d, s, words.pop()) for d in domains for s in slots[d][:2]]

    lengths = [3, 4, 5, 6] * (n_dialogues // 4)
    rng.shuffle(lengths)
    dialogues = []
    n_asked = 0  # user turns so far: every 5th asks for two things
    for i, n_user in enumerate(lengths):
        used_keys: set[tuple[str, str]] = set()
        turns, gold_states, pred_states, plants = [], [], [], []
        gold: dict = {}
        pred: dict = {}
        for t in range(n_user):
            n_kw = 2 if n_asked % 5 == 4 else 1
            n_asked += 1
            chosen = []
            for _ in range(50):
                kw = rng.choice(keywords)
                key = (kw["domain"], kw["slot"])
                if key not in used_keys and kw not in chosen:
                    chosen.append(kw)
                    used_keys.add(key)
                    if len(chosen) == n_kw:
                        break
            if len(chosen) == 2:
                text = rng.choice(_ASK2).format(k=chosen[0]["phrase"], k2=chosen[1]["phrase"])
            else:
                text = rng.choice(_ASK).format(k=chosen[0]["phrase"])
            miss = None
            if n_asked % 20 == 7:
                d, s, v = rng.choice(miss_pool)
                if (d, s) not in used_keys:
                    used_keys.add((d, s))
                    miss = (d, s, v)
                    text += " , " + _MISS.format(v=v, s=s)
            turns.append({"speaker": "user", "text": text})
            if t < n_user - 1 or i % 2:
                turns.append({"speaker": "system", "text": rng.choice(_SYSTEM)})
            for kw in chosen:
                key = (kw["domain"], kw["slot"])
                if kw["kind"] in ("exact", "synonym"):
                    gold[key] = kw["gold_value"]
                if kw["kind"] != "empty":
                    pred[key] = kw["table_value"]
            if miss is not None:
                gold[(miss[0], miss[1])] = miss[2]
            gold_states.append(sorted((d, s, v) for (d, s), v in gold.items()))
            pred_states.append(sorted((d, s, v) for (d, s), v in pred.items()))
            plants.append([kw["phrase"] for kw in chosen])
        dialogues.append({
            "dialogue_id": f"g{i:05d}",
            "turns": turns,
            "gold": gold_states,
            "_pred": pred_states,
            "_plants": plants,
        })

    table = {kw["phrase"]: (kw["domain"], kw["slot"], kw["table_value"]) for kw in keywords}
    _verify_planted(dialogues, table)
    return {
        "dialogues": dialogues,
        "keywords": {p: {"domain": d, "slot": s, "value": v} for p, (d, s, v) in table.items()},
        "exemplars": _exemplars(rng, words, domains, slots),
        "table": table,
    }


def _contexts(dialogue: dict):
    """(user-turn index, live input text) for each user turn of a dialogue."""
    lines = []
    k = 0
    for turn in dialogue["turns"]:
        prefix = "USER: " if turn["speaker"] == "user" else "SYSTEM: "
        lines.append(prefix + turn["text"])
        if turn["speaker"] == "user":
            yield k, "\n".join(lines)
            k += 1


def _verify_planted(dialogues: list[dict], table: dict) -> None:
    """Brute-force keyword scan: every context must hit exactly what was planted."""
    for dialogue in dialogues:
        for k, text in _contexts(dialogue):
            norm = _norm(text)
            hits = {p for p in table if p in norm}
            planted = {p for plants in dialogue["_plants"][: k + 1] for p in plants}
            if hits != planted:
                raise RuntimeError(
                    f"{dialogue['dialogue_id']} turn {k}: unplanted keyword hits "
                    f"{sorted(hits ^ planted)}"
                )


def _exemplars(rng, words, domains, slots) -> list[dict]:
    out = []
    for _ in range(EXEMPLARS):
        d = rng.choice(domains)
        s = rng.choice(slots[d])
        v = words.pop()
        out.append({
            "input": f"USER: i need a {v} {words.pop()} place\nSYSTEM: sure .",
            "output": _format_completion([(d, s, v)]),
        })
    return out


def expected_report(dialogues: list[dict]) -> dict:
    """The evaluate report fields the planted errors imply.

    Mirrors the metric definitions (micro slot F1, gold-keyed slot
    accuracy, error taxonomy over the dialogue's turn texts) on the
    generator's own record of predicted and gold triples.
    """
    junk = {"unknown", "n/a", "na", "null", "nil", "tbd", "placeholder", "xxx", "value"}
    hits = tp = fp = fn = total = correct = 0
    nonexistent = synonym = errors = 0
    samples: list[dict] = []
    n_turns = 0
    for dialogue in sorted(dialogues, key=lambda x: x["dialogue_id"]):
        texts = [_norm(t["text"]) for t in dialogue["turns"]]
        for pred_l, gold_l in zip(dialogue["_pred"], dialogue["gold"]):
            n_turns += 1
            ps, gs = set(map(tuple, pred_l)), set(map(tuple, gold_l))
            hits += ps == gs
            tp += len(ps & gs)
            fp += len(ps - gs)
            fn += len(gs - ps)
            gold_kv = {(d, s): v for d, s, v in gs}
            pred_kv = {(d, s): v for d, s, v in ps}
            total += len(gold_kv)
            correct += sum(1 for k, v in gold_kv.items() if pred_kv.get(k) == v)
            for d, s, v in sorted(ps):
                g = gold_kv.get((d, s))
                if g == v:
                    continue
                errors += 1
                is_junk = (v in junk or (v and not any(c.isalnum() for c in v))
                           or (len(v) > 1 and len(set(v)) == 1))
                if is_junk or not any(v in text for text in texts):
                    kind = "nonexistent_value"
                    nonexistent += 1
                elif g is not None and (set(v.split()) <= set(g.split())
                                        or set(g.split()) <= set(v.split())):
                    kind = "synonym"
                    synonym += 1
                else:
                    kind = "unclassified"
                if len(samples) < 20:
                    samples.append({"kind": kind, "domain": d, "slot": s,
                                    "predicted": v, "gold": g})
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "jga": hits / n_turns,
        "slot_precision": precision,
        "slot_recall": recall,
        "slot_f1": f1,
        "slot_accuracy": correct / total,
        "turn_count": n_turns,
        "parse_failure_count": 0,
        "error_report": {
            "nonexistent_value_count": nonexistent,
            "synonym_count": synonym,
            "total_errors": errors,
            "samples": samples,
        },
    }


def stub_table(dialogues: list[dict], table: dict, seed: int) -> dict:
    """Answer table for the chat-completions stub.

    Keyed by the whitespace-collapsed live input of each user turn; the
    answer is what the rule-mock would return for it.  HTTP_FLAKY keys,
    each asked exactly once per pass, are marked flaky: the stub answers
    503 to every other request for them, so each pass retries exactly
    HTTP_FLAKY times.
    """
    answers: dict[str, str] = {}
    asked: dict[str, int] = {}
    for dialogue in dialogues:
        for _, text in _contexts(dialogue):
            norm = _norm(text)
            hits = [table[p] for p in table if p in norm]
            key = " ".join(text.split())
            answers[key] = _format_completion(hits)
            asked[key] = asked.get(key, 0) + 1
    once = sorted(k for k, n in asked.items() if n == 1)
    flaky = set(random.Random(f"flaky-{seed}").sample(once, HTTP_FLAKY))
    return {k: [answers[k], k in flaky] for k in sorted(answers)}


# ---------------------------------------------------------------- graphs


def make_graph_predictions(seed: int, tag: str, shape: tuple[int, int, float]) -> dict:
    """Per-turn predictions whose states cover a planned bipartite graph.

    Each slot-value has a home domain and, with the given share, one
    more; every planned edge appears in some dialogue, and no dialogue
    repeats a (domain, slot) key, so every planned triple survives
    accumulation.  Dialogues touch 1-3 domains.
    """
    n_domains, per_domain, cross = shape
    rng = random.Random(f"{tag}-{seed}")
    words = _word_pool(rng, n_domains * (SLOTS_PER_DOMAIN + per_domain + 1))
    domains = [words.pop() for _ in range(n_domains)]
    slots = {d: [words.pop() for _ in range(SLOTS_PER_DOMAIN)] for d in domains}
    remaining: dict[str, list] = {d: [] for d in domains}
    n_sv = 0
    for d in domains:
        for _ in range(per_domain):
            sv = (rng.choice(slots[d]), words.pop())
            n_sv += 1
            remaining[d].append(sv)
            if rng.random() < cross:
                remaining[rng.choice([x for x in domains if x != d])].append(sv)
    n_edges = sum(len(v) for v in remaining.values())
    for d in domains:
        rng.shuffle(remaining[d])

    records = []
    i = 0
    while any(remaining.values()):
        open_domains = [d for d in domains if remaining[d]]
        # a fixed 1, 2, 2, 3 cycle, so every block of four dialogues has
        # the same mix of domain counts
        k = min(len(open_domains), (1, 2, 2, 3)[i % 4])
        triples = []
        for d in rng.sample(open_domains, k):
            used: set[str] = set()
            take = rng.randint(2, 4)
            kept = []
            for sv in remaining[d]:
                if len([t for t in triples if t[0] == d]) < take and sv[0] not in used:
                    used.add(sv[0])
                    triples.append((d, sv[0], sv[1]))
                else:
                    kept.append(sv)
            remaining[d] = kept
        rng.shuffle(triples)
        n_turns = rng.randint(2, 5)
        state: list = []
        dialogue_id = f"{tag[0]}{i:05d}"
        for t in range(n_turns):
            state = state + triples[t::n_turns]
            records.append({
                "dialogue_id": dialogue_id,
                "turn": t,
                "predicted_state": [
                    {"domain": d, "slot": s, "value": v} for d, s, v in sorted(state)
                ],
                "diagnostics": [],
            })
        i += 1
    return {
        "records": records,
        "n_dialogues": i,
        "n_nodes": n_domains + n_sv,
        "n_edges": n_edges,
        "n_domains": n_domains,
    }


# ---------------------------------------------------------------- files


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")


def _cli(out: Path, *args: str) -> None:
    """Run one pipeline stage in a child interpreter, from the checkout's src."""
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    subprocess.run(
        [sys.executable, "-m", "dstgraph.cli", *args],
        cwd=out, env=env, check=True, capture_output=True, timeout=600,
    )


def build(workload: str, seed: int, out: Path) -> None:
    """Write every input and expectation of one (workload, seed) into out."""
    out.mkdir(parents=True)
    props: dict = {"workload": workload, "seed": seed}
    if workload in ("track", "track-http"):
        data = make_track(seed, TRACK_DIALOGUES if workload == "track" else HTTP_DIALOGUES)
        dialogues = data["dialogues"]
        _write_jsonl(out / "corpus.jsonl", (
            {
                "dialogue_id": d["dialogue_id"],
                "turns": d["turns"],
                "gold": [
                    [{"domain": a, "slot": b, "value": c} for a, b, c in state]
                    for state in d["gold"]
                ],
            }
            for d in dialogues
        ))
        (out / "keywords.json").write_text(json.dumps(data["keywords"], indent=1))
        _write_jsonl(out / "exemplars.jsonl", data["exemplars"])
        (out / "expected_report.json").write_text(json.dumps(expected_report(dialogues)))
        props.update(
            dialogues=len(dialogues),
            user_turns=sum(len(d["gold"]) for d in dialogues),
            keywords=len(data["keywords"]),
            exemplars=len(data["exemplars"]),
        )
        if workload == "track-http":
            table = stub_table(dialogues, data["table"], seed)
            (out / "stub_table.json").write_text(json.dumps(table))
            props["flaky_contexts"] = sum(1 for _, f in table.values() if f)
            # the records a rule-mock run produces on the same inputs
            _cli(out, "extract", "--corpus", "corpus.jsonl", "--backend", "rulemock",
                 "--keywords", "keywords.json", "--exemplars", "exemplars.jsonl",
                 "--anti-hallucination", "--out", "rulemock.jsonl")
    else:
        shape = LEARN_GRAPH if workload == "learn" else RANK_GRAPH
        data = make_graph_predictions(seed, workload, shape)
        _write_jsonl(out / "predictions.jsonl", data["records"])
        props.update(
            dialogues=data["n_dialogues"],
            turns=len(data["records"]),
            n_nodes=data["n_nodes"],
            n_edges=data["n_edges"],
            n_domains=data["n_domains"],
        )
        if workload == "learn":
            props["epochs"] = LEARN_EPOCHS
            props["learning_rate"] = LEARN_RATE
            # loss at the initial weights, for the "final below initial" check
            _cli(out, "graph", "--predictions", "predictions.jsonl", "--out-prefix", "g0")
            _cli(out, "train", "--graph-prefix", "g0", "--checkpoint", "c0.json",
                 "--metrics-out", "m0.json", "--seed", str(seed), "--epochs", "1")
            props["initial_loss"] = json.loads((out / "m0.json").read_text())["final_total"]
            for name in ("g0.nodes.jsonl", "g0.edges.txt", "g0.manifest.json",
                         "c0.json", "m0.json"):
                (out / name).unlink()
        else:
            props["top_k"] = TOP_K
            _cli(out, "graph", "--predictions", "predictions.jsonl", "--out-prefix", "graph")
            _cli(out, "train", "--graph-prefix", "graph", "--checkpoint", "checkpoint.json",
                 "--metrics-out", "train_metrics.json", "--seed", str(seed),
                 "--epochs", str(RANK_TRAIN_EPOCHS))
    (out / "properties.json").write_text(json.dumps(props, indent=1, sort_keys=True))


def ensure(workload: str, seed: int, cache: Path) -> Path:
    """Cached inputs for (workload, seed, generator version), generated
    atomically on first use."""
    version = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
    final = cache / f"{workload}-{seed}-{version}"
    if (final / "properties.json").exists():
        return final
    tmp = cache / f".tmp-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        build(workload, seed, tmp)
        try:
            os.rename(tmp, final)
        except OSError:
            if not (final / "properties.json").exists():
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["track", "track-http", "learn", "rank"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache", required=True)
    args = ap.parse_args()
    Path(args.cache).mkdir(parents=True, exist_ok=True)
    print(ensure(args.workload, args.seed, Path(args.cache)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
