"""extract and evaluate hold one dialogue at a time: their outputs are the
bytes a whole-corpus run writes, a failure or a kill at any point leaves
the right file behind, and their peak memory, like that of
graph --from-gold, does not grow with the corpus.  predict keeps only the
domain names of each dialogue's states, so its peak does not grow with
the turns a dialogue has."""

import json
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

from dstgraph import backends, cli
from dstgraph.backends import (
    BackendError,
    GenerationParams,
    RuleMockBackend,
    live_input_section,
)
from dstgraph.datasets import (
    fixture_corpus_path,
    fixture_keywords_path,
    read_predictions,
)

from conftest import FakeResponse, child_env, completion_payload, write_predictions

GOLDENS = Path(__file__).resolve().parent / "goldens"

_WORDS = ["thai", "cheap", "centre", "north", "hotel", "museum", "taxi", "east"]


def generated_dialogue(number: int) -> dict:
    """A plain corpus record whose user texts are unique to it."""
    turns, gold = [], []
    for k in range(number % 3 + 1):
        words = " ".join(_WORDS[(number + k + i) % len(_WORDS)] for i in range(3))
        turns.append({"speaker": "user", "text": f"g{number} u{k} {words}"})
        turns.append({"speaker": "system", "text": "ok ."})
        gold.append([{"domain": "restaurant", "slot": "food", "value": _WORDS[k]}])
    return {"dialogue_id": f"g{number:04d}", "turns": turns, "gold": gold}


def write_generated_corpus(path, n: int, messy: bool = False) -> None:
    """``n`` dialogues in an unsorted order; ``messy`` adds a repeated id
    whose first record is malformed, a repeated valid id, and lines that
    are not records."""
    order = sorted(range(n), key=lambda i: (i * 7919) % n)
    lines = [json.dumps(generated_dialogue(i)) for i in order]
    if messy:
        bad = generated_dialogue(1)
        bad["turns"][0]["speaker"] = "narrator"
        lines[1:1] = [json.dumps(bad), "not json", "", "[1]"]
        lines.append(json.dumps(generated_dialogue(1)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def extract_argv(corpus, out, *flags) -> list[str]:
    return ["extract", "--corpus", str(corpus), *flags, "--out", str(out)]


class FailingMock:
    """The keyword mock, failing at its call number ``fail_at``."""

    def __init__(self, fail_at: int):
        self.mock = RuleMockBackend.from_json(fixture_keywords_path())
        self.fail_at = fail_at
        self.calls = 0

    def complete(self, prompt, params):
        self.calls += 1
        if self.calls - 1 == self.fail_at:
            raise BackendError(f"planted failure at call {self.fail_at}")
        return self.mock.complete(prompt, params)


def test_streamed_extract_failure_at_every_turn_writes_the_turns_before_it(
    tmp_path, monkeypatch, capsys
):
    corpus, out = tmp_path / "c.jsonl", tmp_path / "pred.jsonl"
    write_generated_corpus(corpus, 9, messy=True)
    assert cli.main(extract_argv(corpus, out)) == 0
    records, meta = read_predictions(out)
    assert meta["corpus_skipped"] == 4
    assert [r["dialogue_id"] for r in records] == sorted(r["dialogue_id"] for r in records)
    for fail_at in range(len(records)):
        monkeypatch.setattr(cli, "make_backend", lambda cfg: FailingMock(fail_at))
        assert cli.main(extract_argv(corpus, out)) == 2
        failure = f"planted failure at call {fail_at}"
        # the meta line counts every skipped record, read after the failure too
        write_predictions(tmp_path / "expected.jsonl", records[:fail_at],
                          meta={**meta, "failure": failure})
        assert out.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
        assert f"extract aborted after {fail_at} turns" in capsys.readouterr().err


class PromptEndpoint:
    """Thread-safe fake chat-completions transport: the keyword mock's
    completion for every prompt, and HTTP 404 for the prompt whose live
    input ends with the line ``fail_line``."""

    def __init__(self, fail_line=None):
        self._mock = RuleMockBackend.from_json(fixture_keywords_path())
        self._fail_line = fail_line

    def post(self, url, json=None, headers=None, timeout=None):
        prompt = json["messages"][-1]["content"]
        if live_input_section(prompt).strip().splitlines()[-1] == self._fail_line:
            return FakeResponse(404)
        return FakeResponse(200, completion_payload(self._mock.complete(prompt, GenerationParams())))

    def close(self):
        """The backend closes each thread's client as the run ends."""


def http_extract_bytes(corpus, out, monkeypatch, endpoint, pooled: bool) -> tuple[int, bytes]:
    with monkeypatch.context() as m:
        m.setattr(backends, "KeepAliveClient", lambda: endpoint)
        if not pooled:
            # wrapped so that extract_records does not see an HttpBackend
            make = cli.make_backend
            m.setattr(cli, "make_backend", lambda cfg: types.SimpleNamespace(
                complete=make(cfg).complete))
        argv = extract_argv(corpus, out, "--backend", "http", "--endpoint", "http://127.0.0.1:9/v1")
        code = cli.main(argv)
    return code, out.read_bytes()


@pytest.mark.parametrize("position", ["first", "middle", "last", "none"])
def test_streamed_extract_over_the_http_pool_writes_the_sequential_bytes(
    position, tmp_path, monkeypatch, capsys
):
    corpus, out = tmp_path / "c.jsonl", tmp_path / "pred.jsonl"
    write_generated_corpus(corpus, 12, messy=True)
    user_lines = sorted(
        (d["dialogue_id"], k, f"USER: {t['text']}")
        for d in map(generated_dialogue, range(12))
        for k, t in enumerate(x for x in d["turns"] if x["speaker"] == "user")
    )
    index = {"first": 0, "middle": len(user_lines) // 2, "last": -1, "none": None}[position]
    fail_line = None if index is None else user_lines[index][2]
    code, sequential = http_extract_bytes(corpus, out, monkeypatch, PromptEndpoint(fail_line), False)
    assert code == (0 if fail_line is None else 2)
    code_pooled, pooled = http_extract_bytes(corpus, out, monkeypatch, PromptEndpoint(fail_line), True)
    assert code_pooled == code
    assert pooled == sequential
    capsys.readouterr()


_KILL_CHILD = """
import os, sys
from dstgraph import cli
from dstgraph.datasets import PredictionsSpool

step, k = sys.argv[1], int(sys.argv[2])
write, commit = PredictionsSpool.write, PredictionsSpool.commit

def write_until_killed(self, rec):
    if step == "write" and self.count == k:
        os._exit(17)
    write(self, rec)

def commit_or_killed(self, meta):
    if step == "commit":
        os._exit(17)
    commit(self, meta)

PredictionsSpool.write, PredictionsSpool.commit = write_until_killed, commit_or_killed
sys.exit(cli.main(sys.argv[3:]))
"""


@pytest.mark.parametrize("step, k", [("write", 0), ("write", 1), ("write", 20),
                                     ("write", 40), ("commit", 0)])
def test_streamed_extract_killed_mid_run_leaves_the_previous_target(step, k, tmp_path):
    out = tmp_path / "pred.jsonl"
    write_predictions(out, [{"dialogue_id": "old", "turn": 0}], meta={"run": "before"})
    before = out.read_bytes()
    # one child at a time
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_CHILD, step, str(k),
         *extract_argv(fixture_corpus_path(), out)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 17, proc.stderr
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pred.jsonl"]


def test_streamed_extract_finds_no_valid_dialogue_before_making_the_backend(
    tmp_path, capsys
):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"dialogue_id": "d"}\nnot json\n', encoding="utf-8")
    argv = extract_argv(corpus, tmp_path / "pred.jsonl", "--backend", "replay",
                        "--replay", str(tmp_path / "nope.jsonl"))
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: no valid dialogues in {corpus} (2 skipped)\n"


def test_streamed_extract_into_a_missing_directory_fails_at_its_first_record(
    tmp_path, monkeypatch, capsys
):
    # a reviewed change: the spool is made beside the target when the first
    # record is written, so a missing directory stops the run there, not
    # after every turn is tracked
    backend = FailingMock(fail_at=-1)
    monkeypatch.setattr(cli, "make_backend", lambda cfg: backend)
    missing = tmp_path / "missing"
    assert cli.main(extract_argv(fixture_corpus_path(), missing / "pred.jsonl")) == 1
    assert backend.calls == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory") and str(missing) in err
    assert list(tmp_path.iterdir()) == []


def traced_peak(argv) -> int:
    """tracemalloc's peak over one ``cli.main(argv)``, which must exit 0."""
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peak growth allowed from N = 50 to 8N = 400 generated dialogues (a 12 kB
# and a 100 kB corpus).  What grows is the corpus index and, in evaluate,
# each dialogue's turn bits and gold-turn count, under 0.3 kB a dialogue,
# plus the 64 KiB read and copy buffers that the smaller files do not fill:
# about 200 kB for extract, 100 kB for evaluate and 50 kB for
# graph --from-gold.  Holding every dialogue or every record instead grows
# extract by 820 kB here, and graph --from-gold by 500 kB.
_GROWTH_BOUND = 400_000


def test_extract_and_evaluate_peak_memory_does_not_grow_with_the_corpus(
    tmp_path, capsys
):
    peaks = {}
    for n in (50, 400, 50, 400):  # the first two fill the process's caches
        corpus, pred = tmp_path / f"c{n}.jsonl", tmp_path / f"p{n}.jsonl"
        write_generated_corpus(corpus, n)
        peaks[n] = (
            traced_peak(extract_argv(corpus, pred)),
            traced_peak(["evaluate", "--predictions", str(pred), "--corpus", str(corpus),
                         "--out", str(tmp_path / f"r{n}.json")]),
            traced_peak(["graph", "--from-gold", "--corpus", str(corpus),
                         "--out-prefix", str(tmp_path / f"g{n}")]),
        )
    capsys.readouterr()
    for command, small, large in zip(("extract", "evaluate", "graph"), peaks[50], peaks[400]):
        assert large - small < _GROWTH_BOUND, (command, small, large)


# Peak growth allowed from 1 to 20 turns in each of 200 dialogues, every
# turn's state 6 triples whose values no other turn repeats.  What grows is
# the bounded normalize_text and state_triple memos filling (the 20-turn
# file names far more distinct strings than they hold), about 0.35 MB.
# Keeping every dialogue's states instead grows the peak by 8 MB here.
_TURN_GROWTH_BOUND = 1_500_000


def write_turns_predictions(path, n_dialogues: int, n_turns: int) -> None:
    slots = [("restaurant", "area"), ("restaurant", "food"), ("restaurant", "price"),
             ("hotel", "area"), ("hotel", "stars"), ("hotel", "name")]
    write_predictions(path, (
        {"dialogue_id": f"d{i:03d}", "turn": t, "diagnostics": [],
         "predicted_state": [{"domain": domain, "slot": slot, "value": f"v{i}-{t}-{k}"}
                             for k, (domain, slot) in enumerate(slots)]}
        for i in range(n_dialogues) for t in range(n_turns)
    ))


def test_predict_peak_memory_does_not_grow_with_the_turns(tmp_path, capsys):
    peaks = {}
    for turns in (1, 20, 1, 20):  # the first two fill the process's caches
        pred = tmp_path / f"p{turns}.jsonl"
        write_turns_predictions(pred, 200, turns)
        peaks[turns] = traced_peak(
            ["predict", "--graph-prefix", str(GOLDENS / "graph"),
             "--checkpoint", str(GOLDENS / "checkpoint.json"),
             "--predictions", str(pred), "--out", str(tmp_path / f"c{turns}.jsonl")]
        )
    assert "ranked candidates for 200 dialogues" in capsys.readouterr().out
    # both files name restaurant and hotel in every dialogue
    assert (tmp_path / "c1.jsonl").read_bytes().splitlines()[1:] == (
        (tmp_path / "c20.jsonl").read_bytes().splitlines()[1:])
    assert peaks[20] - peaks[1] < _TURN_GROWTH_BOUND, peaks
