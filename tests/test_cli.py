import dataclasses
import functools
import io
import json
import random
import sys
import threading
import types
import typing
from pathlib import Path

import pytest

from dstgraph import __version__, backends, cli, linkpred, tracking, vgae
from dstgraph.backends import (
    GenerationParams,
    RuleMockBackend,
    live_input_section,
    prompt_hash,
)
from dstgraph.cli import RunConfig, UsageError, resolve_config
from dstgraph.datasets import (
    AnnotatedDialogue,
    fixture_corpus_path,
    fixture_keywords_path,
    fixture_replay_path,
    iter_predictions,
    load_corpus,
    read_predictions,
    write_corpus,
    write_json_lines,
)
from dstgraph.dialogue import DialogueContext, Speaker, Turn, append_turn
from dstgraph.graph import dialogue_domains, load_graph, planted_graph, split_edges
from dstgraph.vgae import TrainConfig, edge_probabilities, encode, save_checkpoint, train

from conftest import FakeResponse, completion_payload, sgd_record, write_predictions


def parse(argv):
    return resolve_config(cli._build_parser().parse_args(argv))


# --- configuration resolution ---


def test_run_config_defaults():
    cfg = RunConfig()
    assert cfg.backend == "rulemock"
    assert cfg.strategy == "cot"
    assert cfg.anti_hallucination is True
    assert cfg.temperature == 0.0
    assert cfg.seed == 0


def test_cli_flags_override_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# training settings\nseed = 7\nepochs = 3\nlearning-rate = 0.5\n",
        encoding="utf-8",
    )
    cfg = parse(
        ["train", "--config", str(conf), "--seed", "9",
         "--graph-prefix", "g", "--checkpoint", "m.json"]
    )
    assert cfg.seed == 9  # flag beats file
    assert cfg.epochs == 3  # file beats default
    assert cfg.learning_rate == 0.5  # dashed keys normalize to field names
    assert cfg.kl_weight == 1.0  # default survives


def test_config_file_rejects_unknown_keys(tmp_path):
    conf = tmp_path / "run.conf"
    for text in ("sede = 7\n", "jobs = 2\n"):
        conf.write_text(text, encoding="utf-8")
        with pytest.raises(UsageError):
            parse(["train", "--config", str(conf)])


def test_config_file_rejects_bad_syntax_and_bad_bool(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("just a line\n", encoding="utf-8")
    with pytest.raises(UsageError):
        parse(["extract", "--config", str(conf)])
    conf.write_text("anti_hallucination = maybe\n", encoding="utf-8")
    with pytest.raises(UsageError):
        parse(["extract", "--config", str(conf)])


def test_config_file_values_take_each_fields_annotated_type(tmp_path):
    hints = typing.get_type_hints(RunConfig)
    samples = {bool: ("no", False), int: ("3", 3), float: ("2", 2.0)}
    typed = [f.name for f in dataclasses.fields(RunConfig) if hints[f.name] is not str]
    assert {hints[name] for name in typed} == set(samples)
    conf = tmp_path / "run.conf"
    conf.write_text(
        "".join(f"{name} = {samples[hints[name]][0]}\n" for name in typed),
        encoding="utf-8",
    )
    cfg = parse(["train", "--config", str(conf)])
    for name in typed:
        value = getattr(cfg, name)
        assert type(value) is hints[name], name
        assert value == samples[hints[name]][1], name


@pytest.mark.parametrize(
    "separator", ["\u2028", "\x85", "\x0c"], ids=["U+2028", "U+0085", "form-feed"]
)
def test_config_file_splits_only_at_newlines(separator, tmp_path):
    # str.splitlines would also split at these, and fail the value's tail
    conf = tmp_path / "run.cfg"
    conf.write_text(
        f"# prompt\ninstruction = track the state{separator}carefully\n", encoding="utf-8"
    )
    cfg = parse(["extract", "--config", str(conf)])
    assert cfg.instruction == f"track the state{separator}carefully"


def test_config_file_reads_crlf_as_its_lf_twin(tmp_path):
    conf = tmp_path / "run.cfg"
    conf.write_bytes(b"# training\r\nseed = 7\r\nepochs = 3\r\n")
    cfg = parse(["train", "--config", str(conf)])
    assert (cfg.seed, cfg.epochs) == (7, 3)
    conf.write_bytes(b"seed = 7\r\n\r\njust a line\r\n")
    with pytest.raises(UsageError, match=r"run\.cfg:3: expected `key = value`$"):
        parse(["train", "--config", str(conf)])


def test_config_file_boolean_coercion(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("anti_hallucination = false\n", encoding="utf-8")
    assert parse(["extract", "--config", str(conf)]).anti_hallucination is False
    # explicit flag wins over the file
    got = parse(["extract", "--config", str(conf), "--anti-hallucination"])
    assert got.anti_hallucination is True


def test_anti_hallucination_flags():
    assert parse(["extract"]).anti_hallucination is True
    assert parse(["extract", "--no-anti-hallucination"]).anti_hallucination is False
    with pytest.raises(UsageError):
        parse(["extract", "--anti-hallucination", "--no-anti-hallucination"])


def test_bad_choice_and_bad_subcommand_are_usage_errors(capsys):
    assert cli.main(["extract", "--strategy", "bogus"]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


# --- parser shape ---

# Each option as (option strings, dest, type, choices, action kind, help).
_HELP_OPTION = ("-h --help", "help", None, None, "Help", "show this help message and exit")
_CONFIG_OPTION = ("--config", "config", None, None, "Store", "key = value settings file")
_BACKEND_OPTIONS = [
    ("--backend", "backend", None, ["rulemock", "replay", "http"], "Store", None),
    ("--endpoint", "endpoint", None, None, "Store",
     "chat-completions base URL (http backend)"),
    ("--model", "model", None, None, "Store", "model name sent to the endpoint"),
    ("--keywords", "keywords", None, None, "Store",
     "keyword table JSON (rulemock backend)"),
    ("--replay", "replay", None, None, "Store", "replay fixture JSONL (replay backend)"),
    ("--temperature", "temperature", cli._finite_float, None, "Store", None),
    ("--max-tokens", "max_tokens", int, None, "Store", None),
    ("--timeout", "timeout", cli._finite_float, None, "Store", None),
    ("--retries", "retries", int, None, "Store", None),
]
_PROMPT_OPTIONS = [
    ("--strategy", "strategy", None,
     ["cot", "cot-persona1", "cot-persona2", "cot-persona3", "self-discover", "tot"],
     "Store", None),
    ("--anti-hallucination", "anti_hallucination", None, None, "StoreTrue", None),
    ("--no-anti-hallucination", "anti_hallucination", None, None, "StoreFalse", None),
    ("--instruction", "instruction", None, None, "Store",
     "override the default instruction text"),
    ("--exemplars", "exemplars_file", None, None, "Store", "exemplar JSONL"),
    ("--templates", "templates_file", None, None, "Store", "template overrides"),
]
_FORMAT_OPTION = (
    "--format", "corpus_format", None, ["auto", "multiwoz", "plain", "sgd"], "Store", None
)
_ANTI_GROUP = [["--anti-hallucination", "--no-anti-hallucination"]]


def store(flag, dest=None, type=None):
    return (flag, dest or flag[2:].replace("-", "_"), type, None, "Store", None)


# Per subcommand: its help, its options in order, its mutually exclusive
# groups.
_PARSER_SHAPE = {
    "extract": (
        "extract dialogue states per user turn",
        [_HELP_OPTION, _CONFIG_OPTION, *_BACKEND_OPTIONS, *_PROMPT_OPTIONS,
         store("--corpus"), _FORMAT_OPTION, store("--out")],
        _ANTI_GROUP,
    ),
    "evaluate": (
        "score predictions against gold states",
        [_HELP_OPTION, _CONFIG_OPTION, store("--predictions"), store("--corpus"),
         _FORMAT_OPTION, store("--out")],
        [],
    ),
    "graph": (
        "build the dialogue-state graph",
        [_HELP_OPTION, _CONFIG_OPTION, store("--predictions"), store("--corpus"),
         _FORMAT_OPTION, ("--from-gold", "from_gold", None, None, "StoreTrue", None),
         store("--out-prefix")],
        [],
    ),
    "train": (
        "train the link predictor on a graph",
        [_HELP_OPTION, _CONFIG_OPTION, store("--graph-prefix", "out_prefix"),
         store("--checkpoint"), store("--metrics-out"), store("--seed", type=int),
         store("--epochs", type=int), store("--hidden-dim", type=int),
         store("--latent-dim", type=int), store("--learning-rate", type=cli._finite_float),
         store("--kl-weight", type=cli._finite_float),
         store("--train-frac", type=cli._finite_float),
         store("--test-frac", type=cli._finite_float),
         store("--val-frac", type=cli._finite_float)],
        [],
    ),
    "predict": (
        "rank next-state candidates per dialogue",
        [_HELP_OPTION, _CONFIG_OPTION, store("--graph-prefix", "out_prefix"),
         store("--checkpoint"), store("--predictions"), store("--top-k", type=int),
         store("--out")],
        [],
    ),
    "repl": (
        "interactive line-oriented tracker",
        [_HELP_OPTION, _CONFIG_OPTION, *_BACKEND_OPTIONS, *_PROMPT_OPTIONS,
         store("--graph-prefix", "out_prefix"), store("--checkpoint"),
         store("--top-k", type=int)],
        _ANTI_GROUP,
    ),
}


def option_row(action):
    kind = type(action).__name__.strip("_").removesuffix("Action")
    choices = None if action.choices is None else list(action.choices)
    return (" ".join(action.option_strings), action.dest, action.type, choices,
            kind, action.help)


def test_parser_shape_is_pinned():
    parser = cli._build_parser()
    assert parser.prog == "dstgraph"
    top, version, sub = parser._actions
    assert option_row(top) == _HELP_OPTION
    assert (version.option_strings, version.version) == (["--version"], __version__)
    assert (sub.dest, sub.required) == ("command", True)
    helps = {a.dest: a.help for a in sub._choices_actions}
    shape = {}
    for name, p in sub.choices.items():
        for action in p._actions[1:]:
            # None: a flag left off the command line defers to the config file
            assert (action.default, action.required) == (None, False), action.dest
        groups = [[a.option_strings[0] for a in g._group_actions]
                  for g in p._mutually_exclusive_groups]
        shape[name] = (helps[name], [option_row(a) for a in p._actions], groups)
    assert shape == _PARSER_SHAPE


@pytest.mark.parametrize("command", [[], *([c] for c in _PARSER_SHAPE)], ids=str)
def test_help_of_every_command_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main([*command, "--help"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith(
        f"usage: {' '.join(['dstgraph', *command])} "
    )


# --- exit codes ---


def test_missing_required_paths_exit_1(capsys):
    # each message names every required setting, in declaration order
    for command, message in [
        ("extract", "extract requires --corpus and --out"),
        ("evaluate", "evaluate requires --predictions, --corpus and --out"),
        ("graph", "graph requires --out-prefix"),
        ("train", "train requires --graph-prefix and --checkpoint"),
        ("predict", "predict requires --graph-prefix, --checkpoint, --predictions and --out"),
    ]:
        assert cli.main([command]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_corpus_file_exit_1(tmp_path, capsys):
    code = cli.main(
        ["extract", "--corpus", str(tmp_path / "nope.jsonl"), "--out", "o.jsonl"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_internal_error_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "CorpusReader", lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom"))
    )
    code = cli.main(
        ["extract", "--corpus", str(fixture_corpus_path()), "--out", "o.jsonl"]
    )
    assert code == 3
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_setting_a_command_accepts_is_a_run_config_field(command):
    # an output echoes the settings its subcommand's parser produced, by
    # RunConfig field name
    accepted = vars(cli._build_parser().parse_args([command])).keys()
    assert accepted - {"command", "config"} <= RunConfig.__dataclass_fields__.keys()


def test_transport_settings_leave_extract_output_unchanged(tmp_path, capsys):
    out = tmp_path / "pred.jsonl"
    argv = ["extract", "--corpus", str(fixture_corpus_path()), "--out", str(out)]
    assert cli.main(argv) == 0
    plain = out.read_bytes()
    assert cli.main([*argv, "--timeout", "5", "--retries", "0"]) == 0
    assert out.read_bytes() == plain
    capsys.readouterr()


# --- extraction ---


def test_extract_writes_meta_and_records(tmp_path, capsys):
    out = tmp_path / "pred.jsonl"
    code = cli.main(
        ["extract", "--corpus", str(fixture_corpus_path()), "--out", str(out)]
    )
    assert code == 0
    records, meta = read_predictions(out)
    assert len(records) == 41
    assert meta["version"] == __version__
    assert meta["config"]["backend"] == "rulemock"
    assert meta["config"]["strategy"] == "cot"
    assert meta["corpus_skipped"] == 0
    for rec in records:
        assert set(rec) == {"dialogue_id", "turn", "predicted_state", "diagnostics"}


def test_extract_replay_matches_rulemock(tmp_path):
    mock_out = tmp_path / "mock.jsonl"
    replay_out = tmp_path / "replay.jsonl"
    corpus = str(fixture_corpus_path())
    assert cli.main(["extract", "--corpus", corpus, "--out", str(mock_out)]) == 0
    assert (
        cli.main(
            ["extract", "--corpus", corpus, "--backend", "replay",
             "--replay", str(fixture_replay_path()), "--out", str(replay_out)]
        )
        == 0
    )
    mock_records, _ = read_predictions(mock_out)
    replay_records, _ = read_predictions(replay_out)
    assert mock_records == replay_records


def test_extract_replay_miss_flushes_partial_output(tmp_path, capsys):
    # two single-turn dialogues; record a completion only for the first
    d1 = AnnotatedDialogue(
        dialogue_id="a1",
        turns=(Turn(speaker=Speaker.USER, text="i want thai food"),),
    )
    d2 = AnnotatedDialogue(
        dialogue_id="b2",
        turns=(Turn(speaker=Speaker.USER, text="a cheap price range"),),
    )
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, [d1, d2])

    ctx = append_turn(DialogueContext(), d1.turns[0])
    prompt = cli.make_tracker(RunConfig()).prompt(ctx)
    replay_path = tmp_path / "replay.jsonl"
    completion = "Domain : [`restaurant'] , Slot : [`food'] , Value : [`thai']"
    write_json_lines(
        replay_path, [{"prompt_hash": prompt_hash(prompt), "completion": completion}]
    )

    out = tmp_path / "pred.jsonl"
    code = cli.main(
        ["extract", "--corpus", str(corpus), "--backend", "replay",
         "--replay", str(replay_path), "--out", str(out)]
    )
    assert code == 2
    assert "backend error" in capsys.readouterr().err
    records, meta = read_predictions(out)
    assert len(records) == 1
    assert records[0]["dialogue_id"] == "a1"
    assert "no recorded completion" in meta["failure"]


# --- concurrent http extraction ---


class CorpusEndpoint:
    """Thread-safe fake chat-completions transport over the fixture corpus.

    Answers every prompt with the keyword mock's completion, so replies
    depend on prompt content only, never on request order.  Each request
    is traced to its turn, ``(dialogue_id, user turn)`` with user turns
    counted from 1, by the prompt's live input: its first line names the
    dialogue and its ``USER:`` lines count the turn.  ``requested`` lists
    the turns in the order their requests arrived, and ``turns`` lists
    every user turn in extraction order.  ``fail_on`` answers that turn
    with HTTP 404, which the backend does not retry.  With ``hold=(turn,
    until)``, the request for ``turn`` waits up to ``hold_s`` seconds for
    the request for ``until``; ``held`` tells whether it came.
    """

    def __init__(self, fail_on=None, hold=None, hold_s=10.0):
        dialogues = load_corpus(fixture_corpus_path()).dialogues
        self.turns = [
            (d.dialogue_id, k + 1)
            for d in sorted(dialogues, key=lambda d: d.dialogue_id)
            for k in range(sum(t.speaker is Speaker.USER for t in d.turns))
        ]
        self._by_first_line = {d.turns[0].render(): d.dialogue_id for d in dialogues}
        self._mock = RuleMockBackend.from_json(fixture_keywords_path())
        self._fail_on = fail_on
        self._held_turn, self._hold_until = hold or (None, None)
        self._hold_s = hold_s
        self._arrived = threading.Event()
        self._lock = threading.Lock()
        self.requested: list[tuple[str, int]] = []
        self.held = False

    @property
    def started(self) -> list[str]:
        """Dialogue ids in the order of their first request."""
        return list(dict.fromkeys(dialogue_id for dialogue_id, _ in self.requested))

    def post(self, url, json=None, headers=None, timeout=None):
        prompt = json["messages"][-1]["content"]
        lines = live_input_section(prompt).strip().splitlines()
        turn = (
            self._by_first_line[lines[0]],
            sum(line.startswith("USER:") for line in lines),
        )
        with self._lock:
            self.requested.append(turn)
        if turn == self._hold_until:
            self._arrived.set()
        elif turn == self._held_turn:
            self.held = self._arrived.wait(timeout=self._hold_s)
        if turn == self._fail_on:
            return FakeResponse(404)
        completion = self._mock.complete(prompt, GenerationParams())
        return FakeResponse(200, completion_payload(completion))

    def close(self):
        """The backend closes each thread's client as the run ends."""


def http_extract(tmp_path, monkeypatch, endpoint):
    """Run `extract --backend http` with every thread's client bound to
    ``endpoint``; returns (exit code, output bytes)."""
    monkeypatch.setattr(backends, "KeepAliveClient", lambda: endpoint)
    out = tmp_path / "pred.jsonl"
    code = cli.main(
        ["extract", "--corpus", str(fixture_corpus_path()), "--backend", "http",
         "--endpoint", "http://127.0.0.1:9/v1", "--out", str(out)]
    )
    return code, out.read_bytes()


def sequential_http_extract(tmp_path, monkeypatch, endpoint):
    """`http_extract` on the sequential driver: the backend is wrapped so
    extract_records does not see an HttpBackend."""
    with monkeypatch.context() as m:
        make = cli.make_backend
        m.setattr(cli, "make_backend", lambda cfg: types.SimpleNamespace(
            complete=make(cfg).complete))
        m.setattr(tracking, "ThreadPoolExecutor", None)
        return http_extract(tmp_path, m, endpoint)


def pooled_http_extract(tmp_path, monkeypatch, endpoint):
    """`http_extract` on the pool, with a short switch interval so the
    workers interleave finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        return http_extract(tmp_path, monkeypatch, endpoint)
    finally:
        sys.setswitchinterval(interval)


def test_http_extract_on_pool_matches_sequential_bytes(tmp_path, monkeypatch, capsys):
    code, sequential = sequential_http_extract(tmp_path, monkeypatch, CorpusEndpoint())
    assert code == 0

    # a dialogue's first turn waits for its second: only a run that
    # requests the turns of one dialogue concurrently passes
    endpoint = CorpusEndpoint(hold=(("fx001", 1), ("fx001", 2)))
    code, pooled = pooled_http_extract(tmp_path, monkeypatch, endpoint)
    assert code == 0
    assert endpoint.held, "the turns of one dialogue were not requested concurrently"
    assert pooled == sequential
    records, _ = read_predictions(tmp_path / "pred.jsonl")
    assert len(records) == 41
    capsys.readouterr()


def test_http_extract_failure_writes_sequential_partial_output(
    tmp_path, monkeypatch, capsys
):
    fail_on = ("fx003", 2)  # the second user turn of the third dialogue
    sequential_endpoint = CorpusEndpoint(fail_on)
    code, sequential = sequential_http_extract(tmp_path, monkeypatch, sequential_endpoint)
    assert code == 2
    assert sequential_endpoint.started == ["fx001", "fx002", "fx003"]

    # turn requests are submitted at most a window ahead of the fold, and
    # the next one only after the fold takes a result.  While the failing
    # turn is held, the workers run ahead to the end of that window and no
    # further, so no request past the window is started
    turns = sequential_endpoint.turns
    window_end = turns.index(fail_on) + tracking._HTTP_WINDOW
    endpoint = CorpusEndpoint(fail_on, hold=(fail_on, turns[window_end]), hold_s=0.5)
    code, pooled = pooled_http_extract(tmp_path, monkeypatch, endpoint)
    assert code == 2
    assert pooled == sequential
    records, meta = read_predictions(tmp_path / "pred.jsonl")
    assert [(r["dialogue_id"], r["turn"]) for r in records] == [
        ("fx001", 0), ("fx001", 1), ("fx002", 0), ("fx002", 1), ("fx003", 0)
    ]
    assert "HTTP 404" in meta["failure"]
    assert not endpoint.held
    assert set(endpoint.requested) <= set(turns[:window_end])
    assert "extract aborted after 5 turns" in capsys.readouterr().err


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_http_extract_failure_at_any_turn_matches_sequential(
    position, tmp_path, monkeypatch, capsys
):
    turns = CorpusEndpoint().turns
    fail_on = {"first": turns[0], "middle": ("fx003", 2), "last": turns[-1]}[position]
    code, sequential = sequential_http_extract(
        tmp_path, monkeypatch, CorpusEndpoint(fail_on)
    )
    assert code == 2

    # the failing turn waits for the next one, in the same dialogue or the
    # next, so a later turn is tracked before the failure is seen and must
    # still be left out
    following = turns[turns.index(fail_on) + 1 :]
    hold = (fail_on, following[0]) if following else None
    endpoint = CorpusEndpoint(fail_on, hold=hold)
    code, pooled = pooled_http_extract(tmp_path, monkeypatch, endpoint)
    assert code == 2
    assert endpoint.held == bool(following)
    assert pooled == sequential
    records, _ = read_predictions(tmp_path / "pred.jsonl")
    assert len(records) == turns.index(fail_on)
    capsys.readouterr()


@pytest.mark.parametrize("backend_flags", [
    [],
    ["--backend", "replay", "--replay", str(fixture_replay_path())],
])
def test_offline_extraction_starts_no_thread(backend_flags, tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("offline extraction must not start a thread pool")

    monkeypatch.setattr(tracking, "ThreadPoolExecutor", no_pool)
    out = tmp_path / "pred.jsonl"
    code = cli.main(
        ["extract", "--corpus", str(fixture_corpus_path()), *backend_flags,
         "--out", str(out)]
    )
    assert code == 0
    assert len(read_predictions(out)[0]) == 41


def test_replay_backend_requires_path(capsys):
    code = cli.main(
        ["extract", "--corpus", str(fixture_corpus_path()),
         "--backend", "replay", "--out", "o.jsonl"]
    )
    assert code == 1
    capsys.readouterr()


# --- evaluation pairing ---


def run_extract(tmp_path):
    out = tmp_path / "pred.jsonl"
    assert (
        cli.main(["extract", "--corpus", str(fixture_corpus_path()), "--out", str(out)])
        == 0
    )
    return out


def test_evaluate_report_schema(tmp_path, capsys):
    pred = run_extract(tmp_path)
    report_path = tmp_path / "report.json"
    code = cli.main(
        ["evaluate", "--predictions", str(pred),
         "--corpus", str(fixture_corpus_path()), "--out", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert {
        "jga", "slot_precision", "slot_recall", "slot_f1", "slot_accuracy",
        "turn_count", "parse_failure_count", "error_report", "version", "config",
    } <= set(report)
    assert report["turn_count"] == 41
    assert 0.0 <= report["jga"] <= 1.0
    capsys.readouterr()


def test_evaluate_rejects_missing_turn(tmp_path, capsys):
    pred = run_extract(tmp_path)
    lines = pred.read_text().splitlines()
    pred.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    code = cli.main(
        ["evaluate", "--predictions", str(pred),
         "--corpus", str(fixture_corpus_path()), "--out", str(tmp_path / "r.json")]
    )
    assert code == 1
    assert "no prediction" in capsys.readouterr().err


def test_evaluate_rejects_unknown_turn(tmp_path, capsys):
    pred = run_extract(tmp_path)
    with open(pred, "a", encoding="utf-8") as f:
        f.write(
            json.dumps(
                {"dialogue_id": "ghost", "turn": 0, "predicted_state": [],
                 "diagnostics": []}
            )
            + "\n"
        )
    code = cli.main(
        ["evaluate", "--predictions", str(pred),
         "--corpus", str(fixture_corpus_path()), "--out", str(tmp_path / "r.json")]
    )
    assert code == 1
    assert "unknown turns" in capsys.readouterr().err


def two_turn_dialogue(dialogue_id: str, gold: bool = True) -> str:
    """A plain corpus line: two user turns, empty gold states unless ``gold`` is off."""
    rec = {"dialogue_id": dialogue_id,
           "turns": [{"speaker": "user", "text": "hi"},
                     {"speaker": "system", "text": "hello"},
                     {"speaker": "user", "text": "bye"}]}
    if gold:
        rec["gold"] = [[], []]
    return json.dumps(rec)


def prediction_line(dialogue_id, turn) -> str:
    return json.dumps({"dialogue_id": dialogue_id, "turn": turn, "predicted_state": []})


_BOTH_TURNS = [prediction_line(d, t) for d in ("a", "b") for t in (0, 1)]


@pytest.mark.parametrize(
    "corpus, predictions, message",
    [
        pytest.param(
            None, [prediction_line("a", "0"), *_BOTH_TURNS[1:]],
            "pred.jsonl: prediction record 1: turn must be int, got '0'",
            id="bad-record-before-missing-corpus",
        ),
        pytest.param(
            ['{"dialogue_id": "a"}'], [*_BOTH_TURNS, prediction_line("a", 0)],
            "pred.jsonl: prediction record 5: duplicate (dialogue_id, turn) ('a', 0)",
            id="bad-record-before-no-valid-dialogues",
        ),
        pytest.param(
            [two_turn_dialogue("a")], [prediction_line("a", "0"), "[1]"],
            "pred.jsonl:2: expected a JSON object, got list",
            id="bad-line-before-earlier-bad-record",
        ),
        pytest.param(
            None, _BOTH_TURNS[:3],
            "corpus file not found: c.jsonl",
            id="missing-corpus-before-missing-turn",
        ),
        pytest.param(
            ['{"dialogue_id": "a"}', "not json"], _BOTH_TURNS[:3],
            "no valid dialogues in c.jsonl (2 skipped)",
            id="no-valid-dialogues-before-missing-turn",
        ),
        pytest.param(
            [two_turn_dialogue("b"), two_turn_dialogue("a")],
            [*_BOTH_TURNS[1:], prediction_line("ghost", 0)],
            "no prediction for dialogue a turn 0",
            id="missing-turn-before-unknown-turn",
        ),
        pytest.param(
            [two_turn_dialogue("b"), two_turn_dialogue("a", gold=False)],
            _BOTH_TURNS[:3],
            "dialogue a has no gold states",
            id="no-gold-sorts-before-missing-turn",
        ),
        pytest.param(
            [two_turn_dialogue("b", gold=False), two_turn_dialogue("a")],
            _BOTH_TURNS[1:],
            "no prediction for dialogue a turn 0",
            id="missing-turn-sorts-before-no-gold",
        ),
        pytest.param(
            [two_turn_dialogue("a"), two_turn_dialogue("b")],
            [*_BOTH_TURNS, *(prediction_line(d, t) for d, t in
                             [("z", 0), ("a", 2), ("b", -1), ("ghost", 1), ("c", 0),
                              ("a", 9), ("ghost", 0)])],
            "predictions reference unknown turns: "
            "[('a', 2), ('a', 9), ('b', -1), ('c', 0), ('ghost', 0)]",
            id="first-five-unknown-turns-sorted",
        ),
    ],
)
def test_evaluate_reports_the_first_fault_in_a_fixed_order(
    corpus, predictions, message, tmp_path, monkeypatch, capsys
):
    # a predictions record, then the corpus file, then the pairing in
    # dialogue_id order, then the unknown turns
    monkeypatch.chdir(tmp_path)
    if corpus is not None:
        Path("c.jsonl").write_text("".join(line + "\n" for line in corpus), encoding="utf-8")
    Path("pred.jsonl").write_text(
        "".join(line + "\n" for line in predictions), encoding="utf-8"
    )
    argv = ["evaluate", "--predictions", "pred.jsonl", "--corpus", "c.jsonl",
            "--out", "r.json"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("r.json").exists()


# --- graph, train, predict pipeline ---


def count_encodes(monkeypatch) -> list[int]:
    """Patch the encoder that candidate ranking uses; the list holds its call count."""
    calls = [0]

    def counting(prop, params):
        calls[0] += 1
        return encode(prop, params)

    monkeypatch.setattr("dstgraph.linkpred.encode", counting)
    return calls


def count_scorings(monkeypatch) -> list[tuple[int, ...]]:
    """Patch the pair scorer that candidate ranking uses; the list holds the
    distinct domain indices of each call's pairs."""
    calls = []

    def counting(z, rows, cols):
        calls.append(tuple(sorted(set(rows.tolist()))))
        return edge_probabilities(z, rows, cols)

    monkeypatch.setattr("dstgraph.linkpred.edge_probabilities", counting)
    return calls


def test_full_pipeline_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    corpus = str(fixture_corpus_path())
    assert cli.main(["extract", "--corpus", corpus, "--out", "pred.jsonl"]) == 0
    assert cli.main(["graph", "--predictions", "pred.jsonl", "--out-prefix", "g"]) == 0
    assert Path("g.nodes.jsonl").exists()
    assert Path("g.edges.txt").exists()
    manifest = json.loads(Path("g.manifest.json").read_text())
    assert manifest["n_nodes"] == 28
    assert manifest["n_edges"] == 27
    assert (
        cli.main(
            ["train", "--graph-prefix", "g", "--checkpoint", "model.json",
             "--metrics-out", "metrics.json", "--epochs", "60", "--seed", "42",
             "--hidden-dim", "16", "--latent-dim", "8"]
        )
        == 0
    )
    metrics = json.loads(Path("metrics.json").read_text())
    assert {"auc", "ap", "epochs", "final_bce", "split_sizes"} <= set(metrics)
    assert metrics["epochs"] == 60
    assert metrics["n_edges"] == 27
    encodes = count_encodes(monkeypatch)
    assert (
        cli.main(
            ["predict", "--graph-prefix", "g", "--checkpoint", "model.json",
             "--predictions", "pred.jsonl", "--top-k", "3", "--out", "cand.jsonl"]
        )
        == 0
    )
    # the posterior means are computed once per run, not once per dialogue
    assert encodes == [1]
    records, meta = read_predictions(Path("cand.jsonl"))
    assert meta["skipped_dialogues"] == []
    by_dialogue: dict[str, list[dict]] = {}
    for r in records:
        by_dialogue.setdefault(r["dialogue_id"], []).append(r)
    assert len(by_dialogue) == 20
    for recs in by_dialogue.values():
        assert [r["rank"] for r in recs] == list(range(1, len(recs) + 1))
        assert len(recs) <= 3
    capsys.readouterr()


def save_checkpoint_of_other_graph():
    """The golden graph as g.*, with model.json trained on a 12-node graph."""
    copy_goldens(Path.cwd())
    other = planted_graph(n_domains=2, values_per_domain=5, seed=1)
    assert other.n_nodes != 28
    cfg = TrainConfig(hidden_dim=8, latent_dim=4, epochs=3)
    params, _ = train(other, split_edges(other, 0.8, 0.1, 0.1, seed=0), cfg)
    save_checkpoint("model.json", params, cfg)


def test_predict_rejects_checkpoint_of_other_node_count(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_checkpoint_of_other_graph()
    code = cli.main(
        ["predict", "--graph-prefix", "g", "--checkpoint", "model.json",
         "--predictions", "pred.jsonl", "--out", "cand.jsonl"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint model.json does not fit graph g: ")
    assert "does not match params for 12 nodes" in err
    assert not Path("cand.jsonl").exists()


def test_repl_rejects_checkpoint_of_other_node_count(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_checkpoint_of_other_graph()
    monkeypatch.setattr("sys.stdin", io.StringIO("i want thai food\n"))
    assert cli.main(["repl", "--graph-prefix", "g", "--checkpoint", "model.json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: checkpoint model.json does not fit graph g: ")
    assert "does not match params for 12 nodes" in captured.err
    assert captured.out == ""


def test_graph_from_gold(tmp_path, monkeypatch, capsys):
    # the gold states are read in dialogue_id order: neither the order of
    # the corpus's records nor its format changes a byte of the graph
    monkeypatch.chdir(tmp_path)
    lines = fixture_corpus_path().read_text(encoding="utf-8").splitlines(keepends=True)
    order = random.Random(1).sample(range(len(lines)), len(lines))
    Path("shuffled.jsonl").write_text("".join(lines[i] for i in order), encoding="utf-8")
    dialogues = load_corpus(fixture_corpus_path()).dialogues
    Path("shuffled.json").write_text(
        json.dumps([sgd_record(dialogues[i]) for i in order]), encoding="utf-8"
    )
    for prefix, corpus in [("gold", fixture_corpus_path()), ("shuffled", "shuffled.jsonl"),
                           ("sgd", "shuffled.json")]:
        argv = ["graph", "--from-gold", "--corpus", str(corpus), "--out-prefix", prefix]
        assert cli.main(argv) == 0
    manifest = json.loads(Path("gold.manifest.json").read_text())
    assert manifest["config"]["from_gold"] is True
    assert manifest["n_edges"] > 0
    for suffix in (".nodes.jsonl", ".edges.txt"):
        golden = Path("gold" + suffix).read_bytes()
        assert Path("shuffled" + suffix).read_bytes() == golden, suffix
        assert Path("sgd" + suffix).read_bytes() == golden, suffix
    capsys.readouterr()


def test_graph_from_gold_counts_skipped_corpus_records(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = fixture_corpus_path().read_text(encoding="utf-8").splitlines(keepends=True)
    bad_turns = json.dumps({**json.loads(lines[3]), "turns": 5})
    Path("c.jsonl").write_text("".join(lines[:3]) + "not json\n" + bad_turns + "\n",
                               encoding="utf-8")
    assert cli.main(["graph", "--from-gold", "--corpus", "c.jsonl", "--out-prefix", "m"]) == 0
    manifest = json.loads(Path("m.manifest.json").read_text())
    assert manifest["corpus_skipped"] == 2
    assert manifest["n_nodes"] == 9 and manifest["n_edges"] == 8
    capsys.readouterr()


GOLDENS = Path(__file__).resolve().parent / "goldens"


def copy_goldens(tmp_path: Path) -> None:
    """The golden predictions, graph and checkpoint, under the names the
    malformed-input tests edit."""
    for golden, name in [
        ("predictions.jsonl", "pred.jsonl"),
        ("graph.nodes.jsonl", "g.nodes.jsonl"),
        ("graph.edges.txt", "g.edges.txt"),
        ("checkpoint.json", "model.json"),
    ]:
        (tmp_path / name).write_bytes((GOLDENS / golden).read_bytes())


def replace_line(path: Path, lineno: int, text: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_json_line(name: str, lineno: int, drop: str = "", **fields) -> None:
    """Rewrite one JSON line of a golden copy: ``drop`` a key, set ``fields``."""
    path = Path(name)
    rec = json.loads(path.read_text(encoding="utf-8").splitlines()[lineno - 1])
    rec.update(fields)
    rec.pop(drop, None)
    replace_line(path, lineno, json.dumps(rec))


def truncate_line(name: str, lineno: int) -> None:
    line = Path(name).read_text(encoding="utf-8").splitlines()[lineno - 1]
    replace_line(Path(name), lineno, line[: len(line) // 2])


def repeat_line(name: str, lineno: int) -> None:
    """Insert a copy of one line of a golden copy after it."""
    lines = Path(name).read_text(encoding="utf-8").splitlines()
    lines.insert(lineno, lines[lineno - 1])
    Path(name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_checkpoint(drop: str = "", inside: str = "", **fields) -> None:
    """Drop a key of model.json, or of its ``inside`` object, and set ``fields``."""
    raw = json.loads(Path("model.json").read_text(encoding="utf-8"))
    target = raw[inside] if inside else raw
    target.update(fields)
    target.pop(drop, None)
    Path("model.json").write_text(json.dumps(raw), encoding="utf-8")


def rewrite_checkpoint(change) -> None:
    """Replace model.json with ``change`` of its parsed JSON."""
    path = Path("model.json")
    path.write_text(json.dumps(change(json.loads(path.read_text()))), encoding="utf-8")


def edit_checkpoint_row(path: Path, key: str, row: int) -> None:
    """Drop the last entry of one row of a checkpoint weight matrix."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw[key][row].pop()
    path.write_text(json.dumps(raw), encoding="utf-8")


def string_and_true_weight_entries(raw: dict) -> dict:
    """``raw`` with w_mu[0][0] written as a string and w_mu[0][1] as true."""
    row = raw["w_mu"][0]
    row[0], row[1] = str(row[0]), True
    return raw


_FIRST_RECORD = {"dialogue_id": "fx001", "turn": 0, "diagnostics": []}
_RECORD_1 = "pred.jsonl: prediction record 1: "
_GRAPH_ARGV = ["graph", "--predictions", "pred.jsonl", "--out-prefix", "out"]
_PREDICT_ARGV = ["predict", "--graph-prefix", "g", "--checkpoint", "model.json",
                 "--predictions", "pred.jsonl", "--out", "cand.jsonl"]
_EVALUATE_ARGV = ["evaluate", "--predictions", "pred.jsonl",
                  "--corpus", str(fixture_corpus_path()), "--out", "r.json"]
_EXTRACT_ARGV = ["extract", "--corpus", str(fixture_corpus_path()), "--out", "x.jsonl"]


@pytest.mark.parametrize("argv", [_PREDICT_ARGV, _EXTRACT_ARGV, _EVALUATE_ARGV],
                         ids=["predict", "extract", "evaluate"])
def test_an_output_directory_that_does_not_exist_is_named(
    argv, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    copy_goldens(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert cli.main([*argv[:-1], "nodir/" + argv[-1]]) == 1
    # the directory, not a temp file made in it
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'nodir'\n"
    assert sorted(tmp_path.iterdir()) == before


# the first golden prediction record is line 2 of pred.jsonl, after the meta line
edit_first_record = functools.partial(edit_json_line, "pred.jsonl", 2)
repeat_first_record = functools.partial(repeat_line, "pred.jsonl", 2)


def write(name: str, text: str):
    """An edit that writes ``text`` to ``name``."""
    return lambda: Path(name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "edit, argv, located",
    [
        pytest.param(
            lambda: replace_line(Path("pred.jsonl"), 3, "[1, 2]"),
            _EVALUATE_ARGV,
            "pred.jsonl:3: expected a JSON object, got list",
            id="predictions-line-is-a-list",
        ),
        pytest.param(
            lambda: replace_line(
                Path("pred.jsonl"), 2, json.dumps({**_FIRST_RECORD, "predicted_state": 5})
            ),
            _GRAPH_ARGV,
            _RECORD_1 + "malformed predicted_state",
            id="predicted-state-is-an-int",
        ),
        pytest.param(
            lambda: replace_line(
                Path("pred.jsonl"),
                2,
                json.dumps(
                    {**_FIRST_RECORD,
                     "predicted_state": [{"domain": "hotel", "slot": "area", "value": 5}]}
                ),
            ),
            _GRAPH_ARGV,
            _RECORD_1 + "malformed predicted_state",
            id="predicted-value-is-an-int",
        ),
        pytest.param(
            lambda: replace_line(
                Path("g.nodes.jsonl"),
                2,
                json.dumps({"index": "1", "kind": "slot_value", "label": "area-centre",
                            "slot": "area", "value": "centre"}),
            ),
            _PREDICT_ARGV,
            "g.nodes.jsonl:2: ValueError(\"index must be an int, got '1'\")",
            id="node-index-is-a-string",
        ),
        pytest.param(
            lambda: edit_json_line("g.nodes.jsonl", 1, label=["restaurant"]),
            _PREDICT_ARGV,
            "g.nodes.jsonl:1: ValueError(\"label must be a str, got ['restaurant']\")",
            id="node-label-is-a-list",
        ),
        pytest.param(
            lambda: edit_json_line("g.nodes.jsonl", 2, slot=["area"]),
            _PREDICT_ARGV,
            "g.nodes.jsonl:2: ValueError(\"slot must be a str, got ['area']\")",
            id="node-slot-is-a-list",
        ),
        pytest.param(
            lambda: edit_json_line("g.nodes.jsonl", 2, value={"x": 1}),
            _PREDICT_ARGV,
            "g.nodes.jsonl:2: ValueError(\"value must be a str, got {'x': 1}\")",
            id="node-value-is-an-object",
        ),
        pytest.param(
            lambda: edit_checkpoint(inside="config", dropout=0.5),
            _PREDICT_ARGV,
            "model.json: unknown checkpoint config keys: ['dropout']",
            id="checkpoint-config-has-unknown-key",
        ),
        pytest.param(
            lambda: rewrite_checkpoint(lambda raw: [raw]),
            _PREDICT_ARGV,
            "model.json: expected a JSON object, got list",
            id="checkpoint-is-a-list",
        ),
        pytest.param(
            lambda: edit_checkpoint(inside="config", epochs="x"),
            _PREDICT_ARGV,
            "model.json: config 'epochs' must be int, got 'x'",
            id="checkpoint-epochs-is-a-string",
        ),
        pytest.param(
            lambda: edit_checkpoint(inside="config", hidden_dim=None),
            _PREDICT_ARGV,
            "model.json: config 'hidden_dim' must be int, got None",
            id="checkpoint-hidden-dim-is-null",
        ),
        pytest.param(
            lambda: rewrite_checkpoint(
                lambda raw: {k: v for k, v in raw.items() if k != "config"}
            ),
            _PREDICT_ARGV,
            "model.json: no 'config' object",
            id="checkpoint-config-is-missing",
        ),
        pytest.param(
            lambda: edit_checkpoint(inside="config", epochs=-1),
            _PREDICT_ARGV,
            "model.json: epochs must be non-negative",
            id="checkpoint-epochs-is-negative",
        ),
        pytest.param(
            lambda: Path("model.json").write_text('{"format": "vgae-checkpoint"'),
            _PREDICT_ARGV,
            "model.json: Expecting ',' delimiter: line 1 column 29",
            id="checkpoint-is-truncated",
        ),
        pytest.param(
            lambda: edit_checkpoint_row(Path("model.json"), "w_mu", 1),
            _PREDICT_ARGV,
            "model.json: weight 'w_mu': setting an array element with a sequence",
            id="checkpoint-weight-row-is-ragged",
        ),
        pytest.param(
            lambda: rewrite_checkpoint(string_and_true_weight_entries),
            _PREDICT_ARGV,
            "model.json: weight 'w_mu': entries must be numbers, got <U",
            id="checkpoint-weight-entry-is-a-string",
        ),
        pytest.param(
            lambda: edit_checkpoint(version=True),
            _PREDICT_ARGV,
            "model.json: unsupported checkpoint version True",
            id="checkpoint-version-is-a-bool",
        ),
        pytest.param(
            lambda: edit_checkpoint(hidden_dim="x"),
            _PREDICT_ARGV,
            "model.json: header 'hidden_dim' is 'x', weights give 32",
            id="checkpoint-header-hidden-dim-is-a-string",
        ),
        pytest.param(
            lambda: edit_checkpoint(hidden_dim=None),
            _PREDICT_ARGV,
            "model.json: header 'hidden_dim' is None, weights give 32",
            id="checkpoint-header-hidden-dim-is-null",
        ),
        pytest.param(
            lambda: edit_checkpoint(hidden_dim={"x": 1}),
            _PREDICT_ARGV,
            "model.json: header 'hidden_dim' is {'x': 1}, weights give 32",
            id="checkpoint-header-hidden-dim-is-an-object",
        ),
        pytest.param(
            lambda: edit_checkpoint(latent_dim=16.0),
            _PREDICT_ARGV,
            "model.json: header 'latent_dim' is 16.0, weights give 16",
            id="checkpoint-header-latent-dim-is-a-float",
        ),
        pytest.param(
            lambda: edit_checkpoint(drop="n_features"),
            _PREDICT_ARGV,
            "model.json: header 'n_features' is None, weights give 28",
            id="checkpoint-header-n-features-is-missing",
        ),
        pytest.param(
            lambda: edit_checkpoint(inside="config", hidden_dim=7),
            _PREDICT_ARGV,
            "model.json: config 'hidden_dim' is 7, weights give 32",
            id="checkpoint-config-hidden-dim-disagrees-with-weights",
        ),
        pytest.param(
            lambda: edit_first_record(dialogue_id=["fx001"]),
            _PREDICT_ARGV,
            _RECORD_1 + "dialogue_id must be str, got ['fx001']",
            id="predict-dialogue-id-is-a-list",
        ),
        pytest.param(
            lambda: edit_first_record(dialogue_id=7),
            _PREDICT_ARGV,
            _RECORD_1 + "dialogue_id must be str, got 7",
            id="predict-dialogue-id-is-an-int",
        ),
        pytest.param(
            lambda: edit_first_record(dialogue_id=7),
            _EVALUATE_ARGV,
            _RECORD_1 + "dialogue_id must be str, got 7",
            id="evaluate-dialogue-id-is-an-int",
        ),
        pytest.param(
            lambda: edit_first_record(turn=False),
            _EVALUATE_ARGV,
            _RECORD_1 + "turn must be int, got False",
            id="evaluate-turn-is-a-bool",
        ),
        pytest.param(
            lambda: edit_first_record(turn="0"),
            _EVALUATE_ARGV,
            _RECORD_1 + "turn must be int, got '0'",
            id="evaluate-turn-is-a-string",
        ),
        pytest.param(
            lambda: edit_first_record(drop="dialogue_id"),
            _PREDICT_ARGV,
            _RECORD_1 + "no 'dialogue_id' key",
            id="predict-dialogue-id-is-missing",
        ),
        pytest.param(
            lambda: edit_first_record(dialogue_id=["fx001"]),
            _EVALUATE_ARGV,
            _RECORD_1 + "dialogue_id must be str, got ['fx001']",
            id="evaluate-dialogue-id-is-a-list",
        ),
        pytest.param(
            lambda: edit_first_record(drop="turn"),
            _EVALUATE_ARGV,
            _RECORD_1 + "no 'turn' key",
            id="evaluate-turn-is-missing",
        ),
        pytest.param(
            repeat_first_record,
            _EVALUATE_ARGV,
            "pred.jsonl: prediction record 2: duplicate (dialogue_id, turn) ('fx001', 0)",
            id="evaluate-record-is-repeated",
        ),
        pytest.param(
            lambda: edit_first_record(diagnostics=["oops"]),
            _EVALUATE_ARGV,
            _RECORD_1 + "malformed diagnostics: ['oops']",
            id="diagnostic-is-a-string",
        ),
        pytest.param(
            lambda: edit_first_record(diagnostics=5),
            _EVALUATE_ARGV,
            _RECORD_1 + "malformed diagnostics: 5",
            id="diagnostics-is-an-int",
        ),
        pytest.param(
            write("ex.jsonl", "[1, 2]\n"),
            [*_EXTRACT_ARGV, "--exemplars", "ex.jsonl"],
            "ex.jsonl:1: expected a JSON object, got list",
            id="exemplars-line-is-a-list",
        ),
        pytest.param(
            write("ex.jsonl", '{"input": "USER: hi"}\n'),
            [*_EXTRACT_ARGV, "--exemplars", "ex.jsonl"],
            "ex.jsonl:1: exemplar has no 'output' key",
            id="exemplar-has-no-output",
        ),
        pytest.param(
            write("kw.json", "[]"),
            [*_EXTRACT_ARGV, "--keywords", "kw.json"],
            "kw.json: expected a JSON object, got list",
            id="keywords-is-a-list",
        ),
        pytest.param(
            write("kw.json", '{"thai": '),
            [*_EXTRACT_ARGV, "--keywords", "kw.json"],
            "kw.json: Expecting value: line 1 column 10",
            id="keywords-is-truncated",
        ),
        pytest.param(
            write("kw.json", '{"thai": {"domain": "restaurant", "slot": "food"}}'),
            [*_EXTRACT_ARGV, "--keywords", "kw.json"],
            "kw.json: keyword 'thai' needs an object with 'domain', 'slot' and 'value'",
            id="keyword-has-no-value",
        ),
        pytest.param(
            write("replay.jsonl", '{"prompt_hash": "abc"}\n'),
            [*_EXTRACT_ARGV, "--backend", "replay", "--replay", "replay.jsonl"],
            "replay.jsonl:1: a replay record needs string 'prompt_hash' and 'completion'",
            id="replay-record-has-no-completion",
        ),
        pytest.param(
            write("replay.jsonl", "not json\n"),
            [*_EXTRACT_ARGV, "--backend", "replay", "--replay", "replay.jsonl"],
            "replay.jsonl:1: Expecting value: line 1 column 1",
            id="replay-line-is-not-json",
        ),
        pytest.param(
            lambda: None,
            [*_EXTRACT_ARGV, "--backend", "replay", "--replay", "nope.jsonl"],
            "replay file not found: nope.jsonl",
            id="replay-file-is-missing",
        ),
        pytest.param(
            write("run.conf", "corpus_format = bogus\n"),
            [*_EXTRACT_ARGV, "--config", "run.conf"],
            "config key corpus_format: unknown format 'bogus'",
            id="config-corpus-format-is-bogus",
        ),
        pytest.param(
            write("c.json", "not json"),
            ["extract", "--corpus", "c.json", "--out", "x.jsonl"],
            "c.json: Expecting value: line 1 column 1",
            id="json-corpus-is-not-json",
        ),
        pytest.param(
            write("c.json", "[]"),
            ["extract", "--corpus", "c.json", "--format", "multiwoz",
             "--out", "x.jsonl"],
            "c.json: expected a dialogue_id -> dialogue object mapping",
            id="multiwoz-corpus-is-a-list",
        ),
        pytest.param(
            write("c.json", "{}"),
            ["extract", "--corpus", "c.json", "--format", "sgd", "--out", "x.jsonl"],
            "c.json: expected a list of dialogue objects",
            id="sgd-corpus-is-an-object",
        ),
        pytest.param(
            write("t.txt", "[frame]\nx\n[oops]\ny\n"),
            [*_EXTRACT_ARGV, "--templates", "t.txt"],
            "t.txt:3: unknown template section: [oops]",
            id="templates-section-is-unknown",
        ),
        pytest.param(
            write("t.txt", "\nhello\n[frame]\nx\n"),
            [*_EXTRACT_ARGV, "--templates", "t.txt"],
            "t.txt:2: template file must start with a [section] header",
            id="templates-text-before-first-header",
        ),
        pytest.param(
            lambda: replace_line(Path("g.edges.txt"), 1, "1 x"),
            _PREDICT_ARGV,
            "g.edges.txt:1: ValueError(\"invalid literal for int() with base 10: 'x'\")",
            id="edge-endpoint-is-not-an-int",
        ),
        pytest.param(
            lambda: replace_line(Path("g.edges.txt"), 1, "3"),
            _PREDICT_ARGV,
            "g.edges.txt:1: ValueError('not enough values to unpack (expected 2, got 1)')",
            id="edge-line-has-one-endpoint",
        ),
    ],
)
def test_malformed_input_exits_1_with_located_message(
    edit, argv, located, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    copy_goldens(tmp_path)
    edit()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert located in err


@pytest.mark.parametrize("key", ["backend", "strategy"])
def test_config_file_choice_is_checked_before_any_input_is_read(
    key, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    copy_goldens(tmp_path)
    assert cli.main(_EVALUATE_ARGV) == 0
    Path("run.conf").write_text(f"{key} = bogus\n", encoding="utf-8")
    config_error = f"error: config key {key}: unknown {key} 'bogus'\n"
    # a missing corpus would fail too, but only once it was read
    extract = ["extract", "--corpus", "nope.jsonl", "--out", "x.jsonl"]
    for argv in (extract, _EVALUATE_ARGV):
        capsys.readouterr()
        assert cli.main([*argv, "--config", "run.conf"]) == 1
        assert capsys.readouterr().err == config_error


# one value of each JSON type
_JSON_VALUES = {
    "null": None, "bool": True, "int": 7, "float": 0.5,
    "str": "x", "list": ["x"], "object": {"x": 1},
}


def json_key_mutations(prefix: str, keys, edit):
    """``edit(drop=key)`` and ``edit(**{key: value})`` for each key and one
    value of every JSON type."""
    for key in keys:
        yield pytest.param(lambda k=key: edit(drop=k), id=f"{prefix}drop-{key}")
        for name, value in _JSON_VALUES.items():
            yield pytest.param(
                lambda k=key, v=value: edit(**{k: v}), id=f"{prefix}{key}-is-{name}"
            )


def record_mutations():
    """Edits of the first golden record: each key dropped, each key given
    a value of every JSON type, the record repeated, and its line
    truncated."""
    yield from json_key_mutations(
        "", ("dialogue_id", "turn", "predicted_state", "diagnostics"), edit_first_record
    )
    yield pytest.param(repeat_first_record, id="repeat-record")
    yield pytest.param(
        functools.partial(truncate_line, "pred.jsonl", 2), id="truncate-record"
    )


@pytest.mark.parametrize("mutate", record_mutations())
def test_predictions_readers_agree_on_every_record_mutation(
    mutate, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    copy_goldens(tmp_path)
    mutate()
    try:
        list(iter_predictions("pred.jsonl"))
        rejected = None
    except ValueError as exc:
        rejected = f"error: {exc}\n"
    codes, errors = {}, set()
    for argv in (_EVALUATE_ARGV, _GRAPH_ARGV, _PREDICT_ARGV):
        codes[argv[0]] = cli.main(argv)
        errors.add(capsys.readouterr().err)
    assert 3 not in codes.values()
    if rejected is None:
        assert codes["graph"] == codes["predict"] == 0
    else:
        assert rejected.startswith("error: pred.jsonl")
        assert set(codes.values()) == {1}
        assert errors == {rejected}


def graph_and_checkpoint_mutations():
    """Edits of the golden node table (a domain line and a slot-value
    line), edge list and checkpoint: each key dropped or given a value of
    every JSON type, lines truncated or repeated, and edge lines that are
    not two endpoints of one domain and one slot-value node."""
    for lineno, kind, keys in ((1, "domain", ()), (2, "slot-value", ("slot", "value"))):
        yield from json_key_mutations(
            f"{kind}-node-", ("index", "kind", "label", *keys),
            functools.partial(edit_json_line, "g.nodes.jsonl", lineno),
        )
        yield pytest.param(
            functools.partial(truncate_line, "g.nodes.jsonl", lineno),
            id=f"truncate-{kind}-node",
        )
        yield pytest.param(
            functools.partial(repeat_line, "g.nodes.jsonl", lineno),
            id=f"repeat-{kind}-node",
        )
    yield pytest.param(functools.partial(repeat_line, "g.edges.txt", 1), id="repeat-edge")
    for text in ("", "0", "0 1 2", "x 1", "1.5 2", "0 0", "0 999", "-1 1", "1 2",
                 "1 0", "0 0x1", "\u0661 2"):
        yield pytest.param(
            functools.partial(replace_line, Path("g.edges.txt"), 1, text),
            id=f"edge-line-{text!r}",
        )
    yield from json_key_mutations(
        "checkpoint-",
        ("format", "version", "n_features", "hidden_dim", "latent_dim", "config",
         "w_shared", "w_mu", "w_logvar"),
        edit_checkpoint,
    )
    yield from json_key_mutations(
        "checkpoint-config-", TrainConfig.__dataclass_fields__,
        functools.partial(edit_checkpoint, inside="config"),
    )
    for key in ("w_shared", "w_mu", "w_logvar"):
        yield pytest.param(
            lambda k=key: rewrite_checkpoint(lambda raw: {**raw, k: raw[k][1:]}),
            id=f"checkpoint-{key}-loses-a-row",
        )
        yield pytest.param(
            functools.partial(edit_checkpoint, **{key: [[]]}),
            id=f"checkpoint-{key}-is-empty",
        )
    yield pytest.param(
        functools.partial(truncate_line, "model.json", 1), id="truncate-checkpoint"
    )


@pytest.mark.parametrize("mutate", graph_and_checkpoint_mutations())
def test_graph_and_checkpoint_mutations_exit_0_or_1(
    mutate, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    copy_goldens(tmp_path)
    mutate()
    code = cli.main(_PREDICT_ARGV)
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error: ")
        # the message names the file that holds the fault
        named = [f for f in ("g.nodes.jsonl", "g.edges.txt", "model.json") if f in err]
        assert named, err


def test_predict_scores_each_distinct_domain_once(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    copy_goldens(tmp_path)
    scorings = count_scorings(monkeypatch)
    assert cli.main(_PREDICT_ARGV) == 0
    capsys.readouterr()
    g = load_graph("g.edges.txt", "g.nodes.jsonl")
    by_dialogue: dict[str, set] = {}
    for p in iter_predictions("pred.jsonl"):
        by_dialogue.setdefault(p.dialogue_id, set()).update(t.domain for t in p.state)
    named = [dialogue_domains(g, names) for names in by_dialogue.values()]
    distinct = {d for domains in named for d in domains}
    # the dialogues name some domains more than once between them
    assert sum(map(len, named)) > len(distinct)
    assert sorted(scorings) == sorted((d,) for d in distinct)


def test_predict_skips_dialogues_that_name_no_known_domain(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    copy_goldens(tmp_path)
    # zz names a known slot-value, area-centre, but only under an unknown
    # domain; zy names neither a known domain nor a known slot-value
    records = [
        {"dialogue_id": dialogue_id, "turn": 0, "diagnostics": [],
         "predicted_state": [{"domain": "spaceship", "slot": slot, "value": value}]}
        for dialogue_id, slot, value in (("zz", "area", "centre"), ("zy", "colour", "red"))
    ]
    write_predictions("pred.jsonl", records)
    assert cli.main(_PREDICT_ARGV) == 0
    assert "ranked candidates for 0 dialogues" in capsys.readouterr().out
    ranked, meta = read_predictions(Path("cand.jsonl"))
    assert ranked == []
    assert meta["skipped_dialogues"] == ["zy", "zz"]


def test_predict_ranks_a_domain_named_only_by_a_none_value(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    copy_goldens(tmp_path)
    # zn's only triple at a known domain has the NONE value; its other
    # triple is at a domain the graph does not know
    write_predictions("pred.jsonl", [
        {"dialogue_id": "zn", "turn": 0, "diagnostics": [],
         "predicted_state": [{"domain": "hotel", "slot": "name", "value": "none"},
                             {"domain": "spaceship", "slot": "area", "value": "centre"}]},
    ])
    assert cli.main(_PREDICT_ARGV) == 0
    assert "ranked candidates for 1 dialogues" in capsys.readouterr().out
    ranked, meta = read_predictions(Path("cand.jsonl"))
    assert meta["skipped_dialogues"] == []
    assert ranked and {r["domain_label"] for r in ranked} == {"hotel"}
    assert {r["dialogue_id"] for r in ranked} == {"zn"}


def test_predict_on_an_ungrouped_file_writes_the_grouped_records(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    copy_goldens(tmp_path)
    assert cli.main(_PREDICT_ARGV) == 0
    grouped = Path("cand.jsonl").read_bytes()
    head, *records = Path("pred.jsonl").read_text(encoding="utf-8").splitlines()
    random.Random(7).shuffle(records)
    ids = [json.loads(line)["dialogue_id"] for line in records]
    # more runs of equal ids than ids: some dialogue's records are apart
    assert sum(a != b for a, b in zip([None, *ids], ids)) > len(set(ids))
    Path("pred.jsonl").write_text("\n".join([head, *records]) + "\n", encoding="utf-8")
    # the same paths, so the meta lines match too
    assert cli.main(_PREDICT_ARGV) == 0
    capsys.readouterr()
    assert Path("cand.jsonl").read_bytes() == grouped


def test_train_default_metrics_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    corpus = str(fixture_corpus_path())
    assert cli.main(["extract", "--corpus", corpus, "--out", "pred.jsonl"]) == 0
    assert cli.main(["graph", "--predictions", "pred.jsonl", "--out-prefix", "g"]) == 0
    assert (
        cli.main(
            ["train", "--graph-prefix", "g", "--checkpoint", "model.json",
             "--epochs", "5", "--hidden-dim", "8", "--latent-dim", "4"]
        )
        == 0
    )
    assert Path("model.metrics.json").exists()
    capsys.readouterr()


def test_train_builds_each_propagation_matrix_once(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    corpus = str(fixture_corpus_path())
    assert cli.main(["extract", "--corpus", corpus, "--out", "pred.jsonl"]) == 0
    assert cli.main(["graph", "--predictions", "pred.jsonl", "--out-prefix", "g"]) == 0
    built = []

    class Counting(vgae.Propagation):
        def __init__(self, n_nodes, edges):
            built.append(len(edges))
            super().__init__(n_nodes, edges)

    monkeypatch.setattr(vgae, "Propagation", Counting)
    monkeypatch.setattr(linkpred, "Propagation", Counting)
    assert cli.main(
        ["train", "--graph-prefix", "g", "--checkpoint", "model.json", "--epochs", "3"]
    ) == 0
    metrics = json.loads(Path("model.metrics.json").read_text())
    assert metrics["split_sizes"]["val"] > 0  # the val AUC encodes the full graph
    # not once per epoch: train builds the training-edge Â and the full-graph
    # Â of its val AUC once each, and the test AUC builds its own full-graph Â
    n_train, n_edges = metrics["split_sizes"]["train"], metrics["n_edges"]
    assert built == [n_train, n_edges, n_edges]
    capsys.readouterr()


def test_train_rejects_split_without_test_edge_before_training(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    # gold states naming 4 (domain, slot-value) pairs: the default
    # --test-frac 0.10 of 4 edges rounds to no test edge
    golds = [
        [("restaurant", "food", "thai")],
        [("restaurant", "area", "centre"), ("hotel", "area", "north")],
        [("hotel", "stars", "4")],
    ]
    Path("c.jsonl").write_text(
        "".join(
            json.dumps(
                {"dialogue_id": f"d{i}", "turns": [{"speaker": "user", "text": "hi"}],
                 "gold": [[{"domain": d, "slot": s, "value": v} for d, s, v in gold]]}
            ) + "\n"
            for i, gold in enumerate(golds)
        ),
        encoding="utf-8",
    )
    argv = ["graph", "--from-gold", "--corpus", "c.jsonl", "--out-prefix", "g"]
    assert cli.main(argv) == 0
    assert json.loads(Path("g.manifest.json").read_text())["n_edges"] == 4
    capsys.readouterr()
    assert cli.main(["train", "--graph-prefix", "g", "--checkpoint", "model.json"]) == 1
    assert not Path("model.json").exists()
    assert not Path("model.metrics.json").exists()
    assert capsys.readouterr().err == (
        "error: graph g: --test-frac 0.1 of 4 edges leaves no test edge to evaluate\n"
    )


def test_diverged_train_is_a_usage_error_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    copy_goldens(tmp_path)
    Path("model.json").unlink()
    argv = ["train", "--graph-prefix", "g", "--checkpoint", "model.json",
            "--learning-rate", "1e150"]
    # exit 1, not the internal error's 3, and no numpy overflow warning:
    # tier-1 turns a warning into an error
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: training diverged: non-finite loss at epoch 2 with "
        "--learning-rate 1e+150; try a smaller --learning-rate\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "g.edges.txt", "g.nodes.jsonl", "pred.jsonl"
    ]


def test_write_json_keeps_previous_report_on_failure(tmp_path):
    out = tmp_path / "report.json"
    cli._write_json(str(out), {"jga": 0.5})
    before = out.read_bytes()
    with pytest.raises(TypeError):
        cli._write_json(str(out), {"jga": object()})
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


# --- float settings ---

_TRAIN_ARGV = ["train", "--graph-prefix", "g", "--checkpoint", "m.json",
               "--metrics-out", "m.metrics.json"]
# each float setting, with a run its value would reach: the extract
# settings through the backend's generation parameters, the train
# settings through the split and the optimizer
_FLOAT_SETTINGS = {
    "temperature": _EXTRACT_ARGV,
    "timeout": _EXTRACT_ARGV,
    "learning_rate": _TRAIN_ARGV,
    "kl_weight": _TRAIN_ARGV,
    "train_frac": _TRAIN_ARGV,
    "test_frac": _TRAIN_ARGV,
    "val_frac": _TRAIN_ARGV,
}


def test_every_float_setting_is_listed():
    hints = typing.get_type_hints(RunConfig)
    assert {name for name, kind in hints.items() if kind is float} == set(_FLOAT_SETTINGS)


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(_FLOAT_SETTINGS))
def test_non_finite_float_setting_exits_1_and_writes_nothing(
    name, value, source, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    copy_goldens(tmp_path)
    argv = list(_FLOAT_SETTINGS[name])
    if source == "flag":
        argv += [f"{cli._flag(name)}={value}"]
        message = f"argument {cli._flag(name)}: expected a finite number, got {value!r}"
    else:
        Path("run.conf").write_text(f"{name} = {value}\n", encoding="utf-8")
        argv += ["--config", "run.conf"]
        message = f"config key {name}: expected a finite number, got {value!r}"
    before = sorted(tmp_path.iterdir())
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == before


# --- top-k validation ---


def top_k_flags(source: str, value: int) -> list[str]:
    """``--top-k value`` as a flag, or through a config file in the cwd."""
    if source == "flag":
        return ["--top-k", str(value)]
    Path("run.conf").write_text(f"top-k = {value}\n", encoding="utf-8")
    return ["--config", "run.conf"]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_predict_rejects_non_positive_top_k_before_any_work(
    source, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    copy_goldens(tmp_path)
    # no record names a graph node, so no dialogue would reach rank_candidates
    record = {"dialogue_id": "zz", "turn": 0, "diagnostics": [],
              "predicted_state": [{"domain": "nowhere", "slot": "x", "value": "y"}]}
    write_predictions("pred.jsonl", [record])
    code = cli.main([*_PREDICT_ARGV, *top_k_flags(source, 0)])
    assert code == 1
    assert "error: --top-k must be positive, got 0" in capsys.readouterr().err
    assert not Path("cand.jsonl").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_repl_rejects_non_positive_top_k_before_tracking(
    source, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO("i want thai food\n"))
    assert cli.main(["repl", *top_k_flags(source, -1)]) == 1
    captured = capsys.readouterr()
    assert "error: --top-k must be positive, got -1" in captured.err
    assert captured.out == ""


# --- interactive tracker ---


def test_repl_tracks_state_across_lines(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("i want thai food\nand a cheap price range\n")
    )
    assert cli.main(["repl"]) == 0
    out = capsys.readouterr().out
    assert "(restaurant, food, thai)" in out
    # cumulative: the second line's output still carries the food triple
    assert out.count("(restaurant, food, thai)") == 2
    assert "(restaurant, price range, cheap)" in out


def test_repl_prints_candidates_with_model(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    corpus = str(fixture_corpus_path())
    assert cli.main(["extract", "--corpus", corpus, "--out", "pred.jsonl"]) == 0
    assert cli.main(["graph", "--predictions", "pred.jsonl", "--out-prefix", "g"]) == 0
    assert (
        cli.main(
            ["train", "--graph-prefix", "g", "--checkpoint", "model.json",
             "--epochs", "30", "--hidden-dim", "8", "--latent-dim", "4"]
        )
        == 0
    )
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("i want thai food\nand a cheap price range\n")
    )
    encodes = count_encodes(monkeypatch)
    scorings = count_scorings(monkeypatch)
    code = cli.main(
        ["repl", "--graph-prefix", "g", "--checkpoint", "model.json", "--top-k", "2"]
    )
    assert code == 0
    assert encodes == [1]
    # each domain's candidates are scored at most once across both lines
    assert scorings and all(len(domains) == 1 for domains in scorings)
    assert len(set(scorings)) == len(scorings)
    out = capsys.readouterr().out
    assert out.count("next: (restaurant, ") == 4
    assert "p=0." in out


def test_repl_rejects_missing_replay_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO("hello there\n"))
    assert cli.main(["repl", "--backend", "replay", "--replay", "nope.jsonl"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: replay file not found: nope.jsonl\n"
    assert captured.out == ""
    assert not Path("nope.jsonl").exists()


def test_repl_reports_backend_errors_and_continues(tmp_path, monkeypatch, capsys):
    replay_path = tmp_path / "empty.jsonl"
    replay_path.write_text(
        json.dumps({"prompt_hash": prompt_hash("x"), "completion": "y"}) + "\n",
        encoding="utf-8",
    )
    monkeypatch.setattr("sys.stdin", io.StringIO("hello there\n"))
    code = cli.main(["repl", "--backend", "replay", "--replay", str(replay_path)])
    assert code == 0
    assert "! backend error" in capsys.readouterr().out


def test_repl_applies_template_overrides(tmp_path, monkeypatch, capsys):
    templates = tmp_path / "t.txt"
    templates.write_text("[instruction]\nList every tracked pair.\n", encoding="utf-8")
    prompts = []

    class Recorder:
        def complete(self, prompt, params):
            prompts.append(prompt)
            return "Domain : [`restaurant'] , Slot : [`food'] , Value : [`thai']"

    monkeypatch.setattr(cli, "make_backend", lambda cfg: Recorder())
    monkeypatch.setattr("sys.stdin", io.StringIO("i want thai food\n"))
    assert cli.main(["repl", "--templates", str(templates)]) == 0
    assert len(prompts) == 1
    assert "Instruction: List every tracked pair. Input:" in prompts[0]
    assert "(restaurant, food, thai)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags", [["--graph-prefix", "g"], ["--checkpoint", "model.json"]]
)
def test_repl_needs_graph_prefix_and_checkpoint_together(flags, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("i want thai food\n"))
    assert cli.main(["repl", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "--graph-prefix and --checkpoint" in captured.err
    assert captured.out == ""


# --- turn tracker ---


def test_turn_tracker_rejects_unknown_strategy():
    cfg = RunConfig(strategy="nope")
    with pytest.raises(UsageError):
        cli.make_tracker(cfg)


def test_make_backend_rejects_unknown_name():
    with pytest.raises(UsageError):
        cli.make_backend(RunConfig(backend="quantum"))


def test_default_rulemock_uses_bundled_keywords():
    backend = cli.make_backend(RunConfig())
    assert isinstance(backend, RuleMockBackend)
    # spot check one bundled keyword
    raw = json.loads(fixture_keywords_path().read_text(encoding="utf-8"))
    assert "thai food" in raw
