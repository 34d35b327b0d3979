"""Command-line pipeline: extract, evaluate, graph, train, predict, repl.

Every output file embeds the resolved run configuration and toolkit
version, so a result can always be traced back to the exact run that
produced it.  With the offline backends and fixed seeds, two identical
runs produce byte-identical outputs.

Exit codes: 0 success, 1 user/config error, 2 backend failure,
3 internal error.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import itertools
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .backends import (
    BackendError,
    GenerationParams,
    HttpBackend,
    ReplayBackend,
    RuleMockBackend,
)
from .datasets import (
    AnnotatedDialogue,
    CorpusFormat,
    CorpusReader,
    Prediction,
    PredictionsSpool,
    TurnKeys,
    atomic_writer,
    fixture_keywords_path,
    iter_predictions,
)
from .dialogue import (
    DialogueContext,
    DialogueState,
    Speaker,
    Turn,
    accumulate_state,
    append_turn,
)
from .graph import (
    build_graph,
    dialogue_domains,
    load_graph,
    split_edges,
    write_edge_list,
    write_node_table,
)
from .linkpred import CandidateRanker, evaluate_split, mean_embeddings
from .metrics import TrackingCounts
from .parsing import ErrorTally, classify_errors
from .prompts import (
    DEFAULT_INSTRUCTION,
    PromptStrategy,
    load_exemplars,
    load_template_overrides,
)
from .tracking import TurnTracker, extract_records
from .vgae import TrainConfig, TrainingDiverged, load_checkpoint, save_checkpoint, train


class UsageError(ValueError):
    """Bad flags, bad config file, bad input data: the user can fix it."""


_FORMATS = {"auto": None, **{f.value: f for f in CorpusFormat}}


def _setting(default, help=None, *, choices=None):
    """A ``RunConfig`` field with its help and the choices that bound its
    flag and its config-file value alike."""
    return field(default=default, metadata=dict(help=help, choices=choices))


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one subcommand run.  A field declares a
    setting: its config-file and echoed key, and by its annotation the type
    of its flag and config-file value."""

    backend: str = _setting("rulemock", choices=("rulemock", "replay", "http"))
    endpoint: str = _setting("", "chat-completions base URL (http backend)")
    model: str = _setting(GenerationParams.model_name, "model name sent to the endpoint")
    strategy: str = _setting("cot", choices=tuple(s.value for s in PromptStrategy))
    anti_hallucination: bool = True
    instruction: str = _setting("", "override the default instruction text")
    exemplars_file: str = _setting("", "exemplar JSONL")
    templates_file: str = _setting("", "template overrides")
    keywords: str = _setting("", "keyword table JSON (rulemock backend)")
    replay: str = _setting("", "replay fixture JSONL (replay backend)")
    temperature: float = GenerationParams.temperature
    max_tokens: int = GenerationParams.max_tokens
    timeout: float = GenerationParams.timeout
    retries: int = GenerationParams.retries
    seed: int = TrainConfig.seed
    top_k: int = 5
    epochs: int = TrainConfig.epochs
    hidden_dim: int = TrainConfig.hidden_dim
    latent_dim: int = TrainConfig.latent_dim
    learning_rate: float = TrainConfig.learning_rate
    kl_weight: float = TrainConfig.kl_weight
    train_frac: float = 0.85
    test_frac: float = 0.10
    val_frac: float = 0.05
    corpus: str = ""
    corpus_format: str = _setting("auto", choices=tuple(sorted(_FORMATS)))
    predictions: str = ""
    out: str = ""
    out_prefix: str = ""
    checkpoint: str = ""
    metrics_out: str = ""
    from_gold: bool = False


_FIELDS = RunConfig.__dataclass_fields__
_FIELD_TYPES = typing.get_type_hints(RunConfig)


# The flags not spelled --field-name.  Besides these, train, predict and repl
# read the graph that graph writes at --out-prefix as --graph-prefix.
_FLAGS = {"corpus_format": "--format", "exemplars_file": "--exemplars",
          "templates_file": "--templates"}


def _flag(name: str) -> str:
    return _FLAGS.get(name) or "--" + name.replace("_", "-")


def _meta(config: RunConfig, keys: list[str], **extra) -> dict:
    meta = {"version": __version__, "config": {k: getattr(config, k) for k in keys}}
    meta.update(extra)
    return meta


def _write_json(path: str, payload: dict) -> None:
    """Write a report as indented, key-sorted UTF-8 JSON with a final newline."""
    with atomic_writer(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True, ensure_ascii=False)
        f.write("\n")


def make_backend(cfg: RunConfig):
    if cfg.backend == "rulemock":
        path = cfg.keywords or str(fixture_keywords_path())
        return RuleMockBackend.from_json(path)
    if cfg.backend == "replay":
        if not cfg.replay:
            raise UsageError("--replay PATH is required with the replay backend")
        if not Path(cfg.replay).exists():
            raise UsageError(f"replay file not found: {cfg.replay}")
        return ReplayBackend(cfg.replay)
    if cfg.backend == "http":
        if not cfg.endpoint:
            raise UsageError("--endpoint URL is required with the http backend")
        return HttpBackend(cfg.endpoint)
    raise UsageError(f"unknown backend: {cfg.backend}")


def _closing(backend):
    """A context that closes an http backend's connections as it exits;
    the offline backends hold none."""
    if isinstance(backend, HttpBackend):
        return contextlib.closing(backend)
    return contextlib.nullcontext()


def make_tracker(cfg: RunConfig) -> TurnTracker:
    """The `tracking.TurnTracker` of ``cfg``'s backend, generation and prompt settings."""
    backend = make_backend(cfg)
    try:
        strategy = PromptStrategy(cfg.strategy)
    except ValueError as exc:
        raise UsageError(f"unknown strategy: {cfg.strategy}") from exc
    params = GenerationParams(
        temperature=cfg.temperature,
        max_tokens=cfg.max_tokens,
        model_name=cfg.model,
        timeout=cfg.timeout,
        retries=cfg.retries,
    )
    return TurnTracker(
        backend,
        params,
        strategy=strategy,
        instruction=cfg.instruction or DEFAULT_INSTRUCTION,
        anti_hallucination=cfg.anti_hallucination,
        exemplars=load_exemplars(cfg.exemplars_file) if cfg.exemplars_file else (),
        overrides=(
            load_template_overrides(cfg.templates_file) if cfg.templates_file else None
        ),
    )


def cmd_extract(cfg: RunConfig, echoed: list[str]) -> int:
    with CorpusReader(cfg.corpus, _FORMATS[cfg.corpus_format]) as corpus, \
            PredictionsSpool(cfg.out) as spool:
        dialogues = corpus.dialogues()
        # a corpus with no dialogue fails here, before the backend is made
        first = next(dialogues)
        tracker = make_tracker(cfg)
        with _closing(tracker.backend):
            failure = extract_records(
                itertools.chain([first], dialogues), tracker, spool.write
            )
        for _ in dialogues:  # the dialogues left after a failure still count
            pass
        meta = _meta(cfg, echoed, corpus_skipped=corpus.skipped)
        if failure is not None:
            meta["failure"] = str(failure)
        spool.commit(meta)
    if failure is not None:
        print(f"extract aborted after {spool.count} turns: {failure}", file=sys.stderr)
        raise failure
    print(f"wrote {spool.count} turn predictions to {cfg.out}")
    return 0


# Unknown turns named in the error that reports them.
_UNKNOWN_SHOWN = 5


class _Scoring:
    """Each prediction paired with its gold turn as it is read, and scored.

    Pairs are keyed by (dialogue_id, turn).  ``add`` takes predictions in
    any order; the gold dialogue of each comes from ``corpus``, which keeps
    the last one read.  A turn's two key→value maps are built once and
    feed the counts and the error report.  ``check`` then raises what the
    pairing left wrong, in ``dialogue_id`` order.
    """

    def __init__(self, corpus: CorpusReader | None):
        self.corpus = corpus
        self.counts = TrackingCounts()
        self.errors = ErrorTally()
        self.parse_failures = 0
        self.seen = TurnKeys()
        # user-turn count of each dialogue read, None if it has no gold
        self._gold_turns: dict[str, int | None] = {}
        self._unknown: list[tuple[str, int]] = []  # the first few, sorted

    def _dialogue(self, dialogue_id: str) -> AnnotatedDialogue | None:
        if self.corpus is None:
            return None
        dialogue = self.corpus.read(dialogue_id)
        if dialogue is not None:
            gold = dialogue.gold_states
            self._gold_turns[dialogue_id] = None if gold is None else len(gold)
        return dialogue

    def add(self, p: Prediction) -> None:
        self.parse_failures += p.parse_failed
        dialogue = self._dialogue(p.dialogue_id)
        gold = None if dialogue is None else dialogue.gold_states
        key = (p.dialogue_id, p.turn)
        if gold is None or not 0 <= p.turn < len(gold):
            # a dialogue with no gold states fails the check before these count
            bisect.insort(self._unknown, key)
            del self._unknown[_UNKNOWN_SHOWN:]
            return
        predicted, expected = p.state.value_by_key(), gold[p.turn].value_by_key()
        self.counts.add(predicted, expected)
        self.errors.add(key, classify_errors(predicted, expected, dialogue.turns))

    def check(self) -> None:
        """Raise for the first dialogue, in ``dialogue_id`` order, with no
        gold states or with a turn no prediction covers; then for a corpus
        none of whose records parses; then for predictions of unknown turns."""
        for dialogue_id in self.corpus.ids:
            if dialogue_id not in self._gold_turns and self._dialogue(dialogue_id) is None:
                continue  # no record of the id parses
            n_gold = self._gold_turns[dialogue_id]
            if n_gold is None:
                raise UsageError(f"dialogue {dialogue_id} has no gold states")
            for i in range(n_gold):
                if (dialogue_id, i) not in self.seen:
                    raise UsageError(f"no prediction for dialogue {dialogue_id} turn {i}")
        if not self._gold_turns:
            raise self.corpus.no_valid_dialogues()
        if self._unknown:
            raise UsageError(f"predictions reference unknown turns: {self._unknown}")


def cmd_evaluate(cfg: RunConfig, echoed: list[str]) -> int:
    # the predictions are checked before the corpus's faults are reported
    try:
        corpus, corpus_error = CorpusReader(cfg.corpus, _FORMATS[cfg.corpus_format]), None
    except (OSError, ValueError) as exc:
        corpus, corpus_error = None, exc
    with corpus or contextlib.nullcontext():
        scoring = _Scoring(corpus)
        for p in iter_predictions(cfg.predictions, scoring.seen):
            scoring.add(p)
        if corpus_error is not None:
            raise corpus_error
        scoring.check()

    counts = scoring.counts
    prf = counts.slot_f1()
    error_report = scoring.errors.report()
    report = {
        "jga": counts.jga(),
        "slot_precision": prf.precision,
        "slot_recall": prf.recall,
        "slot_f1": prf.f1,
        "slot_accuracy": counts.slot_accuracy(),
        "turn_count": counts.turns,
        "parse_failure_count": scoring.parse_failures,
        "error_report": {
            "nonexistent_value_count": error_report.nonexistent_value_count,
            "synonym_count": error_report.synonym_count,
            "total_errors": error_report.total_errors,
            "samples": list(error_report.samples),
        },
        **_meta(cfg, echoed),
    }
    _write_json(cfg.out, report)
    print(f"jga={report['jga']:.4f} slot_f1={report['slot_f1']:.4f} -> {cfg.out}")
    return 0


def cmd_graph(cfg: RunConfig, echoed: list[str]) -> int:
    corpus = None
    if cfg.from_gold:
        if not cfg.corpus:
            raise UsageError("graph --from-gold requires --corpus")
        corpus = CorpusReader(cfg.corpus, _FORMATS[cfg.corpus_format])
        states = (s for d in corpus.dialogues() for s in d.gold_states or ())
    else:
        if not cfg.predictions:
            raise UsageError("graph requires --predictions (or --from-gold)")
        states = (p.state for p in iter_predictions(cfg.predictions))
    with corpus or contextlib.nullcontext():
        g = build_graph(states)
    if not len(g.edges):
        raise UsageError("state graph has no edges; nothing to train on")
    write_node_table(g, cfg.out_prefix + ".nodes.jsonl")
    write_edge_list(g, cfg.out_prefix + ".edges.txt")
    manifest = _meta(cfg, echoed, n_nodes=g.n_nodes, n_edges=len(g.edges))
    if corpus is not None:
        # malformed corpus records, counted as `extract` counts them
        manifest["corpus_skipped"] = corpus.skipped
    _write_json(cfg.out_prefix + ".manifest.json", manifest)
    print(f"graph: {g.n_nodes} nodes, {len(g.edges)} edges -> {cfg.out_prefix}.*")
    return 0


def _load_graph_prefix(prefix: str):
    return load_graph(prefix + ".edges.txt", prefix + ".nodes.jsonl")


def _load_model(cfg: RunConfig) -> CandidateRanker:
    """The run's one candidate ranker: the graph at ``cfg.out_prefix``, the
    posterior means of the checkpoint ``cfg.checkpoint`` over it and
    ``cfg.top_k``."""
    g = _load_graph_prefix(cfg.out_prefix)
    params, _ = load_checkpoint(cfg.checkpoint)
    try:
        mu = mean_embeddings(params, g)
    except ValueError as exc:  # a checkpoint trained on another graph
        raise ValueError(
            f"checkpoint {cfg.checkpoint} does not fit graph {cfg.out_prefix}: {exc}"
        ) from exc
    return CandidateRanker(mu, g, cfg.top_k)


def cmd_train(cfg: RunConfig, echoed: list[str]) -> int:
    g = _load_graph_prefix(cfg.out_prefix)
    split = split_edges(g, cfg.train_frac, cfg.test_frac, cfg.val_frac, seed=cfg.seed)
    if not len(split.test):
        raise UsageError(
            f"graph {cfg.out_prefix}: --test-frac {cfg.test_frac} of "
            f"{len(g.edges)} edges leaves no test edge to evaluate"
        )
    shared = TrainConfig.__dataclass_fields__.keys() & _FIELDS.keys()
    tc = TrainConfig(**{name: getattr(cfg, name) for name in shared})
    try:
        params, history = train(g, split, tc)
    except TrainingDiverged as exc:  # a setting's fault, not the program's
        raise UsageError(
            f"training diverged: {exc} with --learning-rate {tc.learning_rate}; "
            "try a smaller --learning-rate"
        ) from None
    save_checkpoint(cfg.checkpoint, params, tc)
    result = evaluate_split(params, g, split)
    metrics = {
        "auc": result["auc"],
        "ap": result["ap"],
        "epochs": len(history),
        "final_bce": history[-1].bce if history else None,
        "final_kl": history[-1].kl if history else None,
        "final_total": history[-1].total if history else None,
        "final_val_auc": history[-1].val_auc if history else None,
        "n_nodes": g.n_nodes,
        "n_edges": len(g.edges),
        "split_sizes": {
            "train": len(split.train),
            "val": len(split.val),
            "test": len(split.test),
        },
        **_meta(cfg, echoed),
    }
    out = cfg.metrics_out or str(Path(cfg.checkpoint).with_suffix(".metrics.json"))
    _write_json(out, metrics)
    print(
        f"trained {len(history)} epochs: test auc={result['auc']:.4f} "
        f"ap={result['ap']:.4f} -> {cfg.checkpoint}"
    )
    return 0


def cmd_predict(cfg: RunConfig, echoed: list[str]) -> int:
    if cfg.top_k <= 0:
        raise UsageError(f"--top-k must be positive, got {cfg.top_k}")
    ranker = _load_model(cfg)
    by_dialogue: dict[str, list[DialogueState]] = {}
    for p in iter_predictions(cfg.predictions):
        by_dialogue.setdefault(p.dialogue_id, []).append(p.state)

    skipped: list[str] = []
    with PredictionsSpool(cfg.out) as spool:
        for dialogue_id in sorted(by_dialogue):
            domains = dialogue_domains(ranker.graph, by_dialogue[dialogue_id])
            if not domains:
                skipped.append(dialogue_id)
                continue
            for rec in ranker.rank(domains):
                spool.write({"dialogue_id": dialogue_id, **rec})
        spool.commit(_meta(cfg, echoed, skipped_dialogues=skipped))
    print(
        f"ranked candidates for {len(by_dialogue) - len(skipped)} dialogues -> {cfg.out}"
    )
    return 0


def cmd_repl(cfg: RunConfig, echoed: list[str]) -> int:
    """Line-oriented tracker: one user utterance per line, tracked triples
    (and next-state candidates if a model is given) printed after each.
    It writes no file, so ``echoed`` goes unused."""
    if bool(cfg.out_prefix) != bool(cfg.checkpoint):
        raise UsageError("repl needs both --graph-prefix and --checkpoint, or neither")
    if cfg.top_k <= 0:
        raise UsageError(f"--top-k must be positive, got {cfg.top_k}")
    tracker = make_tracker(cfg)
    ranker = _load_model(cfg) if cfg.checkpoint else None

    with _closing(tracker.backend):
        ctx = DialogueContext()
        state = DialogueState()
        print("enter user utterances, one per line (ctrl-d to quit)")
        for line in sys.stdin:
            text = line.strip()
            if not text:
                continue
            ctx = append_turn(ctx, Turn(speaker=Speaker.USER, text=text))
            try:
                outcome = tracker.track(ctx)
            except BackendError as exc:
                print(f"! backend error: {exc}")
                continue
            state = accumulate_state(state, outcome.state.unordered())
            for d in outcome.diagnostics:
                print(f"! {d.kind.value}: {d.detail}")
            for t in state.triples():
                print(f"({t.domain}, {t.slot}, {t.value})")
            if ranker is not None:
                domains = dialogue_domains(ranker.graph, [state])
                if domains:
                    for rec in ranker.rank(domains):
                        print(
                            f"next: ({rec['domain_label']}, {rec['slotvalue_label']}) "
                            f"p={rec['probability']:.4f}"
                        )
    return 0


def _parse_config_file(path: str) -> dict:
    """Key-value run configuration: one `key = value` per line, # comments.
    Lines end only at a newline, so a value keeps any other line-break
    character."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").split("\n"), start=1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _finite_float(text: str) -> float:
    """The value of a float setting, from its flag or its config-file key:
    nan and the infinities are refused, since no setting means one and
    JSON cannot write one into an output."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parser_of(kind):
    """What parses a setting of type ``kind``, from a flag or a config file."""
    return _finite_float if kind is float else kind


def _coerce(key: str, value: str):
    choices = _FIELDS[key].metadata.get("choices")
    if choices is not None and value not in choices:
        # named as its flag names it: "unknown format", "unknown backend"
        raise UsageError(f"config key {key}: unknown {_flag(key)[2:]} {value!r}")
    kind = _FIELD_TYPES[key]
    if kind is bool:
        lowered = value.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise UsageError(f"config key {key}: expected a boolean, got {value!r}")
    try:
        return _parser_of(kind)(value)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"config key {key}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's 2
        raise UsageError(message)


def _add_setting(p, flag: str, name: str) -> None:
    """A flag for setting ``name``, whose default ``None`` defers to the
    config file; a switch on by default gets a ``--no-`` form too."""
    kind, meta = _FIELD_TYPES[name], _FIELDS[name].metadata
    if kind is not bool:
        p.add_argument(flag, dest=name, type=None if kind is str else _parser_of(kind),
                       choices=meta.get("choices"), help=meta.get("help"))
    elif not _FIELDS[name].default:
        p.add_argument(flag, action="store_true", dest=name, default=None)
    else:
        pair = p.add_mutually_exclusive_group()
        pair.add_argument(flag, action="store_true", dest=name, default=None)
        pair.add_argument(f"--no-{flag[2:]}", action="store_false", dest=name,
                          default=None)


@dataclass(frozen=True)
class _Command:
    """A subcommand: what runs it, its help, its settings in flag order,
    the settings it cannot run without, and whether it reads a graph."""

    run: typing.Callable[[RunConfig, list[str]], int]
    help: str
    settings: tuple[str, ...]
    required: tuple[str, ...] = ()
    reads_graph: bool = False

    def flag(self, name: str) -> str:
        if self.reads_graph and name == "out_prefix":
            return "--graph-prefix"
        return _flag(name)

    def check_required(self, command: str, cfg: RunConfig) -> None:
        if not all(getattr(cfg, name) for name in self.required):
            *rest, last = map(self.flag, self.required)
            listed = f"{', '.join(rest)} and {last}" if rest else last
            raise UsageError(f"{command} requires {listed}")


_BACKEND_SETTINGS = ("backend", "endpoint", "model", "keywords", "replay",
                     "temperature", "max_tokens", "timeout", "retries")
_PROMPT_SETTINGS = ("strategy", "anti_hallucination", "instruction",
                    "exemplars_file", "templates_file")

_COMMANDS = {
    "extract": _Command(
        cmd_extract, "extract dialogue states per user turn",
        (*_BACKEND_SETTINGS, *_PROMPT_SETTINGS, "corpus", "corpus_format", "out"),
        required=("corpus", "out")),
    "evaluate": _Command(
        cmd_evaluate, "score predictions against gold states",
        ("predictions", "corpus", "corpus_format", "out"),
        required=("predictions", "corpus", "out")),
    "graph": _Command(
        cmd_graph, "build the dialogue-state graph",
        ("predictions", "corpus", "corpus_format", "from_gold", "out_prefix"),
        required=("out_prefix",)),
    "train": _Command(
        cmd_train, "train the link predictor on a graph",
        ("out_prefix", "checkpoint", "metrics_out", "seed", "epochs", "hidden_dim",
         "latent_dim", "learning_rate", "kl_weight", "train_frac", "test_frac",
         "val_frac"),
        required=("out_prefix", "checkpoint"), reads_graph=True),
    "predict": _Command(
        cmd_predict, "rank next-state candidates per dialogue",
        ("out_prefix", "checkpoint", "predictions", "top_k", "out"),
        required=("out_prefix", "checkpoint", "predictions", "out"), reads_graph=True),
    "repl": _Command(
        cmd_repl, "interactive line-oriented tracker",
        (*_BACKEND_SETTINGS, *_PROMPT_SETTINGS, "out_prefix", "checkpoint", "top_k"),
        reads_graph=True),
}


@functools.cache
def _build_parser() -> _Parser:
    """The ``dstgraph`` parser, built once per process: parsing reads it and
    never changes it."""
    parser = _Parser(prog="dstgraph", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", default=None, help="key = value settings file")
        for setting in command.settings:
            _add_setting(p, command.flag(setting), setting)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: command line > config file > defaults.

    A config-file value is typed and checked against its setting's choices
    here, as argparse checks a flag's, for every subcommand and before any
    input is read.
    """
    file_values = {}
    if args.config:
        raw = _parse_config_file(args.config)
        unknown = set(raw) - set(_FIELDS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        file_values = {k: _coerce(k, v) for k, v in raw.items()}
    flags = {k: v for k, v in vars(args).items() if k in _FIELDS and v is not None}
    return RunConfig(**{**file_values, **flags})


# Settings a command's output does not echo: the subcommand and the config
# file path are not settings, and the http transport settings (timeout,
# retries) cannot change what a command writes.
_NOT_ECHOED = {"command", "config", "timeout", "retries"}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        command = _COMMANDS[args.command]
        command.check_required(args.command, cfg)
        echoed = sorted(vars(args).keys() - _NOT_ECHOED)
        return command.run(cfg, echoed)
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:  # incl. UsageError, JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal bug, not a user problem
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
