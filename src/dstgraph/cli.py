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
import functools
import itertools
import json
import sys
import typing
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
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
    CorpusFormat,
    Prediction,
    atomic_writer,
    fixture_keywords_path,
    load_corpus,
    load_predictions,
    prediction_record,
    write_predictions,
)
from .dialogue import (
    DialogueContext,
    DialogueState,
    Speaker,
    Turn,
    accumulate_state,
    append_turn,
    serialize_context,
)
from .graph import (
    build_graph,
    dialogue_domains,
    load_graph,
    split_edges,
    write_edge_list,
    write_node_table,
)
from .linkpred import evaluate_split, mean_embeddings, rank_candidates
from .metrics import TurnPair, jga, slot_accuracy, slot_f1
from .parsing import ParseOutcome, classify_errors, merge_error_reports, parse_state
from .prompts import (
    PromptSpec,
    PromptStrategy,
    build_prompt,
    default_instruction,
    load_exemplars,
    load_template_overrides,
)
from .vgae import TrainConfig, load_checkpoint, save_checkpoint, train


class UsageError(ValueError):
    """Bad flags, bad config file, bad input data: the user can fix it."""


_FORMATS = {"auto": None, **{f.value: f for f in CorpusFormat}}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one subcommand run."""

    backend: str = "rulemock"
    endpoint: str = ""
    model: str = GenerationParams.model_name
    strategy: str = "cot"
    anti_hallucination: bool = True
    instruction: str = ""
    exemplars_file: str = ""
    templates_file: str = ""
    keywords: str = ""
    replay: str = ""
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
    corpus_format: str = "auto"
    predictions: str = ""
    out: str = ""
    out_prefix: str = ""
    checkpoint: str = ""
    metrics_out: str = ""
    from_gold: bool = False


def _meta(config: RunConfig, keys: list[str], **extra) -> dict:
    meta = {"version": __version__, "config": {k: getattr(config, k) for k in keys}}
    meta.update(extra)
    return meta


def _write_json(path: str, payload: dict) -> None:
    """Write a report as indented, key-sorted UTF-8 JSON with a final newline."""
    with atomic_writer(path) as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def make_backend(cfg: RunConfig):
    if cfg.backend == "rulemock":
        path = cfg.keywords or str(fixture_keywords_path())
        return RuleMockBackend.from_json(path)
    if cfg.backend == "replay":
        if not cfg.replay:
            raise UsageError("--replay PATH is required with the replay backend")
        return ReplayBackend(cfg.replay)
    if cfg.backend == "http":
        if not cfg.endpoint:
            raise UsageError("--endpoint URL is required with the http backend")
        return HttpBackend(cfg.endpoint)
    raise UsageError(f"unknown backend: {cfg.backend}")


class TurnTracker:
    """One tracking request per user turn: prompt -> completion -> parse.

    Built once per run: the strategy, instruction, exemplars, template
    overrides and generation parameters are resolved here, not per turn.
    A request reads only the turn's context, never an earlier result, so
    the caller may request turns in any order and fold them in order.
    """

    def __init__(self, cfg: RunConfig, backend):
        try:
            strategy = PromptStrategy(cfg.strategy)
        except ValueError as exc:
            raise UsageError(f"unknown strategy: {cfg.strategy}") from exc
        self._spec = functools.partial(
            PromptSpec,
            strategy=strategy,
            instruction=cfg.instruction or default_instruction(),
            anti_hallucination=cfg.anti_hallucination,
            exemplars=load_exemplars(cfg.exemplars_file) if cfg.exemplars_file else (),
        )
        self._overrides = (
            load_template_overrides(cfg.templates_file) if cfg.templates_file else None
        )
        self._params = GenerationParams(
            temperature=cfg.temperature,
            max_tokens=cfg.max_tokens,
            model_name=cfg.model,
            timeout=cfg.timeout,
            retries=cfg.retries,
        )
        self._backend = backend

    def prompt(self, ctx: DialogueContext) -> str:
        spec = self._spec(input_text=serialize_context(ctx))
        return build_prompt(spec, self._overrides)

    def track(self, ctx: DialogueContext) -> ParseOutcome:
        """The parsed state the backend gives for the last turn of ``ctx``.

        A BackendError propagates; the caller decides whether to abort.
        """
        return parse_state(self._backend.complete(self.prompt(ctx), self._params))


def _user_turns(dialogues):
    """Yield ``(dialogue_id, user turn index, context)`` for every user
    turn, in dialogue_id order and then turn order."""
    for dialogue in sorted(dialogues, key=lambda d: d.dialogue_id):
        ctx = DialogueContext()
        index = itertools.count()
        for turn in dialogue.turns:
            ctx = append_turn(ctx, turn)
            if turn.speaker is Speaker.USER:
                yield dialogue.dialogue_id, next(index), ctx


# Turn requests in flight at once over the http backend, whose time is
# spent waiting on the endpoint.  The offline backends are CPU-bound under
# the GIL and stay sequential.
_HTTP_WORKERS = 4
# Turns requested ahead of the fold: eight per worker, so that while one
# turn waits out a retry backoff the other workers stay busy.
_HTTP_WINDOW = 8 * _HTTP_WORKERS


def _in_order(pool: ThreadPoolExecutor, fn, items, window: int):
    """Yield ``fn(item)`` for each item in order, computed on ``pool``.

    At most ``window`` items are submitted ahead of the consumer: the next
    one is submitted only after a result is taken, so a consumer that
    stops early never has more than ``window - 1`` later items submitted.
    """
    pending: deque[Future] = deque()
    for item in items:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


def _fold(turns, outcomes) -> tuple[list[dict], BackendError | None]:
    """One record per turn, each dialogue's outcomes folded in turn order;
    at the first backend failure, the records before it and the error."""
    records: list[dict] = []
    try:
        for (dialogue_id, index, _), outcome in zip(turns, outcomes):
            if index == 0:
                state = DialogueState()
            state = accumulate_state(state, outcome.state.unordered())
            records.append(
                prediction_record(dialogue_id, index, state, outcome.diagnostics)
            )
    except BackendError as exc:
        return records, exc
    return records, None


def extract_records(
    dialogues, backend, cfg: RunConfig
) -> tuple[list[dict], BackendError | None]:
    """Track every user turn of every dialogue.

    Records come out in dialogue_id order, then turn order.  Over the http
    backend up to ``_HTTP_WORKERS`` turn requests run at once, across and
    within dialogues, and each dialogue's states are still folded in turn
    order, so the output is the sequential run's.  On a backend failure the
    records of every turn before the failing one are returned with the
    error, so the caller can flush partial output before aborting.
    """
    track = TurnTracker(cfg, backend).track
    # the tracker reads contexts ahead of the fold; tee keeps only the gap
    turns, ahead = itertools.tee(_user_turns(dialogues))
    contexts = (ctx for _, _, ctx in ahead)
    if not isinstance(backend, HttpBackend):
        return _fold(turns, map(track, contexts))
    pool = ThreadPoolExecutor(_HTTP_WORKERS)
    try:
        return _fold(turns, _in_order(pool, track, contexts, _HTTP_WINDOW))
    finally:
        # after a failure, queued turns are dropped unstarted and the
        # ones in flight run out before returning
        pool.shutdown(cancel_futures=True)


def cmd_extract(cfg: RunConfig, echoed: list[str]) -> int:
    if not cfg.corpus or not cfg.out:
        raise UsageError("extract requires --corpus and --out")
    result = load_corpus(cfg.corpus, _FORMATS[cfg.corpus_format])
    backend = make_backend(cfg)
    records, failure = extract_records(result.dialogues, backend, cfg)
    meta = _meta(cfg, echoed, corpus_skipped=result.skipped)
    if failure is not None:
        meta["failure"] = str(failure)
        write_predictions(cfg.out, records, meta=meta)
        print(
            f"extract aborted after {len(records)} turns: {failure}", file=sys.stderr
        )
        raise failure
    write_predictions(cfg.out, records, meta=meta)
    print(f"wrote {len(records)} turn predictions to {cfg.out}")
    return 0


def _pair_turns(
    predictions: list[Prediction], dialogues
) -> tuple[list[TurnPair], list[tuple[Turn, ...]]]:
    """Align predictions with gold states by (dialogue_id, turn); returns
    the pairs and, for each pair, its dialogue's turns."""
    by_key = {(p.dialogue_id, p.turn): p for p in predictions}
    pairs: list[TurnPair] = []
    contexts: list[tuple[Turn, ...]] = []
    for d in sorted(dialogues, key=lambda x: x.dialogue_id):
        if d.gold_states is None:
            raise UsageError(f"dialogue {d.dialogue_id} has no gold states")
        for i, gold in enumerate(d.gold_states):
            p = by_key.pop((d.dialogue_id, i), None)
            if p is None:
                raise UsageError(f"no prediction for dialogue {d.dialogue_id} turn {i}")
            pairs.append(TurnPair(predicted=p.state, gold=gold))
            contexts.append(d.turns)
    if by_key:
        raise UsageError(f"predictions reference unknown turns: {sorted(by_key)[:5]}")
    return pairs, contexts


def cmd_evaluate(cfg: RunConfig, echoed: list[str]) -> int:
    if not cfg.predictions or not cfg.corpus or not cfg.out:
        raise UsageError("evaluate requires --predictions, --corpus and --out")
    predictions = load_predictions(cfg.predictions)
    result = load_corpus(cfg.corpus, _FORMATS[cfg.corpus_format])
    pairs, contexts = _pair_turns(predictions, result.dialogues)

    prf = slot_f1(pairs)
    error_report = merge_error_reports(
        classify_errors(pair.predicted, pair.gold, turns=turns)
        for pair, turns in zip(pairs, contexts)
    )
    report = {
        "jga": jga(pairs),
        "slot_precision": prf.precision,
        "slot_recall": prf.recall,
        "slot_f1": prf.f1,
        "slot_accuracy": slot_accuracy(pairs),
        "turn_count": len(pairs),
        "parse_failure_count": sum(p.parse_failed for p in predictions),
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
    if not cfg.out_prefix:
        raise UsageError("graph requires --out-prefix")
    if cfg.from_gold:
        if not cfg.corpus:
            raise UsageError("graph --from-gold requires --corpus")
        result = load_corpus(cfg.corpus, _FORMATS[cfg.corpus_format])
        states = [
            s
            for d in result.dialogues
            if d.gold_states is not None
            for s in d.gold_states
        ]
    else:
        if not cfg.predictions:
            raise UsageError("graph requires --predictions (or --from-gold)")
        states = [p.state for p in load_predictions(cfg.predictions)]
    g = build_graph(states)
    if not g.edges:
        raise UsageError("state graph has no edges; nothing to train on")
    write_node_table(g, cfg.out_prefix + ".nodes.jsonl")
    write_edge_list(g, cfg.out_prefix + ".edges.txt")
    manifest = _meta(cfg, echoed, n_nodes=g.n_nodes, n_edges=len(g.edges))
    _write_json(cfg.out_prefix + ".manifest.json", manifest)
    print(f"graph: {g.n_nodes} nodes, {len(g.edges)} edges -> {cfg.out_prefix}.*")
    return 0


def _load_graph_prefix(prefix: str):
    return load_graph(prefix + ".edges.txt", prefix + ".nodes.jsonl")


def _load_model(cfg: RunConfig):
    """The graph at ``cfg.out_prefix`` and the posterior means of the
    checkpoint ``cfg.checkpoint`` over it."""
    g = _load_graph_prefix(cfg.out_prefix)
    params, _ = load_checkpoint(cfg.checkpoint)
    try:
        return g, mean_embeddings(params, g)
    except ValueError as exc:  # a checkpoint trained on another graph
        raise ValueError(
            f"checkpoint {cfg.checkpoint} does not fit graph {cfg.out_prefix}: {exc}"
        ) from exc


def cmd_train(cfg: RunConfig, echoed: list[str]) -> int:
    if not cfg.out_prefix or not cfg.checkpoint:
        raise UsageError("train requires --graph-prefix and --checkpoint")
    g = _load_graph_prefix(cfg.out_prefix)
    split = split_edges(g, cfg.train_frac, cfg.test_frac, cfg.val_frac, seed=cfg.seed)
    tc = TrainConfig(
        hidden_dim=cfg.hidden_dim,
        latent_dim=cfg.latent_dim,
        learning_rate=cfg.learning_rate,
        epochs=cfg.epochs,
        kl_weight=cfg.kl_weight,
        seed=cfg.seed,
    )
    params, history = train(g, split, tc)
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
    if not cfg.out_prefix or not cfg.checkpoint or not cfg.predictions or not cfg.out:
        raise UsageError(
            "predict requires --graph-prefix, --checkpoint, --predictions and --out"
        )
    if cfg.top_k <= 0:
        raise UsageError(f"--top-k must be positive, got {cfg.top_k}")
    g, mu = _load_model(cfg)
    by_dialogue: dict[str, list[DialogueState]] = {}
    for p in load_predictions(cfg.predictions):
        by_dialogue.setdefault(p.dialogue_id, []).append(p.state)

    out_records: list[dict] = []
    skipped: list[str] = []
    for dialogue_id in sorted(by_dialogue):
        domains = dialogue_domains(g, by_dialogue[dialogue_id])
        if not domains:
            skipped.append(dialogue_id)
            continue
        out_records.extend(
            {"dialogue_id": dialogue_id, **rec}
            for rec in rank_candidates(mu, g, domains, cfg.top_k)
        )
    meta = _meta(cfg, echoed, skipped_dialogues=skipped)
    write_predictions(cfg.out, out_records, meta=meta)
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
    tracker = TurnTracker(cfg, make_backend(cfg))
    g = mu = None
    if cfg.checkpoint:
        g, mu = _load_model(cfg)

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
        if mu is not None:
            domains = dialogue_domains(g, [state])
            if domains:
                for rec in rank_candidates(mu, g, domains, cfg.top_k):
                    print(
                        f"next: ({rec['domain_label']}, {rec['slotvalue_label']}) "
                        f"p={rec['probability']:.4f}"
                    )
    return 0


def _parse_config_file(path: str) -> dict:
    """Key-value run configuration: one `key = value` per line, # comments."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _coerce(key: str, value: str):
    if key == "corpus_format" and value not in _FORMATS:
        raise UsageError(f"config key corpus_format: unknown format {value!r}")
    kind = _FIELD_TYPES[key]
    if kind is bool:
        lowered = value.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise UsageError(f"config key {key}: expected a boolean, got {value!r}")
    try:
        return kind(value)
    except ValueError as exc:
        raise UsageError(f"config key {key}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dstgraph", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="key = value settings file")

    def add_backend_flags(p):
        p.add_argument("--backend", choices=["rulemock", "replay", "http"])
        p.add_argument("--endpoint", help="chat-completions base URL (http backend)")
        p.add_argument("--model", help="model name sent to the endpoint")
        p.add_argument("--keywords", help="keyword table JSON (rulemock backend)")
        p.add_argument("--replay", help="replay fixture JSONL (replay backend)")
        p.add_argument("--temperature", type=float)
        p.add_argument("--max-tokens", type=int, dest="max_tokens")
        p.add_argument("--timeout", type=float)
        p.add_argument("--retries", type=int)

    def add_prompt_flags(p):
        p.add_argument(
            "--strategy",
            choices=[s.value for s in PromptStrategy],
        )
        anti = p.add_mutually_exclusive_group()
        anti.add_argument(
            "--anti-hallucination", action="store_true", dest="anti_hallucination",
            default=None,
        )
        anti.add_argument(
            "--no-anti-hallucination", action="store_false", dest="anti_hallucination",
            default=None,
        )
        p.add_argument("--instruction", help="override the default instruction text")
        p.add_argument("--exemplars", dest="exemplars_file", help="exemplar JSONL")
        p.add_argument("--templates", dest="templates_file", help="template overrides")

    p = sub.add_parser("extract", help="extract dialogue states per user turn")
    add_common(p)
    add_backend_flags(p)
    add_prompt_flags(p)
    p.add_argument("--corpus")
    p.add_argument("--format", dest="corpus_format", choices=sorted(_FORMATS))
    p.add_argument("--out")

    p = sub.add_parser("evaluate", help="score predictions against gold states")
    add_common(p)
    p.add_argument("--predictions")
    p.add_argument("--corpus")
    p.add_argument("--format", dest="corpus_format", choices=sorted(_FORMATS))
    p.add_argument("--out")

    p = sub.add_parser("graph", help="build the dialogue-state graph")
    add_common(p)
    p.add_argument("--predictions")
    p.add_argument("--corpus")
    p.add_argument("--format", dest="corpus_format", choices=sorted(_FORMATS))
    p.add_argument("--from-gold", action="store_true", dest="from_gold", default=None)
    p.add_argument("--out-prefix", dest="out_prefix")

    p = sub.add_parser("train", help="train the link predictor on a graph")
    add_common(p)
    p.add_argument("--graph-prefix", dest="out_prefix")
    p.add_argument("--checkpoint")
    p.add_argument("--metrics-out", dest="metrics_out")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    p.add_argument("--latent-dim", type=int, dest="latent_dim")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--kl-weight", type=float, dest="kl_weight")
    p.add_argument("--train-frac", type=float, dest="train_frac")
    p.add_argument("--test-frac", type=float, dest="test_frac")
    p.add_argument("--val-frac", type=float, dest="val_frac")

    p = sub.add_parser("predict", help="rank next-state candidates per dialogue")
    add_common(p)
    p.add_argument("--graph-prefix", dest="out_prefix")
    p.add_argument("--checkpoint")
    p.add_argument("--predictions")
    p.add_argument("--top-k", type=int, dest="top_k")
    p.add_argument("--out")

    p = sub.add_parser("repl", help="interactive line-oriented tracker")
    add_common(p)
    add_backend_flags(p)
    add_prompt_flags(p)
    p.add_argument("--graph-prefix", dest="out_prefix")
    p.add_argument("--checkpoint")
    p.add_argument("--top-k", type=int, dest="top_k")

    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: command line > config file > defaults."""
    file_values: dict = {}
    if getattr(args, "config", None):
        raw = _parse_config_file(args.config)
        unknown = set(raw) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        file_values = {k: _coerce(k, v) for k, v in raw.items()}

    merged = {}
    for name in RunConfig.__dataclass_fields__:
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            merged[name] = cli_value
        elif name in file_values:
            merged[name] = file_values[name]
    return RunConfig(**merged)


# Settings a command's output does not echo: the subcommand and the config
# file path are not settings, and the http transport settings (timeout,
# retries) cannot change what a command writes.
_NOT_ECHOED = {"command", "config", "timeout", "retries"}

_COMMANDS = {
    "extract": cmd_extract,
    "evaluate": cmd_evaluate,
    "graph": cmd_graph,
    "train": cmd_train,
    "predict": cmd_predict,
    "repl": cmd_repl,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        echoed = sorted(vars(args).keys() - _NOT_ECHOED)
        return _COMMANDS[args.command](cfg, echoed)
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
