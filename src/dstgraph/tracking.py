"""Dialogue state tracking over a corpus: one completion request per user
turn, its parsed triples folded into the dialogue's running state.

`extract_records` drives a `TurnTracker` over a corpus, writing one
prediction record per user turn; over the http backend it keeps several
requests in flight at once and still folds each dialogue in turn order.
"""

from __future__ import annotations

import itertools
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from .backends import BackendError, GenerationParams, HttpBackend
from .datasets import prediction_record
from .dialogue import (
    DialogueContext,
    DialogueState,
    Speaker,
    accumulate_state,
    append_turn,
    serialize_context,
)
from .parsing import ParseOutcome, parse_state
from .prompts import DEFAULT_INSTRUCTION, PromptSpec, PromptStrategy, build_prompt


@dataclass(frozen=True)
class TurnTracker:
    """One tracking request per user turn: prompt -> completion -> parse.

    Built once per run from what every request shares; the defaults are
    those of `extract` run with no flags.  A request reads only the turn's
    context, never an earlier result, so the caller may request turns in
    any order and fold them in order.
    """

    backend: Any  # what the backends are: complete(prompt, params) -> str
    params: GenerationParams = GenerationParams()
    strategy: PromptStrategy = PromptStrategy.COT
    instruction: str = DEFAULT_INSTRUCTION
    anti_hallucination: bool = True
    exemplars: tuple[tuple[str, str], ...] = ()
    overrides: dict[str, str] | None = None

    def prompt(self, ctx: DialogueContext) -> str:
        spec = PromptSpec(
            strategy=self.strategy,
            instruction=self.instruction,
            input_text=serialize_context(ctx),
            anti_hallucination=self.anti_hallucination,
            exemplars=self.exemplars,
        )
        return build_prompt(spec, self.overrides)

    def track(self, ctx: DialogueContext) -> ParseOutcome:
        """The parsed state the backend gives for the last turn of ``ctx``.

        A BackendError propagates; the caller decides whether to abort.
        """
        return parse_state(self.backend.complete(self.prompt(ctx), self.params))


def _user_turns(dialogues):
    """Yield ``(dialogue_id, user turn index, context)`` for every user
    turn of ``dialogues``, in their order and then turn order."""
    for dialogue in dialogues:
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


def _fold(tracked, write) -> BackendError | None:
    """``write`` one record per tracked ``(turn, outcome)``, each
    dialogue's outcomes folded in turn order; at the first backend
    failure, stop and return the error."""
    try:
        for (dialogue_id, index, _), outcome in tracked:
            if index == 0:
                state = DialogueState()
            state = accumulate_state(state, outcome.state.unordered())
            write(prediction_record(dialogue_id, index, state, outcome.diagnostics))
    except BackendError as exc:
        return exc
    return None


def extract_records(dialogues, tracker: TurnTracker, write) -> BackendError | None:
    """Track every user turn of every dialogue, passing each turn's record
    to ``write``.

    Records come out in the order of ``dialogues``, then turn order.  Over
    the http backend up to ``_HTTP_WORKERS`` turn requests run at once,
    across and within dialogues, and each dialogue's states are still
    folded in turn order, so the output is the sequential run's.  On a
    backend failure the records of every turn before the failing one have
    been written, and the error is returned, so the caller can flush
    partial output before aborting.
    """

    def track(turn):
        return turn, tracker.track(turn[2])

    turns = _user_turns(dialogues)
    if not isinstance(tracker.backend, HttpBackend):
        return _fold(map(track, turns), write)
    pool = ThreadPoolExecutor(_HTTP_WORKERS)
    try:
        return _fold(_in_order(pool, track, turns, _HTTP_WINDOW), write)
    finally:
        # after a failure, queued turns are dropped unstarted and the
        # ones in flight run out before returning
        pool.shutdown(cancel_futures=True)
