"""Dialogue state tracking metrics: joint goal accuracy, slot F1, slot accuracy.

All three operate on per-turn (predicted, gold) state pairs with NONE
values stripped first, since the sentinel encodes absence.  Slot F1 is
micro-averaged over the whole turn sequence; slot accuracy is keyed by
gold (domain, slot) pairs.  Both conventions are stated in every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dialogue import DialogueState, StateTriple


@dataclass(frozen=True)
class TurnPair:
    predicted: DialogueState
    gold: DialogueState


@dataclass(frozen=True)
class PrfScore:
    precision: float
    recall: float
    f1: float


def _scorable(state: DialogueState) -> frozenset[StateTriple]:
    return state.without_none().as_set()


def jga(turns: Sequence[TurnPair]) -> float:
    """Fraction of turns whose predicted state equals gold exactly."""
    if not turns:
        raise ValueError("jga needs at least one turn")
    # a state holds one triple per (domain, slot) key, so equal states are
    # equal triple sets, and no set need be built
    hits = sum(1 for t in turns if t.predicted.without_none() == t.gold.without_none())
    return hits / len(turns)


def slot_f1(turns: Sequence[TurnPair]) -> PrfScore:
    """Micro-averaged precision/recall/F1 over predicted vs gold triples.

    When neither side predicts anything anywhere, the score is perfect by
    convention; a 0/0 precision or recall otherwise counts as 0.
    """
    if not turns:
        raise ValueError("slot_f1 needs at least one turn")
    tp = fp = fn = 0
    for t in turns:
        pred, gold = _scorable(t.predicted), _scorable(t.gold)
        tp += len(pred & gold)
        fp += len(pred - gold)
        fn += len(gold - pred)
    if tp + fp == 0 and tp + fn == 0:
        return PrfScore(precision=1.0, recall=1.0, f1=1.0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PrfScore(precision=precision, recall=recall, f1=f1)


def slot_accuracy(turns: Sequence[TurnPair]) -> float:
    """Fraction of gold (domain, slot) keys predicted with the right value.

    A key with no prediction counts as incorrect; predicted-only keys do
    not enter the denominator.
    """
    if not turns:
        raise ValueError("slot_accuracy needs at least one turn")
    total = correct = 0
    for t in turns:
        gold = t.gold.value_by_key()
        pred = t.predicted.value_by_key()
        total += len(gold)
        correct += sum(1 for key, value in gold.items() if pred.get(key) == value)
    if total == 0:
        raise ValueError("slot_accuracy needs at least one gold triple")
    return correct / total


def per_domain_f1(turns: Sequence[TurnPair]) -> dict[str, PrfScore]:
    """Convenience group-by: micro slot F1 restricted to each domain."""
    domains = set()
    for t in turns:
        domains.update(x.domain for x in t.predicted.without_none())
        domains.update(x.domain for x in t.gold.without_none())

    def restrict(state: DialogueState, domain: str) -> DialogueState:
        return DialogueState(x for x in state.without_none() if x.domain == domain)

    return {
        d: slot_f1([TurnPair(restrict(t.predicted, d), restrict(t.gold, d)) for t in turns])
        for d in sorted(domains)
    }
