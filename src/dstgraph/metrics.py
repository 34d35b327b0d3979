"""Dialogue state tracking metrics (joint goal accuracy, slot F1, slot
accuracy) and link-prediction ranking metrics (AUC, average precision).

Every tracking metric compares each turn's predicted and gold key→value
maps (`DialogueState.value_by_key`, NONE-valued keys left out, since the
sentinel encodes absence); a turn's matches are the items both maps hold.
All three are ratios of integer counts, which `TrackingCounts` keeps turn
by turn, so a stream of turns is scored as exactly as a list of them.
Slot F1 is micro-averaged over the whole turn sequence; slot accuracy is
keyed by gold (domain, slot) pairs.  Both conventions are stated in every report.
The ranking metrics score held-out edges against matched negatives, for
validation during training and for the final test evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dialogue import DialogueState


@dataclass(frozen=True)
class TurnPair:
    predicted: DialogueState
    gold: DialogueState


@dataclass(frozen=True)
class PrfScore:
    precision: float
    recall: float
    f1: float


@dataclass
class TrackingCounts:
    """Counts over the turns added so far: the turns, the turns whose maps
    are equal, and the pooled (true positive, false positive, false
    negative) key→value items."""

    turns: int = 0
    joint_hits: int = 0
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def add(self, predicted: Mapping, gold: Mapping) -> None:
        """Count one turn from its predicted and gold key→value maps."""
        pred, ref = predicted.items(), gold.items()
        hits = len(pred & ref)
        self.turns += 1
        self.joint_hits += predicted == gold
        self.tp += hits
        self.fp += len(pred) - hits
        self.fn += len(ref) - hits

    def jga(self) -> float:
        """Fraction of turns whose predicted key→value map equals gold's."""
        if not self.turns:
            raise ValueError("jga needs at least one turn")
        return self.joint_hits / self.turns

    def slot_f1(self) -> PrfScore:
        """Micro-averaged precision/recall/F1 over the pooled items.

        When neither side predicts anything anywhere, the score is perfect
        by convention; a 0/0 precision or recall otherwise counts as 0.
        """
        if not self.turns:
            raise ValueError("slot_f1 needs at least one turn")
        return _prf(self.tp, self.fp, self.fn)

    def slot_accuracy(self) -> float:
        """Fraction of gold (domain, slot) keys predicted with the right
        value: slot F1's recall, from the same counts."""
        if not self.turns:
            raise ValueError("slot_accuracy needs at least one turn")
        if self.tp + self.fn == 0:
            raise ValueError("slot_accuracy needs at least one gold triple")
        return self.tp / (self.tp + self.fn)


def _tracking_counts(turns: Iterable[TurnPair]) -> TrackingCounts:
    """The counts of ``turns``, each turn's two maps built once."""
    counts = TrackingCounts()
    for t in turns:
        counts.add(t.predicted.value_by_key(), t.gold.value_by_key())
    return counts


def jga(turns: Sequence[TurnPair]) -> float:
    """Fraction of turns whose predicted key→value map equals gold's."""
    return _tracking_counts(turns).jga()


def _prf(tp: int, fp: int, fn: int) -> PrfScore:
    """Precision, recall and F1 of pooled counts, as `slot_f1` states them."""
    if tp + fp == 0 and tp + fn == 0:
        return PrfScore(precision=1.0, recall=1.0, f1=1.0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PrfScore(precision=precision, recall=recall, f1=f1)


def slot_f1(turns: Sequence[TurnPair]) -> PrfScore:
    """Micro-averaged precision/recall/F1 over predicted vs gold key→value
    items (`TrackingCounts.slot_f1`)."""
    return _tracking_counts(turns).slot_f1()


def slot_accuracy(turns: Sequence[TurnPair]) -> float:
    """Fraction of gold (domain, slot) keys predicted with the right value.

    A key with no prediction counts as incorrect; predicted-only keys do
    not enter the denominator.
    """
    return _tracking_counts(turns).slot_accuracy()


def per_domain_f1(turns: Sequence[TurnPair]) -> dict[str, PrfScore]:
    """Convenience group-by: micro slot F1 restricted to each domain."""
    # per domain: [true positives, false positives, false negatives]
    counts: dict[str, list[int]] = {}
    for t in turns:
        pred, gold = t.predicted.value_by_key().items(), t.gold.value_by_key().items()
        for kind, items in enumerate((pred & gold, pred - gold, gold - pred)):
            for (domain, _), _ in items:
                counts.setdefault(domain, [0, 0, 0])[kind] += 1
    return {d: _prf(*counts[d]) for d in sorted(counts)}


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks in ascending score order; ties get their average rank."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    # a tie group spanning ranks first..last gets (first + last) / 2, exact
    return ((last - counts + 1 + last) / 2.0)[inverse]


def auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Probability a random positive outranks a random negative, ties 0.5.

    Rank-based Mann-Whitney formulation; exactly equals brute-force
    pairwise counting because average ranks are half-integer exact.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs at least one positive and one negative label")
    ranks = _average_ranks(s)
    u = ranks[y].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def average_precision(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Mean precision at each positive's rank, descending score order.

    Ties are broken by stable input order; AP is not tie-invariant, so the
    policy is part of the contract.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    if not y.any():
        raise ValueError("average_precision needs at least one positive label")
    order = np.argsort(-s, kind="stable")
    hit_ranks = np.flatnonzero(y[order]) + 1
    precisions = np.arange(1, len(hit_ranks) + 1) / hit_ranks
    # cumsum adds in sequence; np.sum's pairwise order would change the last bits
    return float(np.cumsum(precisions)[-1] / len(hit_ranks))
