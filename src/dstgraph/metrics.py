"""Dialogue state tracking metrics: joint goal accuracy, slot F1, slot accuracy.

Every tracking metric compares each turn's predicted and gold key→value
maps (`DialogueState.value_by_key`, NONE-valued keys left out, since the
sentinel encodes absence); a turn's matches are the items both maps hold.
All three are ratios of integer counts, which `TrackingCounts` keeps: a
caller adds each turn's two maps as it reads them, then asks for the
scores, so a stream of turns needs no list of them.  `per_domain_f1`
takes the same map pairs.  Slot F1 is micro-averaged over the whole turn
sequence; slot accuracy is keyed by gold (domain, slot) pairs.  Both
conventions are stated in every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


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
        value: slot F1's recall, from the same counts.

        A key with no prediction counts as incorrect; predicted-only keys
        do not enter the denominator.
        """
        if not self.turns:
            raise ValueError("slot_accuracy needs at least one turn")
        if self.tp + self.fn == 0:
            raise ValueError("slot_accuracy needs at least one gold triple")
        return self.tp / (self.tp + self.fn)


def _prf(tp: int, fp: int, fn: int) -> PrfScore:
    """Precision, recall and F1 of pooled counts, as `slot_f1` states them."""
    if tp + fp == 0 and tp + fn == 0:
        return PrfScore(precision=1.0, recall=1.0, f1=1.0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PrfScore(precision=precision, recall=recall, f1=f1)


def per_domain_f1(turns: Iterable[tuple[Mapping, Mapping]]) -> dict[str, PrfScore]:
    """Convenience group-by: micro slot F1 restricted to each domain, over
    each turn's (predicted, gold) key→value maps, as `TrackingCounts.add`
    takes them."""
    # per domain: [true positives, false positives, false negatives]
    counts: dict[str, list[int]] = {}
    for pred_map, gold_map in turns:
        pred, gold = pred_map.items(), gold_map.items()
        for kind, items in enumerate((pred & gold, pred - gold, gold - pred)):
            for (domain, _), _ in items:
                counts.setdefault(domain, [0, 0, 0])[kind] += 1
    return {d: _prf(*counts[d]) for d in sorted(counts)}
