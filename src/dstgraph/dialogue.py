"""Dialogue contexts, state triples, and per-turn state accumulation.

A conversation is an alternating (but not necessarily strictly alternating)
sequence of user and system turns.  The tracked state is a set of
<domain, slot, value> triples with at most one value per (domain, slot) key.
All values are immutable after construction and every operation here is a
pure function, so everything in this module is safe to share across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

#: Sentinel emitted by the extraction prompt when a slot has no value.
#: Stored normalized (case-folded), so comparisons use this constant.
NONE_VALUE = "none"

# Domain, slot and value strings repeat across every turn of a corpus, so
# a small memo serves nearly every call.
_NORMALIZE_CACHE_SIZE = 4096


def normalize_uncached(s: str) -> str:
    """Case-fold, trim, and collapse internal whitespace runs to one space."""
    return " ".join(s.split()).casefold()


@functools.lru_cache(maxsize=_NORMALIZE_CACHE_SIZE)
def normalize_text(s: str) -> str:
    """``normalize_uncached``, memoised for the short strings that repeat
    (domains, slots, values).  A text read once, such as an utterance or a
    prompt's input, goes to ``normalize_uncached``: the memo would only
    keep it alive."""
    return normalize_uncached(s)


class Speaker(Enum):
    USER = "user"
    SYSTEM = "system"


@dataclass(frozen=True)
class Turn:
    """One utterance.  Text must be non-empty after trimming.

    Internal newlines are replaced by spaces at construction so that a
    serialized context stays one line per turn.
    """

    speaker: Speaker
    text: str

    def __post_init__(self):
        cleaned = " ".join(self.text.split())
        if not cleaned:
            raise ValueError("utterance text must be non-empty")
        object.__setattr__(self, "text", cleaned)

    def render(self) -> str:
        prefix = "USER: " if self.speaker is Speaker.USER else "SYSTEM: "
        return prefix + self.text


@dataclass(frozen=True)
class DialogueContext:
    """Ordered turns of one conversation up to the current point."""

    turns: tuple[Turn, ...] = ()


def append_turn(ctx: DialogueContext, turn: Turn) -> DialogueContext:
    """Return a new context with ``turn`` appended; ``ctx`` is unchanged."""
    return DialogueContext(turns=ctx.turns + (turn,))


def serialize_context(ctx: DialogueContext) -> str:
    """Render a context as one ``USER:``/``SYSTEM:`` prefixed line per turn."""
    return "\n".join(t.render() for t in ctx.turns)


@dataclass(frozen=True, order=True)
class StateTriple:
    """One <domain, slot, value> unit.

    All three fields are normalized (case-folded, trimmed, internal
    whitespace collapsed) at construction, so downstream comparisons are
    plain equality.  ``value`` may be the sentinel ``NONE`` marking absence.
    """

    domain: str
    slot: str
    value: str

    def __post_init__(self):
        domain, slot, value = self.domain, self.slot, self.value
        if not (
            isinstance(domain, str) and isinstance(slot, str) and isinstance(value, str)
        ):
            raise TypeError(
                f"triple fields must be str, got ({domain!r}, {slot!r}, {value!r})"
            )
        object.__setattr__(self, "domain", normalize_text(domain))
        object.__setattr__(self, "slot", normalize_text(slot))
        object.__setattr__(self, "value", normalize_text(value))
        if not self.domain:
            raise ValueError("triple domain must be non-empty")
        if not self.slot:
            raise ValueError("triple slot must be non-empty")

    @property
    def key(self) -> tuple[str, str]:
        return (self.domain, self.slot)

    @property
    def is_none(self) -> bool:
        return self.value == NONE_VALUE


# A dialogue restates its accumulated triples turn after turn, so recent
# triples serve nearly every call.  The bound stays small because cached
# triples outlive the command that built them: a process that runs
# `graph` and then `train` carries them into training.
_TRIPLE_CACHE_SIZE = 512


@functools.lru_cache(maxsize=_TRIPLE_CACHE_SIZE)
def state_triple(domain: str, slot: str, value: str) -> StateTriple:
    """``StateTriple(domain, slot, value)``, shared between equal inputs.

    Triples are immutable, so one instance serves every turn that names
    the same raw strings.  Bad fields raise exactly as the constructor
    does (an unhashable one raises ``TypeError`` from the cache lookup),
    and a raised exception is never cached.
    """
    return StateTriple(domain, slot, value)


class DialogueState:
    """A set of triples keyed by (domain, slot); at most one value per key.

    Construction applies latest-wins on duplicate keys.  Instances are
    immutable and hashable; iteration order is sorted and deterministic.
    Metrics compare states only through their `value_by_key` maps.
    """

    __slots__ = ("_by_key",)

    def __init__(self, triples: Iterable[StateTriple] = ()):
        by_key = {(t.domain, t.slot): t for t in triples}
        object.__setattr__(self, "_by_key", by_key)

    def __setattr__(self, name, value):
        raise AttributeError("DialogueState is immutable")

    def triples(self) -> tuple[StateTriple, ...]:
        # keys are unique, so ordering by key orders the triples
        return tuple(t for _, t in sorted(self._by_key.items()))

    def unordered(self) -> Iterable[StateTriple]:
        """Read-only view of the triples in no fixed order; iterate the
        state itself where the order is observed."""
        return self._by_key.values()

    def value_by_key(self) -> dict[tuple[str, str], str]:
        """Each (domain, slot) key's value, sentinel-valued keys left out."""
        return {k: t.value for k, t in self._by_key.items() if t.value != NONE_VALUE}

    def get(self, domain: str, slot: str) -> StateTriple | None:
        return self._by_key.get((normalize_text(domain), normalize_text(slot)))

    def __iter__(self) -> Iterator[StateTriple]:
        return iter(self.triples())

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, triple: StateTriple) -> bool:
        return self._by_key.get(triple.key) == triple

    def __eq__(self, other) -> bool:
        if not isinstance(other, DialogueState):
            return NotImplemented
        return self._by_key == other._by_key

    def __hash__(self) -> int:
        return hash(frozenset(self._by_key.values()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({t.domain}, {t.slot}, {t.value})" for t in self.triples()
        )
        return f"DialogueState({{{inner}}})"


def accumulate_state(
    prev: DialogueState, new_triples: Iterable[StateTriple]
) -> DialogueState:
    """Merge newly extracted triples into an accumulated state.

    Keys are unioned and the newest value wins on (domain, slot) collisions.
    Sentinel ``NONE`` triples mark absence and never enter the accumulated
    state; in particular a NONE for an already-tracked key does not erase
    the earlier value.
    """
    merged = dict(prev._by_key)
    for t in new_triples:
        if t.value == NONE_VALUE:
            continue
        merged[(t.domain, t.slot)] = t
    return DialogueState(merged.values())
