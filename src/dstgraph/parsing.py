"""Parse model completions into dialogue states and classify value errors.

Completions are untrusted input: every malformation becomes a diagnostic
on the ParseOutcome, never an exception.  The expected completion shape is
three aligned bracketed lists:

    Domain : [`General'] , Slot : [`hobby'] , Value : [`canning or whittling']

with tolerant label casing, optional commas between groups, and any of the
three quote styles (LaTeX backtick-apostrophe, single, double).

`classify_errors` sorts one turn's wrong predicted values into failure
modes from the turn's predicted and gold key→value maps, the maps that
`metrics.TrackingCounts.add` takes; `ErrorTally` merges the per-turn
reports in any order.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Mapping, Sequence

from .dialogue import DialogueState, StateTriple, Turn, normalize_text, state_triple


class DiagnosticKind(Enum):
    PARSE_FAILURE = "parse_failure"
    LIST_LENGTH_MISMATCH = "list_length_mismatch"
    EMPTY_FIELD = "empty_field"


@dataclass(frozen=True)
class Diagnostic:
    kind: DiagnosticKind
    detail: str


@dataclass(frozen=True)
class ParseOutcome:
    state: DialogueState
    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def failed(self) -> bool:
        return any(d.kind is DiagnosticKind.PARSE_FAILURE for d in self.diagnostics)


_LABEL_PATTERNS = {
    "domain": re.compile(r"domains?\s*:?\s*\[([^\]]*)\]", re.IGNORECASE),
    "slot": re.compile(r"slots?\s*:?\s*\[([^\]]*)\]", re.IGNORECASE),
    "value": re.compile(r"values?\s*:?\s*\[([^\]]*)\]", re.IGNORECASE),
}

# a quoted item closes at a quote char that is followed by a comma or the
# end of the list body, so internal apostrophes survive
_ITEM = re.compile(r"[`'\"](.*?)['\"`](?=\s*(?:,|$))")


def _split_items(body: str) -> list[str]:
    body = body.strip()
    if not body:
        return []
    quoted = _ITEM.findall(body)
    if quoted:
        return quoted
    # unquoted fallback: bare comma-separated tokens
    return [part.strip(" \t`'\"") for part in body.split(",")]


def parse_state(text: str) -> ParseOutcome:
    """Extract Domain/Slot/Value lists from a completion.

    The last occurrence of each labeled list wins, since chatty models
    often restate the format before answering.  A singleton domain list
    broadcasts over the slot-value pairs; mismatched list lengths zip up
    to the shortest and are reported.  Unrecognizable text yields an empty
    state with a ParseFailure diagnostic.
    """
    matches = {name: pat.findall(text) for name, pat in _LABEL_PATTERNS.items()}
    missing = [name for name, found in matches.items() if not found]
    if missing:
        diag = Diagnostic(
            DiagnosticKind.PARSE_FAILURE,
            f"no {'/'.join(missing)} list found in completion",
        )
        return ParseOutcome(state=DialogueState(), diagnostics=(diag,))

    domains = _split_items(matches["domain"][-1])
    slots = _split_items(matches["slot"][-1])
    values = _split_items(matches["value"][-1])

    diagnostics: list[Diagnostic] = []
    n = min(len(slots), len(values))
    if len(slots) != len(values):
        diagnostics.append(
            Diagnostic(
                DiagnosticKind.LIST_LENGTH_MISMATCH,
                f"{len(slots)} slots vs {len(values)} values; zipped to {n}",
            )
        )
    if len(domains) == 1:
        domains = domains * n
    elif len(domains) != n:
        n2 = min(len(domains), n)
        diagnostics.append(
            Diagnostic(
                DiagnosticKind.LIST_LENGTH_MISMATCH,
                f"{len(domains)} domains vs {n} slot-value pairs; zipped to {n2}",
            )
        )
        n = n2

    triples: list[StateTriple] = []
    for d, s, v in zip(domains[:n], slots[:n], values[:n]):
        if not normalize_text(v):
            diagnostics.append(
                Diagnostic(DiagnosticKind.EMPTY_FIELD, f"empty value for ({d}, {s})")
            )
            continue
        try:
            triples.append(state_triple(d, s, v))
        except ValueError:
            diagnostics.append(
                Diagnostic(DiagnosticKind.EMPTY_FIELD, f"empty field in ({d}, {s}, {v})")
            )
    return ParseOutcome(state=DialogueState(triples), diagnostics=tuple(diagnostics))


def format_state(state: DialogueState) -> str:
    """Canonical completion text for a state; the inverse of parse_state.

    Triples render in sorted order with LaTeX-style quoting and full-length
    domain lists (no singleton compression).
    """
    triples = state.triples()
    def quoted(items: Iterable[str]) -> str:
        return ", ".join(f"`{x}'" for x in items)

    ds = quoted(t.domain for t in triples)
    ss = quoted(t.slot for t in triples)
    vs = quoted(t.value for t in triples)
    return f"Domain : [{ds}] , Slot : [{ss}] , Value : [{vs}]"


JUNK_TOKENS = frozenset(
    {"unknown", "n/a", "na", "null", "nil", "tbd", "placeholder", "xxx", "value"}
)
# samples kept by ErrorTally
MAX_ERROR_SAMPLES = 20


@dataclass(frozen=True)
class ErrorReport:
    """Counts of wrong predicted values by failure mode."""

    nonexistent_value_count: int = 0
    synonym_count: int = 0
    total_errors: int = 0
    samples: tuple[dict, ...] = ()


def _is_junk(value: str) -> bool:
    if value in JUNK_TOKENS:
        return True
    if value and not any(c.isalnum() for c in value):
        return True
    if len(value) > 1 and len(set(value)) == 1:
        return True
    return False


def classify_errors(
    pred: Mapping[tuple[str, str], str],
    gold: Mapping[tuple[str, str], str],
    turns: Sequence[Turn] | None = None,
) -> ErrorReport:
    """Classify a turn's wrong predicted values into the observed failure
    modes, from its predicted and gold key→value maps
    (``DialogueState.value_by_key``, so NONE-valued triples are ignored on
    both sides).

    A predicted value is wrong when its (domain, slot) key is missing from
    gold or carries a different gold value.  A wrong value is a
    non-existent value when it matches the junk patterns
    (punctuation-only, one repeated character, placeholder tokens) or,
    when turns are given, never occurs in the dialogue text; it is a
    synonym error when the gold value's tokens are a subset or superset of
    the predicted value's tokens.  Without turns the substring rule is
    skipped, never assumed to fail.
    """
    nonexistent = 0
    synonym = 0
    samples: list[dict] = []
    # (key, predicted, gold or None) in key order, for the samples; keys
    # are unique, so the sort never compares past them
    wrong = sorted(
        (key, value, gold.get(key)) for key, value in pred.items() - gold.items()
    )

    turn_texts = None
    if turns is not None and wrong:
        # a turn's text is already trimmed and collapsed, so folding its
        # case normalizes it
        turn_texts = [t.text.casefold() for t in turns]
    for (domain, slot), predicted, gold_value in wrong:
        unsupported = turn_texts is not None and not any(
            predicted in text for text in turn_texts
        )
        if _is_junk(predicted) or unsupported:
            kind = "nonexistent_value"
            nonexistent += 1
        elif gold_value is not None and _token_containment(predicted, gold_value):
            kind = "synonym"
            synonym += 1
        else:
            kind = "unclassified"
        samples.append(
            {
                "kind": kind,
                "domain": domain,
                "slot": slot,
                "predicted": predicted,
                "gold": gold_value,
            }
        )

    return ErrorReport(
        nonexistent_value_count=nonexistent,
        synonym_count=synonym,
        total_errors=len(wrong),
        samples=tuple(samples),
    )


def _token_containment(a: str, b: str) -> bool:
    ta, tb = set(a.split()), set(b.split())
    if not ta or not tb:
        return False
    return ta <= tb or tb <= ta


class ErrorTally:
    """Per-turn reports merged as they come, in any order: each report is
    added with a sort key, and the samples kept are the first
    ``MAX_ERROR_SAMPLES`` in key order, as if the reports came sorted."""

    def __init__(self):
        self._counts = [0, 0, 0]  # nonexistent, synonym, total
        self._samples: list[tuple[Any, int, dict]] = []  # (key, index, sample)

    def add(self, key, report: ErrorReport) -> None:
        """Add one report; no two reports may share a key."""
        self._counts[0] += report.nonexistent_value_count
        self._counts[1] += report.synonym_count
        self._counts[2] += report.total_errors
        kept = self._samples
        for index, sample in enumerate(report.samples):
            if len(kept) == MAX_ERROR_SAMPLES and (key, index) > kept[-1][:2]:
                break
            bisect.insort(kept, (key, index, sample))
            del kept[MAX_ERROR_SAMPLES:]

    def report(self) -> ErrorReport:
        nonexistent, synonym, total = self._counts
        return ErrorReport(
            nonexistent_value_count=nonexistent,
            synonym_count=synonym,
            total_errors=total,
            samples=tuple(sample for _, _, sample in self._samples),
        )
