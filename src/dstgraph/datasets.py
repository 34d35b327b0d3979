"""Corpus loading, prediction persistence, bundled fixtures.

Three corpus shapes normalize to AnnotatedDialogue: a plain JSONL schema
(documented below), classic goal-oriented JSON with per-system-turn belief
metadata, and schema-guided JSON with per-frame slot_values.  Each shape
has one parser that turns one record (a JSONL line, an (id, object) entry,
a list element) into one dialogue, and ``load_corpus`` runs it under one
skip rule: a dialogue whose record is malformed at any depth, or whose
id an earlier dialogue has, is counted instead of crashing, because corpus
files in the wild are messy.  A file of the wrong shape is an error that
names the file.  ``load_corpus`` reads a whole corpus at once; a
``CorpusReader`` reads a plain JSONL corpus one dialogue at a time, under
the same parser and skip rule.

Plain JSONL schema, one dialogue per line:
    {"dialogue_id": str,
     "turns": [{"speaker": "user"|"system", "text": str}, ...],
     "gold": optional [[{"domain": str, "slot": str, "value": str}, ...], ...]}
where gold, when present, holds the cumulative state after each user turn.
The predictions file's record is documented at ``iter_predictions``.
JSON Lines files are read by ``read_json_lines`` and written by
``write_json_lines``; every file is written whole through ``atomic_writer``.
A JSON Lines file splits only at "\n": its writer leaves U+0085, U+2028 and
U+2029 unescaped inside strings, where ``str.splitlines`` would split too.
"""

from __future__ import annotations

import codecs
import contextlib
import functools
import itertools
import json
import os
import shutil
import tempfile
import uuid
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

from .dialogue import DialogueState, Speaker, StateTriple, Turn, state_triple
from .parsing import Diagnostic, DiagnosticKind

_FIXTURES = Path(__file__).resolve().parent / "fixtures"


class CorpusFormat(Enum):
    MULTIWOZ_JSON = "multiwoz"
    SGD_JSON = "sgd"
    PLAIN_JSONL = "plain"


@dataclass(frozen=True)
class AnnotatedDialogue:
    dialogue_id: str
    turns: tuple[Turn, ...]
    gold_states: tuple[DialogueState, ...] | None = None

    def __post_init__(self):
        n_user = sum(1 for t in self.turns if t.speaker is Speaker.USER)
        if self.gold_states is not None and len(self.gold_states) != n_user:
            raise ValueError(
                f"{self.dialogue_id}: {len(self.gold_states)} gold states "
                f"for {n_user} user turns"
            )


@dataclass(frozen=True)
class LoadResult:
    dialogues: tuple[AnnotatedDialogue, ...]
    skipped: int


def state_to_jsonable(state: DialogueState) -> list[dict]:
    return [
        {"domain": t.domain, "slot": t.slot, "value": t.value} for t in state.triples()
    ]


def state_from_jsonable(items: Sequence[dict]) -> DialogueState:
    return DialogueState(state_triple(i["domain"], i["slot"], i["value"]) for i in items)


# an unknown speaker is a KeyError, which the skip rule counts
_SPEAKERS = {s.value: s for s in Speaker}

# A record that raises one of these is malformed: the skip rule counts it.
# AttributeError: a list or a string where an object belongs.
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError)


def _plain_dialogue(line: str) -> AnnotatedDialogue:
    """One line of the plain JSONL schema."""
    rec = json.loads(line)
    turns = tuple(
        Turn(speaker=_SPEAKERS[str(t["speaker"]).lower()], text=str(t["text"]))
        for t in rec["turns"]
    )
    gold = rec.get("gold")
    if gold is not None:
        gold = tuple(state_from_jsonable(items) for items in gold)
    return AnnotatedDialogue(
        dialogue_id=str(rec["dialogue_id"]), turns=turns, gold_states=gold
    )


_ABSENT_VALUES = {"", "not mentioned", "none"}


def _belief_triples(metadata: dict) -> list[StateTriple]:
    triples = []
    for domain, sections in metadata.items():
        if not isinstance(sections, dict):
            continue
        for section in ("semi", "book"):
            for slot, value in sections.get(section, {}).items():
                if slot == "booked" or not isinstance(value, str):
                    continue
                if value.strip().lower() in _ABSENT_VALUES:
                    continue
                triples.append(state_triple(domain, slot, value))
    return triples


def _multiwoz_dialogue(item: tuple[str, dict]) -> AnnotatedDialogue:
    """One (dialogue_id, {"log": [...]}) entry of the classic format: user
    and system turns alternate, and each system turn's metadata holds the
    belief state."""
    dialogue_id, rec = item
    turns, gold = [], []
    last_state = DialogueState()
    for idx, entry in enumerate(rec["log"]):
        speaker = Speaker.USER if idx % 2 == 0 else Speaker.SYSTEM
        turns.append(Turn(speaker=speaker, text=str(entry["text"])))
        if speaker is Speaker.SYSTEM:
            last_state = DialogueState(_belief_triples(entry.get("metadata", {})))
            gold[-1] = last_state
        else:
            # trailing user turn without a system reply keeps the
            # previous cumulative state
            gold.append(last_state)
    return AnnotatedDialogue(
        dialogue_id=str(dialogue_id), turns=tuple(turns), gold_states=tuple(gold)
    )


def _service_to_domain(service: str) -> str:
    # "Restaurants_1" -> "restaurants": the trailing schema counter is not
    # a domain distinction
    base = service.rsplit("_", 1)
    if len(base) == 2 and base[1].isdigit():
        return base[0]
    return service


def _sgd_dialogue(rec: dict) -> AnnotatedDialogue:
    """One dialogue of the schema-guided format: its user turns carry
    frames with cumulative state.slot_values per service."""
    turns, gold = [], []
    for entry in rec["turns"]:
        speaker = _SPEAKERS[str(entry["speaker"]).lower()]
        turns.append(Turn(speaker=speaker, text=str(entry["utterance"])))
        if speaker is Speaker.USER:
            triples = []
            for frame in entry.get("frames", []):
                domain = _service_to_domain(str(frame["service"]))
                slot_values = frame.get("state", {}).get("slot_values", {})
                for slot, values in slot_values.items():
                    if not isinstance(values, list):
                        raise TypeError(f"slot {slot!r}: values must be a list")
                    if values:
                        triples.append(state_triple(domain, slot, values[0]))
            gold.append(DialogueState(triples))
    return AnnotatedDialogue(
        dialogue_id=str(rec["dialogue_id"]), turns=tuple(turns), gold_states=tuple(gold)
    )


def load_corpus(path: str | Path, format: CorpusFormat | None = None) -> LoadResult:
    """Load and normalize a corpus file.  A dialogue whose record is
    malformed (a missing key, a wrong type, an unknown speaker, a gold
    list of the wrong length) is skipped and counted, not fatal, and so is
    a dialogue whose id an earlier one in read order has.  Zero valid
    dialogues is an error, as is a document of the wrong shape.

    Without a ``format``, a ``.jsonl`` file is plain JSONL; any other file
    is parsed once as JSON, and an object is read as the classic format, a
    list as the schema-guided one.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    if _is_plain(p, format):
        parse, records = _plain_dialogue, (line for _, line in _lines(p) if line.strip())
    else:
        last = deque(maxlen=1)  # the (key, value) pairs of the object decoded last
        text = p.read_text(encoding="utf-8")
        try:
            raw = json.loads(text, object_pairs_hook=lambda kv: last.append(kv) or dict(kv))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if format is None and isinstance(raw, dict):
            format = CorpusFormat.MULTIWOZ_JSON
        elif format is None and isinstance(raw, list):
            format = CorpusFormat.SGD_JSON
        if format is CorpusFormat.MULTIWOZ_JSON:
            if not isinstance(raw, dict):
                raise ValueError(
                    f"{path}: expected a dialogue_id -> dialogue object mapping"
                )
            # the outermost object is decoded last: its entries in file order,
            # a repeated id too, which the stable sort keeps after the first
            parse, records = _multiwoz_dialogue, sorted(last[0], key=lambda kv: kv[0])
        elif format is CorpusFormat.SGD_JSON:
            if not isinstance(raw, list):
                raise ValueError(f"{path}: expected a list of dialogue objects")
            parse, records = _sgd_dialogue, raw
        else:
            raise ValueError(f"unrecognized corpus shape in {path}")
    dialogues: dict[str, AnnotatedDialogue] = {}
    skipped = 0
    for record in records:
        try:
            dialogue = parse(record)
        except _MALFORMED:
            skipped += 1
            continue
        if dialogues.setdefault(dialogue.dialogue_id, dialogue) is not dialogue:
            skipped += 1  # a repeated id: the first dialogue read keeps it
    if not dialogues:
        raise _no_valid_dialogues(path, skipped)
    return LoadResult(dialogues=tuple(dialogues.values()), skipped=skipped)


def _is_plain(path: Path, format: CorpusFormat | None) -> bool:
    return format is CorpusFormat.PLAIN_JSONL or (format is None and path.suffix == ".jsonl")


def _no_valid_dialogues(path, skipped: int) -> ValueError:
    return ValueError(f"no valid dialogues in {path} ({skipped} skipped)")


class CorpusReader:
    """A corpus read one dialogue at a time, in ``dialogue_id`` order.

    A plain JSONL file is indexed in one pass that keeps only each
    record's ``dialogue_id`` and byte offset; a dialogue is parsed when it
    is read.  Of the records of one id, the first in read order that
    parses wins and every other one is skipped, as in ``load_corpus``;
    the records after the winner are never parsed.  A classic or
    schema-guided JSON file is one document, read whole by ``load_corpus``.
    The file stays open until the reader is closed.
    """

    def __init__(self, path: str | Path, format: CorpusFormat | None = None):
        self.path = path
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(f"corpus file not found: {path}")
        self._file: BinaryIO | None = None
        self._last: tuple[str | None, AnnotatedDialogue | None] = (None, None)
        if not _is_plain(p, format):
            result = load_corpus(p, format)
            self._whole = {d.dialogue_id: d for d in result.dialogues}
            self.ids = sorted(self._whole)
            self._records = result.skipped + len(result.dialogues)
            return
        # each id's first offset, and the offsets of its later records
        first: dict[str, int] = {}
        later: dict[str, list[int]] = {}
        self._records = 0
        for offset, line in _lines(p):
            if not line.strip():
                continue
            self._records += 1
            try:
                dialogue_id = str(json.loads(line)["dialogue_id"])
            except _MALFORMED:
                continue  # no read could parse it: skipped
            if first.setdefault(dialogue_id, offset) != offset:
                later.setdefault(dialogue_id, []).append(offset)
        self._first, self._later = first, later
        self.ids = sorted(first)
        self._file = _read_only(p)

    def read(self, dialogue_id: str) -> AnnotatedDialogue | None:
        """The dialogue of ``dialogue_id``, or None if no record of that id
        parses.  The last dialogue read is kept, so reading it again is free."""
        last_id, last = self._last
        if dialogue_id == last_id:
            return last
        if self._file is None:
            dialogue = self._whole.get(dialogue_id)
        else:
            dialogue = self._parse(dialogue_id)
        self._last = (dialogue_id, dialogue)
        return dialogue

    def _parse(self, dialogue_id: str) -> AnnotatedDialogue | None:
        first = self._first.get(dialogue_id)
        offsets = () if first is None else (first, *self._later.get(dialogue_id, ()))
        for offset in offsets:
            self._file.seek(offset)
            try:
                return _plain_dialogue(self._file.readline().decode("utf-8"))
            except _MALFORMED:
                continue
        return None

    def dialogues(self) -> Iterator[AnnotatedDialogue]:
        """Yield every dialogue that parses, in ``dialogue_id`` order, and
        set ``skipped`` once the last is yielded.  Zero dialogues is an error."""
        valid = 0
        for dialogue_id in self.ids:
            dialogue = self.read(dialogue_id)
            if dialogue is not None:
                valid += 1
                yield dialogue
        self.skipped = self._records - valid
        if not valid:
            raise self.no_valid_dialogues()

    def no_valid_dialogues(self) -> ValueError:
        """The error for a corpus none of whose records parses."""
        return _no_valid_dialogues(self.path, self._records)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def __enter__(self) -> "CorpusReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextlib.contextmanager
def atomic_writer(path: str | Path):
    """Open a UTF-8 text file that replaces ``path`` only when the block
    completes, so an aborted write never leaves a truncated file.

    The text goes to a uniquely named temp file in the target's directory,
    then ``os.replace`` moves it over ``path``.  If the block raises, the
    temp file is removed and ``path`` keeps its previous content.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _json_line(rec: dict) -> str:
    return json.dumps(rec, ensure_ascii=False) + "\n"


def write_json_lines(path: str | Path, records: Iterable[dict]) -> None:
    """Write each record as one UTF-8 JSON line, non-ASCII unescaped (the
    mirror of ``read_json_lines``); the file is replaced once all are written."""
    with atomic_writer(path) as f:
        for rec in records:
            f.write(_json_line(rec))


def _corpus_record(d: AnnotatedDialogue) -> dict:
    rec: dict = {
        "dialogue_id": d.dialogue_id,
        "turns": [{"speaker": t.speaker.value, "text": t.text} for t in d.turns],
    }
    if d.gold_states is not None:
        rec["gold"] = [state_to_jsonable(s) for s in d.gold_states]
    return rec


def write_corpus(path: str | Path, dialogues: Iterable[AnnotatedDialogue]) -> None:
    """Write dialogues in the plain JSONL schema (the normal form)."""
    write_json_lines(path, map(_corpus_record, dialogues))


META_KEY = "record_type"
_PARSE_FAILURE = DiagnosticKind.PARSE_FAILURE.value


def write_predictions(
    path: str | Path, records: Iterable[dict], meta: dict | None = None
) -> None:
    """Write prediction records as UTF-8 JSONL, one per user turn.

    When given, ``meta`` (run config, version) becomes a first line tagged
    record_type=meta so downstream readers can separate it from data.
    The file is replaced only once every record is written.
    """
    write_json_lines(path, itertools.chain(_meta_head(meta), records))


def _meta_head(meta: dict | None) -> list[dict]:
    return [] if meta is None else [{META_KEY: "meta", **meta}]


class PredictionsSpool:
    """Prediction records held until the meta line that heads their file
    is known, so that no list of them is kept.

    The records go to an anonymous temp file in the target's directory,
    made when the first record is written.  It has no name, so even a
    killed run leaves nothing behind.  ``commit`` writes the target
    through ``atomic_writer``: the meta line, then the records, the bytes
    ``write_predictions`` would write.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.count = 0
        self._file = None

    def write(self, rec: dict) -> None:
        if self._file is None:
            self._file = tempfile.TemporaryFile(
                "w+", encoding="utf-8", newline="", dir=self.path.parent
            )
        self._file.write(_json_line(rec))
        self.count += 1

    def commit(self, meta: dict | None = None) -> None:
        with atomic_writer(self.path) as f:
            for rec in _meta_head(meta):
                f.write(_json_line(rec))
            if self._file is not None:
                self._file.seek(0)
                shutil.copyfileobj(self._file, f)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def __enter__(self) -> "PredictionsSpool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _json_object(text: str) -> dict:
    """The JSON object in ``text``; anything else raises an unlocated
    ``ValueError``, which the caller locates."""
    rec = json.loads(text)
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    return rec


def read_json_object(path: str | Path) -> dict:
    """The JSON object in a file; anything else is a ``ValueError``."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return _json_object(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_only(path: str | Path) -> BinaryIO:
    """``path`` opened to read bytes: the one file the package opens
    outside ``atomic_writer``."""
    return open(path, "rb")


# bytes decoded at a time when a file is checked to be UTF-8
_CHECK_CHUNK = 1 << 16


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (byte offset, text) for each line of a UTF-8 file, read one
    line at a time and split only at "\n"; "\r\n" leaves a "\r", which
    JSON reads as whitespace.

    A file that is not UTF-8 raises the whole-file decoder's error, naming
    the byte's position in the file, before any line is yielded.
    """
    with _read_only(path) as f:
        decoder = codecs.getincrementaldecoder("utf-8")()
        try:
            for chunk in iter(functools.partial(f.read, _CHECK_CHUNK), b""):
                decoder.decode(chunk)
            decoder.decode(b"", final=True)
        except UnicodeDecodeError:
            Path(path).read_text(encoding="utf-8")  # raises, placed in the file
            raise
        f.seek(0)
        offset = 0
        for raw in f:
            yield offset, raw.decode("utf-8")
            offset += len(raw)


def read_json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line of a JSONL file;
    a line that is not a JSON object raises ``ValueError`` naming the file
    and the line."""
    for lineno, (_, line) in enumerate(_lines(path), start=1):
        if line.strip():
            try:
                rec = _json_object(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            yield lineno, rec


def read_predictions(path: str | Path) -> tuple[list[dict], dict | None]:
    """Read a predictions JSONL file back as (raw records, meta or None)."""
    records: list[dict] = []
    meta: dict | None = None
    for _, rec in read_json_lines(path):
        if rec.get(META_KEY) == "meta":
            meta = {k: v for k, v in rec.items() if k != META_KEY}
        else:
            records.append(rec)
    return records, meta


@dataclass(frozen=True)
class Prediction:
    """A checked predictions record: the state after a dialogue's ``turn``."""

    dialogue_id: str
    turn: int
    state: DialogueState
    parse_failed: bool


def prediction_record(
    dialogue_id: str, turn: int, state: DialogueState, diagnostics: Iterable[Diagnostic]
) -> dict:
    """The predictions-file record of one tracked user turn."""
    return {
        "dialogue_id": dialogue_id,
        "turn": turn,
        "predicted_state": state_to_jsonable(state),
        "diagnostics": [
            {"kind": d.kind.value, "detail": d.detail} for d in diagnostics
        ],
    }


# Turns below this are held as bits of one int per dialogue in ``TurnKeys``.
_MASK_TURNS = 1024


class TurnKeys:
    """A set of (dialogue_id, turn) keys.  Each dialogue's turns in
    [0, 1024) are the bits of one int, so a corpus's worth of keys costs
    about one small int per dialogue; any other turn goes to a plain set."""

    def __init__(self):
        self._masks: dict[str, int] = {}
        self._others: set[tuple[str, int]] = set()

    def __contains__(self, key: tuple[str, int]) -> bool:
        dialogue_id, turn = key
        if 0 <= turn < _MASK_TURNS:
            return bool(self._masks.get(dialogue_id, 0) >> turn & 1)
        return key in self._others

    def add(self, key: tuple[str, int]) -> None:
        dialogue_id, turn = key
        if 0 <= turn < _MASK_TURNS:
            self._masks[dialogue_id] = self._masks.get(dialogue_id, 0) | 1 << turn
        else:
            self._others.add(key)


def iter_predictions(path: str | Path, seen: TurnKeys | None = None) -> Iterator[Prediction]:
    """Read a predictions file one record at a time and check every
    record, in file order; ``seen`` collects the records' keys.

    After an optional meta line, each record is one tracked user turn:
        {"dialogue_id": str, "turn": int (not a bool; user turns from 0),
         "predicted_state": [{"domain": str, "slot": str, "value": str}, ...],
         "diagnostics": optional [{"kind": str, "detail": str}, ...]}
    and no two records share a (dialogue_id, turn).  A record that breaks
    a rule raises ``ValueError`` naming the file, the record (counted from
    1, meta line excluded) and the field.  A line that is not a JSON
    object is named ahead of any such record, wherever it is in the file.
    """
    seen = TurnKeys() if seen is None else seen
    lines = read_json_lines(path)
    number = 0
    for _, rec in lines:
        if rec.get(META_KEY) == "meta":
            continue
        number += 1
        try:
            prediction = _prediction(rec, seen)
        except ValueError as exc:
            for _ in lines:
                pass  # raises at a later line that is not a JSON object
            raise ValueError(f"{path}: prediction record {number}: {exc}") from exc
        yield prediction


def _prediction(rec: dict, seen: TurnKeys) -> Prediction:
    """One checked predictions record, its key added to ``seen``; a broken
    rule raises ``ValueError`` naming the field, which the caller locates."""
    for field in ("dialogue_id", "turn", "predicted_state"):
        if field not in rec:
            raise ValueError(f"no {field!r} key")
    key = dialogue_id, turn = rec["dialogue_id"], rec["turn"]
    if not isinstance(dialogue_id, str):
        raise ValueError(f"dialogue_id must be str, got {dialogue_id!r}")
    if type(turn) is not int:
        raise ValueError(f"turn must be int, got {turn!r}")
    if key in seen:
        raise ValueError(f"duplicate (dialogue_id, turn) {key}")
    seen.add(key)
    try:
        state = state_from_jsonable(rec["predicted_state"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed predicted_state: {exc!r}") from exc
    diagnostics = rec.get("diagnostics", [])
    if not isinstance(diagnostics, list) or not all(
        isinstance(d, dict) and "kind" in d for d in diagnostics
    ):
        raise ValueError(f"malformed diagnostics: {diagnostics!r}")
    parse_failed = any(d["kind"] == _PARSE_FAILURE for d in diagnostics)
    return Prediction(dialogue_id, turn, state, parse_failed)


def fixture_corpus_path() -> Path:
    """Bundled synthetic corpus: 20 dialogues, 3 domains, gold states."""
    return _FIXTURES / "corpus.jsonl"


def fixture_keywords_path() -> Path:
    """Keyword table driving the rule-mock backend over the fixture corpus."""
    return _FIXTURES / "keywords.json"


def fixture_replay_path() -> Path:
    """Recorded completions for the fixture corpus (default prompt settings)."""
    return _FIXTURES / "replay.jsonl"


def fixture_error_cases_path() -> Path:
    """Labelled wrong-prediction cases for the error taxonomy."""
    return _FIXTURES / "error_cases.json"
