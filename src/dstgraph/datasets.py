"""Corpus loading, prediction persistence, bundled fixtures.

Three corpus shapes normalize to AnnotatedDialogue: a plain JSONL schema
(documented below), classic goal-oriented JSON with per-system-turn belief
metadata, and schema-guided JSON with per-frame slot_values.  Each shape
has one parser that turns one record (a JSONL line, an (id, object) entry,
a list element) into one dialogue.  ``CorpusReader``, the one corpus
reader, runs it under one skip rule: a record that is malformed at any
depth, or that follows the first record of its id to parse, is counted
instead of crashing, because corpus files in the wild are messy.  A file
of the wrong shape is an error that names the file.  Every format is read
one dialogue at a time in ``dialogue_id`` order; ``load_corpus`` is the
list form of that reader.

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
    by_key = {}
    for item in items:
        t = state_triple(item["domain"], item["slot"], item["value"])
        by_key[t.domain, t.slot] = t  # latest wins, as DialogueState(...)
    return DialogueState.from_keyed(by_key)


# an unknown speaker is a KeyError, which the skip rule counts
_SPEAKERS = {s.value: s for s in Speaker}

# A record that raises one of these is malformed: the skip rule counts it.
# AttributeError: a list or a string where an object belongs.
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError)


_RAW_DECODE = json.JSONDecoder().raw_decode
# what may follow a value for json.loads to read the text as that value
_LINE_ENDS = ("\n", "\r\n", "")


def _json_value(text: str):
    """``json.loads(text)``.  A text that is one value and a line end is
    read by the decoder's ``raw_decode`` alone, at half the cost; any
    other goes to ``json.loads``, which reads a value padded with
    whitespace or raises its own error."""
    try:
        value, end = _RAW_DECODE(text)
        if text[end:] in _LINE_ENDS:
            return value
    except json.JSONDecodeError:
        pass
    return json.loads(text)


def _plain_dialogue(line: str) -> AnnotatedDialogue:
    """One line of the plain JSONL schema."""
    rec = _json_value(line)
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


def _dialogue_id(rec) -> str | None:
    """The dialogue_id of a decoded record, or None if it has none."""
    try:
        return str(rec["dialogue_id"])
    except _MALFORMED:
        return None


def _plain_ids(path: Path) -> Iterator[tuple[str | None, int]]:
    """(dialogue_id or None, byte offset) of each record of a plain JSONL file."""
    for offset, line in _lines(path):
        if line.strip():
            try:
                rec = _json_value(line)
            except ValueError:
                rec = None  # not JSON
            yield _dialogue_id(rec), offset


def _plain_at(file: BinaryIO, offset: int) -> AnnotatedDialogue:
    """The plain JSONL record at ``offset`` of ``file``."""
    file.seek(offset)
    return _plain_dialogue(file.readline().decode("utf-8"))


def _json_entries(path: str | Path, format: CorpusFormat | None):
    """The parser of a classic or schema-guided JSON document, decoded
    whole, and its (dialogue_id or None, raw entry) pairs in file order.
    A document of the wrong shape raises ``ValueError`` naming the file.

    Without a ``format``, an object is read as the classic format, a list
    as the schema-guided one.
    """
    last = deque(maxlen=1)  # the (key, value) pairs of the object decoded last
    text = Path(path).read_text(encoding="utf-8")
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
            raise ValueError(f"{path}: expected a dialogue_id -> dialogue object mapping")
        # the outermost object is decoded last: its entries in file order,
        # a repeated id too, which the decoded dict keeps only once
        return _multiwoz_dialogue, [(kv[0], kv) for kv in last[0]]
    if format is CorpusFormat.SGD_JSON:
        if not isinstance(raw, list):
            raise ValueError(f"{path}: expected a list of dialogue objects")
        return _sgd_dialogue, [(_dialogue_id(rec), rec) for rec in raw]
    raise ValueError(f"unrecognized corpus shape in {path}")


class CorpusReader:
    """A corpus read one dialogue at a time, in ``dialogue_id`` order: the
    one reader of every corpus format, under the one skip rule.

    Opening the reader indexes the file's records by ``dialogue_id``.  A
    plain JSONL file is indexed in one pass that keeps only each record's
    id and byte offset, and a dialogue is parsed when it is read; the file
    stays open until the reader is closed.  Without a ``format``, a
    ``.jsonl`` file is plain JSONL and any other file one JSON document,
    decoded whole, whose raw entries the index keeps.

    The skip rule: a malformed record is counted, not fatal.  Of the
    records of one id, the first in file order that parses wins and every
    other one is skipped; the records after the winner are never parsed.
    Zero valid dialogues is an error, as is a file that is missing or a
    document of the wrong shape.
    """

    def __init__(self, path: str | Path, format: CorpusFormat | None = None):
        self.path = path
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(f"corpus file not found: {path}")
        self._file: BinaryIO | None = None
        self._last: tuple[str | None, AnnotatedDialogue | None] = (None, None)
        plain = format is CorpusFormat.PLAIN_JSONL or (format is None and p.suffix == ".jsonl")
        if plain:
            records = _plain_ids(p)
        else:
            self._parse, records = _json_entries(path, format)
        # each id's first record locator (a byte offset or a raw entry),
        # and the locators of its later records
        first: dict[str, object] = {}
        later: dict[str, list] = {}
        self._records = 0
        for dialogue_id, locator in records:
            self._records += 1
            if dialogue_id is None:
                continue  # no read could parse it: skipped
            if dialogue_id in first:
                later.setdefault(dialogue_id, []).append(locator)
            else:
                first[dialogue_id] = locator
        self._first, self._later = first, later
        self.ids = sorted(first)
        if plain:
            self._file = _read_only(p)
            self._parse = functools.partial(_plain_at, self._file)

    def read(self, dialogue_id: str) -> AnnotatedDialogue | None:
        """The dialogue of ``dialogue_id``, or None if no record of that id
        parses.  The last dialogue read is kept, so reading it again is free."""
        if dialogue_id != self._last[0]:
            self._last = (dialogue_id, self._first_parsed(dialogue_id))
        return self._last[1]

    def _first_parsed(self, dialogue_id: str) -> AnnotatedDialogue | None:
        """The first record of ``dialogue_id`` that parses, or None."""
        if dialogue_id not in self._first:
            return None
        for locator in (self._first[dialogue_id], *self._later.get(dialogue_id, ())):
            try:
                return self._parse(locator)
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
        return ValueError(f"no valid dialogues in {self.path} ({self._records} skipped)")

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def __enter__(self) -> "CorpusReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_corpus(path: str | Path, format: CorpusFormat | None = None) -> LoadResult:
    """A whole corpus at once: the dialogues a ``CorpusReader`` reads, in
    ``dialogue_id`` order, and the count of records it skipped."""
    with CorpusReader(path, format) as reader:
        return LoadResult(dialogues=tuple(reader.dialogues()), skipped=reader.skipped)


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
        f = open(tmp, "x", encoding="utf-8")
    except FileNotFoundError as exc:
        raise _missing_directory(path, exc) from None
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _missing_directory(path: Path, exc: FileNotFoundError) -> FileNotFoundError:
    """The error of a temp file that could not be made beside ``path``,
    naming the directory it needed rather than the temp file."""
    return FileNotFoundError(exc.errno, exc.strerror, str(path.parent))


# json.dumps(rec, ensure_ascii=False) without a new encoder for each record
_ENCODE = json.JSONEncoder(ensure_ascii=False).encode


def json_line(rec: dict) -> str:
    """One record as a line of a JSON Lines file, non-ASCII unescaped."""
    return _ENCODE(rec) + "\n"


def write_json_lines(path: str | Path, records: Iterable[dict]) -> None:
    """Write each record as one UTF-8 JSON line, non-ASCII unescaped (the
    mirror of ``read_json_lines``); the file is replaced once all are written."""
    with atomic_writer(path) as f:
        f.writelines(map(json_line, records))


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


class PredictionsSpool:
    """Prediction records held until the meta line that heads their file
    is known, so that no list of them is kept.

    The records go to an anonymous temp file in the target's directory,
    made when the first record is written.  It has no name, so even a
    killed run leaves nothing behind.  ``commit`` writes the target
    through ``atomic_writer``: the meta line, tagged record_type=meta so
    that readers can tell it from the records, then the records.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.count = 0
        self._file = None

    def write(self, rec: dict) -> None:
        if self._file is None:
            try:
                self._file = tempfile.TemporaryFile(
                    "w+", encoding="utf-8", newline="", dir=self.path.parent
                )
            except FileNotFoundError as exc:
                raise _missing_directory(self.path, exc) from None
        self._file.write(json_line(rec))
        self.count += 1

    def commit(self, meta: dict) -> None:
        with atomic_writer(self.path) as f:
            f.write(json_line({META_KEY: "meta", **meta}))
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
    rec = _json_value(text)
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


@contextlib.contextmanager
def _utf8_file(path: str | Path) -> Iterator[BinaryIO]:
    """``path`` opened to read bytes, at its start, once the whole file is
    checked to be UTF-8; its lines split only at "\n".

    A file that is not UTF-8 raises the whole-file decoder's error, naming
    the byte's position in the file, before the block is entered: so a
    reader of its lines raises before it yields any.  The check costs
    little next to decoding the lines' JSON.
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
        yield f


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (byte offset, text) for each line of a UTF-8 file, read one
    line at a time; "\r\n" leaves a "\r", which JSON reads as whitespace."""
    with _utf8_file(path) as f:
        offset = 0
        for raw in f:
            yield offset, raw.decode("utf-8")
            offset += len(raw)


def read_json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line of a JSONL file;
    a line that is not a JSON object raises ``ValueError`` naming the file
    and the line.  The lines are read as ``_lines`` reads them."""
    with _utf8_file(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.decode("utf-8")
            # a line read from a file is never empty: blank is all whitespace
            if not line.isspace():
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

    # written out: the instance dict takes each field for half the cost
    # of the generated frozen __init__'s object.__setattr__ calls
    def __init__(self, dialogue_id: str, turn: int, state: DialogueState, parse_failed: bool):
        fields = self.__dict__
        fields["dialogue_id"] = dialogue_id
        fields["turn"] = turn
        fields["state"] = state
        fields["parse_failed"] = parse_failed


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

    def add(self, key: tuple[str, int]) -> bool:
        """Add ``key``; False if it was already in the set."""
        dialogue_id, turn = key
        if 0 <= turn < _MASK_TURNS:
            mask = self._masks.get(dialogue_id, 0)
            self._masks[dialogue_id] = mask | 1 << turn
            return not mask >> turn & 1
        if key in self._others:
            return False
        self._others.add(key)
        return True


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
    try:  # the first of the three keys missing is named
        key = dialogue_id, turn = rec["dialogue_id"], rec["turn"]
        items = rec["predicted_state"]
    except KeyError as exc:
        raise ValueError(f"no {exc.args[0]!r} key") from None
    if not isinstance(dialogue_id, str):
        raise ValueError(f"dialogue_id must be str, got {dialogue_id!r}")
    if type(turn) is not int:
        raise ValueError(f"turn must be int, got {turn!r}")
    if not seen.add(key):
        raise ValueError(f"duplicate (dialogue_id, turn) {key}")
    try:
        state = state_from_jsonable(items)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed predicted_state: {exc!r}") from exc
    diagnostics = rec.get("diagnostics", [])
    if not isinstance(diagnostics, list):
        raise ValueError(f"malformed diagnostics: {diagnostics!r}")
    parse_failed = False
    for d in diagnostics:
        if not isinstance(d, dict) or "kind" not in d:
            raise ValueError(f"malformed diagnostics: {diagnostics!r}")
        parse_failed = parse_failed or d["kind"] == _PARSE_FAILURE
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
