"""Completion backends: a chat-completions HTTP client plus two
deterministic offline stand-ins (replay fixtures and a keyword-rule mock).

Replay and RuleMock make the whole pipeline runnable with no network and
bit-identical across process restarts, which the golden-file tests rely on.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .datasets import read_json_lines, read_json_object
from .dialogue import DialogueState, normalize_text, normalize_uncached, state_triple
from .parsing import format_state


class BackendError(Exception):
    """Base class for completion failures; maps to the backend exit code."""


class ReplayMiss(BackendError):
    def __init__(self, prompt_hash: str):
        super().__init__(f"no recorded completion for prompt hash {prompt_hash}")
        self.prompt_hash = prompt_hash


class MalformedResponse(BackendError):
    pass


class RequestFailed(BackendError):
    """Transport failure or retry budget exhausted."""


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.0
    max_tokens: int = 256
    model_name: str = ""
    timeout: float = 30.0
    retries: int = 2

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


def prompt_hash(prompt: str) -> str:
    """Stable fixture key: SHA-256 of the UTF-8 prompt."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


TOKEN_ENV_VAR = "DSTGRAPH_API_TOKEN"


class HttpBackend:
    """Client for a chat-completions wire-protocol endpoint.

    The bearer token comes from the environment only (never a CLI flag).
    Transient failures (connection errors, HTTP 429/5xx) retry with
    exponential backoff up to ``params.retries`` extra attempts.

    One backend may serve several threads: each thread posts through its
    own ``requests.Session``, unless a ``session`` is injected, which
    every thread then shares.
    """

    def __init__(
        self,
        base_url: str,
        sleep: Callable[[float], None] = time.sleep,
        session=None,
    ):
        if not base_url:
            raise ValueError("base_url must be non-empty")
        self.base_url = base_url.rstrip("/")
        self._sleep = sleep
        self._session = session
        self._local = threading.local()

    def _thread_session(self):
        if self._session is not None:
            return self._session
        session = getattr(self._local, "session", None)
        if session is None:
            import requests

            session = self._local.session = requests.Session()
        return session

    def complete(self, prompt: str, params: GenerationParams) -> str:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV_VAR)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = {
            "model": params.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        url = f"{self.base_url}/chat/completions"

        session = self._thread_session()
        last_error: Exception | None = None
        for attempt in range(params.retries + 1):
            if attempt:
                self._sleep(0.5 * 2 ** (attempt - 1))
            try:
                resp = session.post(
                    url, json=body, headers=headers, timeout=params.timeout
                )
            except OSError as exc:  # connection errors, timeouts
                last_error = exc
                continue
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = RequestFailed(f"HTTP {resp.status_code} from {url}")
                continue
            if resp.status_code != 200:
                raise RequestFailed(f"HTTP {resp.status_code} from {url}")
            try:
                payload = resp.json()
                content = payload["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise MalformedResponse(f"completion field missing: {exc}") from exc
            if not isinstance(content, str):
                raise MalformedResponse("completion content is not a string")
            return content
        raise RequestFailed(
            f"gave up after {params.retries + 1} attempts: {last_error}"
        ) from last_error


class ReplayBackend:
    """Read-only completions keyed by prompt hash, from a JSONL file of
    {prompt_hash, completion} strings that ``tools/make_fixtures.py``
    records; the latest record for a hash wins, and a missing file raises
    ``FileNotFoundError``."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._completions: dict[str, str] = {}
        for lineno, rec in read_json_lines(self.path):
            key, completion = rec.get("prompt_hash"), rec.get("completion")
            if not isinstance(key, str) or not isinstance(completion, str):
                raise ValueError(
                    f"{self.path}:{lineno}: a replay record needs string "
                    f"'prompt_hash' and 'completion', got {rec!r}"
                )
            self._completions[key] = completion

    def complete(self, prompt: str, params: GenerationParams) -> str:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        key = prompt_hash(prompt)
        if key not in self._completions:
            raise ReplayMiss(key)
        return self._completions[key]


_INPUT_MARKER = "Input:"
_RESPONSE_MARKER = "Response:"


def live_input_section(prompt: str) -> str:
    """The text of the prompt's final Input block, exemplars excluded."""
    start = prompt.rfind(_INPUT_MARKER)
    if start < 0:
        return prompt
    section = prompt[start + len(_INPUT_MARKER) :]
    end = section.rfind(_RESPONSE_MARKER)
    if end >= 0:
        section = section[:end]
    return section


def _keyword_trie(words: list[str]) -> str:
    """Regex for a sorted list of distinct words, read as a radix trie.

    Siblings start with distinct characters, and a word that ends inside
    the trie makes the rest of its branch an optional greedy tail, so at
    a given position the regex matches the longest listed word.  The
    empty string in ``words`` marks a word ending at this node.
    """
    terminal = bool(words) and words[0] == ""
    rest = words[1:] if terminal else words
    branches = []
    for _, group in itertools.groupby(rest, key=lambda w: w[0]):
        group = list(group)
        prefix = os.path.commonprefix([group[0], group[-1]])
        tail = _keyword_trie([w[len(prefix) :] for w in group])
        branches.append(re.escape(prefix) + tail)
    if not branches:
        return ""
    body = "|".join(branches)
    if terminal:
        return f"(?:{body})?"
    return body if len(branches) == 1 else f"(?:{body})"


class RuleMockBackend:
    """Deterministic completions from a keyword table.

    The normalized table is compiled once into a single scan that, in one
    pass over the live input section, finds the longest keyword starting
    at each position; every keyword's first occurrence is recorded, so
    overlapping keywords ("museum" inside "whipple museum") each keep
    their own position.  The matched triples are emitted in canonical
    completion format, ordered by first occurrence so a later mention
    overrides an earlier value for the same (domain, slot) key.
    """

    def __init__(self, keyword_table: dict[str, tuple[str, str, str]]):
        if not keyword_table:
            raise ValueError("keyword table must be non-empty")
        self._table = {
            normalize_text(k): (str(d), str(s), str(v))
            for k, (d, s, v) in keyword_table.items()
        }
        if "" in self._table:
            raise ValueError("keywords must be non-empty after normalization")
        words = sorted(self._table)
        # each keyword with the shorter keywords it starts with: in sorted
        # order, a keyword's prefixes are exactly the stack below it
        self._same_start: dict[str, tuple[str, ...]] = {}
        stack: list[str] = []
        for w in words:
            while stack and not w.startswith(stack[-1]):
                stack.pop()
            stack.append(w)
            self._same_start[w] = tuple(stack)
        self._scan = re.compile(f"(?=({_keyword_trie(words)}))")

    @classmethod
    def from_json(cls, path: str | Path) -> "RuleMockBackend":
        """Load {keyword: {domain, slot, value}} from a JSON file; a
        malformed file raises ``ValueError`` naming it and the keyword."""
        table = {}
        for keyword, rec in read_json_object(path).items():
            try:
                table[keyword] = (rec["domain"], rec["slot"], rec["value"])
            except (KeyError, TypeError):
                raise ValueError(
                    f"{path}: keyword {keyword!r} needs an object with "
                    f"'domain', 'slot' and 'value', got {rec!r}"
                ) from None
        return cls(table)

    def complete(self, prompt: str, params: GenerationParams) -> str:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        text = normalize_uncached(live_input_section(prompt))
        first: dict[str, int] = {}
        for m in self._scan.finditer(text):
            longest = m.group(1)
            # a keyword seen before had all its same-start keywords seen
            # at that earlier position too
            if longest in first:
                continue
            pos = m.start()
            for keyword in self._same_start[longest]:
                first.setdefault(keyword, pos)
        hits = sorted((pos, k, self._table[k]) for k, pos in first.items())
        triples = [state_triple(d, s, v) for _, _, (d, s, v) in hits]
        return format_state(DialogueState(triples))
