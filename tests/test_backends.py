import json
import threading

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dstgraph import backends
from dstgraph.backends import (
    GenerationParams,
    HttpBackend,
    MalformedResponse,
    ReplayBackend,
    ReplayMiss,
    RequestFailed,
    RuleMockBackend,
    TOKEN_ENV_VAR,
    live_input_section,
    prompt_hash,
)
from dstgraph.datasets import write_json_lines
from dstgraph.dialogue import DialogueState, StateTriple, normalize_text
from dstgraph.parsing import format_state

from conftest import FakeResponse, completion_payload


PARAMS = GenerationParams()


class FakeSession:
    """Scripted transport: pops one canned response (or exception) per post."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def http_backend(script, **kw):
    sleeps = []
    backend = HttpBackend(
        "https://api.example.test/v1",
        sleep=sleeps.append,
        session=FakeSession(script),
        **kw,
    )
    return backend, sleeps


# --- generation parameters ---


def test_generation_params_defaults_and_validation():
    p = GenerationParams()
    assert p.temperature == 0.0
    assert p.max_tokens == 256
    for bad in (
        dict(temperature=-0.1),
        dict(max_tokens=0),
        dict(timeout=0),
        dict(retries=-1),
        dict(temperature=float("nan")),
        dict(temperature=float("inf")),
        dict(timeout=float("nan")),
        dict(timeout=float("inf")),
    ):
        with pytest.raises(ValueError):
            GenerationParams(**bad)


def test_prompt_hash_is_sha256_of_utf8():
    import hashlib

    text = "Track the state. café"
    assert prompt_hash(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert prompt_hash(text) != prompt_hash(text + " ")


# --- HTTP client ---


def test_http_success_posts_chat_completions_shape(monkeypatch):
    monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
    backend, sleeps = http_backend([FakeResponse(200, completion_payload("ok"))])
    got = backend.complete("a prompt", GenerationParams(model_name="m1"))
    assert got == "ok"
    assert sleeps == []
    call = backend._session.calls[0]
    assert call["url"] == "https://api.example.test/v1/chat/completions"
    assert call["json"]["model"] == "m1"
    assert call["json"]["messages"] == [{"role": "user", "content": "a prompt"}]
    assert "Authorization" not in call["headers"]


def test_http_token_only_from_environment(monkeypatch):
    monkeypatch.setenv(TOKEN_ENV_VAR, "sk-test-123")
    backend, _ = http_backend([FakeResponse(200, completion_payload("ok"))])
    backend.complete("p", PARAMS)
    headers = backend._session.calls[0]["headers"]
    assert headers["Authorization"] == "Bearer sk-test-123"


def test_http_retries_on_429_and_5xx_with_backoff(monkeypatch):
    monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
    backend, sleeps = http_backend(
        [
            FakeResponse(429),
            FakeResponse(503),
            FakeResponse(200, completion_payload("eventually")),
        ]
    )
    assert backend.complete("p", GenerationParams(retries=2)) == "eventually"
    assert sleeps == [0.5, 1.0]  # exponential backoff between attempts


def test_http_retries_on_connection_error(monkeypatch):
    monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
    backend, _ = http_backend(
        [OSError("refused"), FakeResponse(200, completion_payload("ok"))]
    )
    assert backend.complete("p", GenerationParams(retries=1)) == "ok"


def test_http_does_not_retry_programming_errors(monkeypatch):
    monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
    backend, sleeps = http_backend(
        [TypeError("bad call"), FakeResponse(200, completion_payload("ok"))]
    )
    with pytest.raises(TypeError):
        backend.complete("p", GenerationParams(retries=3))
    assert len(backend._session.calls) == 1
    assert sleeps == []


def test_http_gives_up_after_retry_budget(monkeypatch):
    monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
    backend, sleeps = http_backend([FakeResponse(500)] * 3)
    with pytest.raises(RequestFailed):
        backend.complete("p", GenerationParams(retries=2))
    assert len(backend._session.calls) == 3
    assert len(sleeps) == 2


def test_http_client_error_fails_immediately(monkeypatch):
    monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
    backend, _ = http_backend([FakeResponse(404)])
    with pytest.raises(RequestFailed):
        backend.complete("p", GenerationParams(retries=5))
    assert len(backend._session.calls) == 1  # 4xx (except 429) is not transient


def test_http_malformed_payloads(monkeypatch):
    monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
    for payload in (
        None,  # non-JSON body
        {"choices": []},
        {"choices": [{"message": {}}]},
        {"choices": [{"message": {"content": 42}}]},
    ):
        backend, _ = http_backend([FakeResponse(200, payload)])
        with pytest.raises(MalformedResponse):
            backend.complete("p", PARAMS)


def test_http_threads_post_through_their_own_sessions(monkeypatch):
    made = []

    class RecordingSession:
        def __init__(self):
            self.threads = set()
            self.closed = 0
            made.append(self)

        def post(self, url, json=None, headers=None, timeout=None):
            self.threads.add(threading.get_ident())
            return FakeResponse(200, completion_payload("ok"))

        def close(self):
            self.closed += 1

    monkeypatch.setattr(backends, "KeepAliveClient", RecordingSession)
    backend = HttpBackend("https://api.example.test/v1")
    both_running = threading.Barrier(2)

    def work():
        both_running.wait(timeout=10)
        for _ in range(3):
            assert backend.complete("p", PARAMS) == "ok"

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert len(made) == 2  # one session per thread, reused across its calls
    assert {len(s.threads) for s in made} == {1}
    assert made[0].threads != made[1].threads
    # the threads are gone, and close still reaches both of their clients
    backend.close()
    assert [s.closed for s in made] == [1, 1]


def test_http_rejects_empty_arguments():
    with pytest.raises(ValueError):
        HttpBackend("")
    backend, _ = http_backend([])
    with pytest.raises(ValueError):
        backend.complete("", PARAMS)


# --- replay fixtures ---


def replay_record(prompt: str, completion: str) -> dict:
    return {"prompt_hash": prompt_hash(prompt), "completion": completion}


def test_replay_complete_and_miss(tmp_path):
    path = tmp_path / "replay.jsonl"
    write_json_lines(path, [replay_record("prompt one", "completion one")])
    backend = ReplayBackend(path)
    assert backend.complete("prompt one", PARAMS) == "completion one"
    with pytest.raises(ReplayMiss) as exc_info:
        backend.complete("never recorded", PARAMS)
    assert exc_info.value.prompt_hash == prompt_hash("never recorded")


def test_replay_latest_record_wins(tmp_path):
    path = tmp_path / "replay.jsonl"
    write_json_lines(path, [replay_record("p", "old"), replay_record("p", "new")])
    # the file keeps both records, and loading resolves to the latest
    assert len(path.read_text().splitlines()) == 2
    assert ReplayBackend(path).complete("p", PARAMS) == "new"


def test_replay_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        ReplayBackend(tmp_path / "absent.jsonl")


def test_replay_skips_blank_lines(tmp_path):
    path = tmp_path / "replay.jsonl"
    rec = json.dumps({"prompt_hash": prompt_hash("p"), "completion": "c"})
    path.write_text(rec + "\n\n" + "\n", encoding="utf-8")
    assert ReplayBackend(path).complete("p", PARAMS) == "c"


# --- live input extraction ---


def test_live_input_section_takes_final_block():
    prompt = (
        "Instruction: track Input: exemplar text Response: the answer "
        "Instruction: track Input: [user] i want thai food Response:"
    )
    assert live_input_section(prompt) == " [user] i want thai food "


def test_live_input_section_without_markers_returns_whole_prompt():
    assert live_input_section("no markers here") == "no markers here"


# --- keyword-rule mock ---


TABLE = {
    "thai food": ("restaurant", "food", "thai"),
    "cheap": ("restaurant", "pricerange", "cheap"),
    "in the centre": ("restaurant", "area", "centre"),
    "Expensive": ("hotel", "pricerange", "expensive"),
}


def wrap(text):
    return f"Instruction: track the state Input: {text} Response:"


def test_rulemock_emits_canonical_bracketed_lists():
    backend = RuleMockBackend(TABLE)
    got = backend.complete(wrap("[user] somewhere cheap with thai food"), PARAMS)
    assert got == (
        "Domain : [`restaurant', `restaurant'] , "
        "Slot : [`food', `pricerange'] , "
        "Value : [`thai', `cheap']"
    )


def test_rulemock_latest_mention_wins_for_same_key():
    backend = RuleMockBackend(TABLE)
    got = backend.complete(wrap("cheap for now, actually Expensive"), PARAMS)
    # different domains, so both keys survive
    assert "`expensive'" in got and "`cheap'" in got
    backend2 = RuleMockBackend(
        {"cheap": ("restaurant", "pricerange", "cheap"),
         "moderately priced": ("restaurant", "pricerange", "moderate")}
    )
    got2 = backend2.complete(wrap("cheap... no wait, moderately priced"), PARAMS)
    assert got2 == "Domain : [`restaurant'] , Slot : [`pricerange'] , Value : [`moderate']"


def test_rulemock_matches_are_case_insensitive():
    backend = RuleMockBackend(TABLE)
    got = backend.complete(wrap("EXPENSIVE please"), PARAMS)
    assert "`expensive'" in got


def test_rulemock_scans_live_input_only():
    backend = RuleMockBackend(TABLE)
    prompt = (
        "Instruction: track Input: [user] thai food Response: "
        "Domain : [`restaurant'] , Slot : [`food'] , Value : [`thai'] "
        "Instruction: track Input: [user] just cheap Response:"
    )
    got = backend.complete(prompt, PARAMS)
    assert got == "Domain : [`restaurant'] , Slot : [`pricerange'] , Value : [`cheap']"


def test_rulemock_no_hits_gives_empty_lists():
    backend = RuleMockBackend(TABLE)
    assert (
        backend.complete(wrap("nothing relevant"), PARAMS)
        == "Domain : [] , Slot : [] , Value : []"
    )


def test_rulemock_from_json_round_trip(tmp_path):
    path = tmp_path / "kw.json"
    path.write_text(
        json.dumps(
            {"thai food": {"domain": "restaurant", "slot": "food", "value": "thai"}}
        ),
        encoding="utf-8",
    )
    backend = RuleMockBackend.from_json(path)
    got = backend.complete(wrap("thai food"), PARAMS)
    assert got == "Domain : [`restaurant'] , Slot : [`food'] , Value : [`thai']"


def test_rulemock_rejects_empty_table():
    with pytest.raises(ValueError):
        RuleMockBackend({})


@pytest.mark.parametrize("keyword", ["", "   ", "\t\n"])
def test_rulemock_rejects_empty_keyword(keyword):
    with pytest.raises(ValueError):
        RuleMockBackend({"cheap": ("restaurant", "pricerange", "cheap"),
                         keyword: ("restaurant", "area", "centre")})


def test_rulemock_reports_same_start_nested_and_literal_keywords():
    backend = RuleMockBackend(
        {
            "cam": ("a", "x", "cam"),
            "cambridge": ("a", "y", "cambridge"),
            "camel": ("a", "z", "camel"),
            "park": ("a", "x", "park"),
            "museum": ("b", "x", "museum"),
            "whipple museum": ("b", "y", "whipple"),
            "c++": ("c", "x", "plus"),
            "a.b": ("c", "y", "dot"),
        }
    )
    # "cam" keeps its first position, inside "cambridge", so "park" wins
    # (a, x); "museum" keeps its own position inside "whipple museum"
    got = backend.complete(
        wrap("the Whipple  Museum in Cambridge park, axb c++ camel"), PARAMS
    )
    assert got == (
        "Domain : [`a', `a', `a', `b', `b', `c'] , "
        "Slot : [`x', `y', `z', `x', `y', `x'] , "
        "Value : [`park', `cambridge', `camel', `museum', `whipple', `plus']"
    )


def reference_rulemock(table, prompt):
    """The scan the compiled one replaced: one ``str.find`` per keyword."""
    normalized = {
        normalize_text(k): (str(d), str(s), str(v)) for k, (d, s, v) in table.items()
    }
    text = normalize_text(live_input_section(prompt))
    hits = []
    for keyword, triple in normalized.items():
        pos = text.find(keyword)
        if pos >= 0:
            hits.append((pos, keyword, triple))
    hits.sort()
    triples = [StateTriple(domain=d, slot=s, value=v) for _, _, (d, s, v) in hits]
    return format_state(DialogueState(triples))


# regex metacharacters, case and whitespace variants, and characters whose
# case-folding changes the length ("ß" -> "ss", "İ" -> "i̇")
_KW_CHARS = "abAB .*+?[](){}|\\^$\tßẞſİ"


@st.composite
def keyword_scans(draw):
    base = draw(st.text(alphabet=_KW_CHARS, min_size=1, max_size=12))
    # slices of one string give nested, overlapping and same-start keywords
    bounds = st.integers(0, len(base))
    keys = [base] + [
        base[i:j] for i, j in draw(st.lists(st.tuples(bounds, bounds), max_size=8))
    ]
    keys += draw(st.lists(st.text(alphabet=_KW_CHARS, min_size=1, max_size=5), max_size=6))
    # spellings that collide after normalization
    keys += [k.swapcase() for k in keys[: draw(st.integers(0, 3))]]
    keys += [k.replace(" ", "  ") for k in keys[: draw(st.integers(0, 3))]]
    keys = [k for k in keys if normalize_text(k)]
    assume(keys)
    table = {
        k: (
            draw(st.sampled_from(["d", "e"])),
            draw(st.sampled_from(["s", "t"])),
            draw(st.text(alphabet="xyz", min_size=1, max_size=2)),
        )
        for k in keys
    }
    pieces = draw(
        st.lists(
            st.one_of(st.sampled_from(keys), st.text(alphabet=_KW_CHARS, max_size=4)),
            max_size=8,
        )
    )
    flips = draw(st.lists(st.booleans(), min_size=len(pieces), max_size=len(pieces)))
    text = "".join(p.swapcase() if f else p for p, f in zip(pieces, flips))
    return table, wrap(text)


@given(keyword_scans())
def test_rulemock_matches_per_keyword_find_reference(case):
    table, prompt = case
    assert RuleMockBackend(table).complete(prompt, PARAMS) == reference_rulemock(
        table, prompt
    )
