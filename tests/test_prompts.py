import pytest

from dstgraph.prompts import (
    ANTI_HALLUCINATION,
    COT_FRAME,
    DEFAULT_INSTRUCTION,
    SELF_DISCOVER_PREAMBLE,
    STEP_SENTENCE,
    TOT_PREAMBLE,
    _PIECES,
    PromptSpec,
    PromptStrategy,
    build_prompt,
    load_exemplars,
    load_template_overrides,
)


def spec(**kw) -> PromptSpec:
    base = dict(
        strategy=PromptStrategy.COT,
        instruction="Track the state.",
        input_text="USER: i want asian food",
    )
    base.update(kw)
    return PromptSpec(**base)


def persona(strategy: PromptStrategy) -> str:
    """The default persona text of a persona variant ("cot-persona2" -> persona2)."""
    return _PIECES[f"persona{strategy.value[-1]}"]


def test_cot_prompt_layout():
    assert build_prompt(spec()) == (
        f"{COT_FRAME} {STEP_SENTENCE} "
        "Instruction: Track the state. Input: USER: i want asian food Response:"
    )


def test_prompt_ends_with_response_marker():
    assert build_prompt(spec()).endswith("Response:")


@pytest.mark.parametrize(
    "strategy",
    [
        PromptStrategy.COT_PERSONA1,
        PromptStrategy.COT_PERSONA2,
        PromptStrategy.COT_PERSONA3,
    ],
)
def test_persona_variants_prepend_their_persona(strategy):
    rendered = build_prompt(spec(strategy=strategy))
    assert rendered.startswith(persona(strategy) + " " + COT_FRAME)
    assert STEP_SENTENCE in rendered
    # each variant carries exactly its own persona
    others = {
        PromptStrategy.COT_PERSONA1,
        PromptStrategy.COT_PERSONA2,
        PromptStrategy.COT_PERSONA3,
    } - {strategy}
    for other in others:
        assert persona(other) not in rendered


def test_plain_cot_has_no_persona():
    rendered = build_prompt(spec())
    for s in (
        PromptStrategy.COT_PERSONA1,
        PromptStrategy.COT_PERSONA2,
        PromptStrategy.COT_PERSONA3,
    ):
        assert persona(s) not in rendered


def test_anti_hallucination_iff_flag():
    assert ANTI_HALLUCINATION not in build_prompt(spec(anti_hallucination=False))
    with_clause = build_prompt(spec(anti_hallucination=True))
    assert ANTI_HALLUCINATION in with_clause
    assert with_clause.count(ANTI_HALLUCINATION) == 1


def test_self_discover_and_tot_swap_the_step_sentence():
    sd = build_prompt(spec(strategy=PromptStrategy.SELF_DISCOVER))
    tot = build_prompt(spec(strategy=PromptStrategy.TOT))
    assert SELF_DISCOVER_PREAMBLE in sd and STEP_SENTENCE not in sd
    assert TOT_PREAMBLE in tot and STEP_SENTENCE not in tot


def test_exemplars_render_before_live_input():
    rendered = build_prompt(
        spec(exemplars=(("USER: hi", "Domain : [] , Slot : [] , Value : []"),))
    )
    ex = (
        "Instruction: Track the state. Input: USER: hi "
        "Response: Domain : [] , Slot : [] , Value : []"
    )
    live = "Instruction: Track the state. Input: USER: i want asian food Response:"
    assert ex in rendered
    assert rendered.index(ex) < rendered.index(live)


def test_empty_instruction_or_input_rejected():
    with pytest.raises(ValueError):
        build_prompt(spec(instruction="  "))
    with pytest.raises(ValueError):
        build_prompt(spec(input_text=""))


def test_default_instruction_is_vocabulary_free():
    text = DEFAULT_INSTRUCTION.casefold()
    for token in ("hotel", "restaurant", "attraction", "pricerange", "multiwoz"):
        assert token not in text


def test_overrides_replace_named_pieces():
    rendered = build_prompt(
        spec(anti_hallucination=True),
        overrides={
            "frame": "FRAME.",
            "step": "STEP.",
            "anti_hallucination": "CLAUSE.",
            "instruction": "INSTR.",
        },
    )
    assert rendered == (
        "FRAME. STEP. CLAUSE. Instruction: INSTR. "
        "Input: USER: i want asian food Response:"
    )


def test_persona_override_targets_one_variant():
    rendered = build_prompt(
        spec(strategy=PromptStrategy.COT_PERSONA2), overrides={"persona2": "P2."}
    )
    assert rendered.startswith("P2. " + COT_FRAME)


def test_load_template_overrides_round_trip(tmp_path):
    f = tmp_path / "templates.txt"
    f.write_text(
        "[frame]\nCustom frame line one\nline two\n\n[step]\nThink hard.\n",
        encoding="utf-8",
    )
    ov = load_template_overrides(f)
    assert ov == {"frame": "Custom frame line one\nline two", "step": "Think hard."}


def test_load_template_overrides_rejects_unknown_section(tmp_path):
    f = tmp_path / "templates.txt"
    f.write_text("[framee]\noops\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_template_overrides(f)


def test_load_template_overrides_rejects_headerless_text(tmp_path):
    f = tmp_path / "templates.txt"
    f.write_text("no header here\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_template_overrides(f)


@pytest.mark.parametrize(
    "separator", ["\u2028", "\x85", "\x0c"], ids=["U+2028", "U+0085", "form-feed"]
)
def test_load_template_overrides_splits_only_at_newlines(separator, tmp_path):
    f = tmp_path / "templates.txt"
    f.write_text(f"[instruction]\nTrack the state{separator}of the talk.\n", encoding="utf-8")
    assert load_template_overrides(f) == {
        "instruction": f"Track the state{separator}of the talk."
    }


def test_load_template_overrides_reads_crlf_as_its_lf_twin(tmp_path):
    f = tmp_path / "templates.txt"
    f.write_bytes(b"[frame]\r\nline one\r\nline two\r\n\r\n[step]\r\nThink hard.\r\n")
    assert load_template_overrides(f) == {"frame": "line one\nline two", "step": "Think hard."}
    f.write_bytes(b"[frame]\r\nline one\r\n[framee]\r\n")
    with pytest.raises(ValueError, match=r"templates\.txt:3: unknown template section"):
        load_template_overrides(f)


def test_load_exemplars(tmp_path):
    f = tmp_path / "ex.jsonl"
    f.write_text(
        '{"input": "USER: hi", "output": "Domain : []"}\n'
        "\n"
        '{"input": "USER: bye", "output": "Domain : []"}\n',
        encoding="utf-8",
    )
    assert load_exemplars(f) == (
        ("USER: hi", "Domain : []"),
        ("USER: bye", "Domain : []"),
    )


def test_all_strategies_render_and_differ():
    rendered = {s: build_prompt(spec(strategy=s)) for s in PromptStrategy}
    assert len(set(rendered.values())) == len(PromptStrategy)
