"""Prompt construction for ontology-free dialogue state tracking.

Six strategies render to a single prompt string: chain-of-thought, three
persona-augmented variants of it, a reasoning-structure framing, and a
breadth-exploration framing.  All pieces are pinned string constants,
named in one table and listed per strategy in another, so rendered
prompts are reproducible byte for byte, and none of them name any
domain, slot, or value vocabulary (the ontology-free guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .datasets import read_json_lines


class PromptStrategy(Enum):
    COT = "cot"
    COT_PERSONA1 = "cot-persona1"
    COT_PERSONA2 = "cot-persona2"
    COT_PERSONA3 = "cot-persona3"
    SELF_DISCOVER = "self-discover"
    TOT = "tot"


COT_FRAME = (
    "Below is an instruction that describes a task, paired with an input that "
    "provides further context. Write a response that appropriately completes "
    "the request. Ensure that the response is clear, concise, and directly "
    "addresses the task described in the instruction. Avoid asking for "
    "personal information or making assumptions beyond the provided context."
)

STEP_SENTENCE = "Let's step by step."

ANTI_HALLUCINATION = "If the value does not exist, return the value as NONE."

# single-prompt framings; these strategies are prompt variants here, not
# multi-call search procedures
SELF_DISCOVER_PREAMBLE = (
    "First select the reasoning steps this task needs, compose them into a "
    "plan, then follow the plan on the given input."
)

TOT_PREAMBLE = (
    "Consider several distinct readings of the conversation, briefly weigh "
    "each, and answer with the most consistent one."
)

# the named, overridable template pieces (see load_template_overrides)
_PIECES = {
    "persona1": (
        "You are an advanced dialogue state tracker with expertise in "
        "understanding and managing complex conversations to maintain context "
        "and provide accurate responses."
    ),
    "persona2": (
        "You are a context-aware dialogue specialist, skilled in recognizing "
        "user intents and maintaining seamless conversation flow by accurately "
        "tracking dialogue states."
    ),
    "persona3": (
        "You are an expert conversational analyst, proficient in monitoring "
        "and updating dialogue states to ensure coherent and contextually "
        "appropriate interactions."
    ),
    "frame": COT_FRAME,
    "step": STEP_SENTENCE,
    "self_discover": SELF_DISCOVER_PREAMBLE,
    "tot": TOT_PREAMBLE,
    "anti_hallucination": ANTI_HALLUCINATION,
}

# each strategy's pieces, in prompt order
_STRATEGY_PIECES = {
    PromptStrategy.COT: ("frame", "step"),
    PromptStrategy.COT_PERSONA1: ("persona1", "frame", "step"),
    PromptStrategy.COT_PERSONA2: ("persona2", "frame", "step"),
    PromptStrategy.COT_PERSONA3: ("persona3", "frame", "step"),
    PromptStrategy.SELF_DISCOVER: ("frame", "self_discover"),
    PromptStrategy.TOT: ("frame", "tot"),
}

_OVERRIDE_SECTIONS = {"instruction", *_PIECES}

# the pinned default instruction: it names the output format, no vocabulary
DEFAULT_INSTRUCTION = (
    "Track the dialogue state of the conversation below. Identify each topic "
    "the user talks about, the attribute they constrain, and the stated "
    "choice, and report them as three aligned lists in exactly this format: "
    "Domain : [`first topic'] , Slot : [`first attribute'] , Value : [`first "
    "choice'], with one entry per tracked pair and nothing else in the "
    "response."
)


@dataclass(frozen=True)
class PromptSpec:
    """Everything needed to render one prompt."""

    strategy: PromptStrategy
    instruction: str
    input_text: str
    anti_hallucination: bool = False
    exemplars: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def build_prompt(spec: PromptSpec, overrides: dict[str, str] | None = None) -> str:
    """Render a PromptSpec to its single prompt string.

    Piece order: persona (persona variants only), the fixed frame, the
    strategy sentence, the anti-hallucination clause iff the flag is set,
    exemplars, then the live "Instruction: ... Input: ... Response:" tail.
    Pieces join with single spaces.  ``overrides`` may replace any named
    template piece (see load_template_overrides).
    """
    ov = overrides or {}
    instruction = ov.get("instruction", spec.instruction)
    if not instruction.strip():
        raise ValueError("instruction must be non-empty")
    if not spec.input_text.strip():
        raise ValueError("input_text must be non-empty")

    names = list(_STRATEGY_PIECES[spec.strategy])
    if spec.anti_hallucination:
        names.append("anti_hallucination")
    pieces = [ov.get(n, _PIECES[n]) for n in names]
    for ex_input, ex_output in spec.exemplars:
        pieces.append(
            f"Instruction: {instruction} Input: {ex_input} Response: {ex_output}"
        )
    pieces.append(
        f"Instruction: {instruction} Input: {spec.input_text} Response:"
    )
    return " ".join(pieces)


def load_template_overrides(path: str | Path) -> dict[str, str]:
    """Read template overrides from a sectioned UTF-8 text file.

    Sections open with a ``[name]`` line; the body runs to the next header.
    Lines end only at a newline.  Bodies are stripped and kept verbatim
    otherwise.  An unknown section name, or text before the first header,
    raises ``ValueError`` naming the file and the line, so typos do not
    silently no-op.
    """
    overrides: dict[str, str] = {}
    current: str | None = None
    body: list[str] = []

    def flush():
        if current is not None:
            overrides[current] = "\n".join(body).strip()

    lines = Path(path).read_text(encoding="utf-8").split("\n")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in _OVERRIDE_SECTIONS:
                raise ValueError(f"{path}:{lineno}: unknown template section: [{name}]")
            flush()
            current = name
            body = []
        elif current is not None:
            body.append(line)
        elif stripped:
            raise ValueError(
                f"{path}:{lineno}: template file must start with a [section] header"
            )
    flush()
    return overrides


def load_exemplars(path: str | Path) -> tuple[tuple[str, str], ...]:
    """Read few-shot exemplars from a JSONL file of {input, output} records;
    a bad line raises ``ValueError`` naming the file and the line."""
    pairs: list[tuple[str, str]] = []
    for lineno, rec in read_json_lines(path):
        try:
            pairs.append((str(rec["input"]), str(rec["output"])))
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: exemplar has no {exc} key") from exc
    return tuple(pairs)
