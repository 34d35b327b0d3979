"""Track the state of one scripted dialogue, end to end.

Walks the lowest layer of the toolkit by hand: render a prompt for each
user turn, obtain a completion from the offline keyword-rule backend,
parse the bracketed lists back into triples, and accumulate them into
the running dialogue state.  Everything is deterministic and offline.

Run: python3 demos/01_track_one_dialogue.py
"""

from dstgraph.backends import GenerationParams, RuleMockBackend
from dstgraph.datasets import fixture_keywords_path
from dstgraph.dialogue import (
    DialogueContext,
    DialogueState,
    Speaker,
    Turn,
    accumulate_state,
    append_turn,
    serialize_context,
)
from dstgraph.parsing import parse_state
from dstgraph.prompts import DEFAULT_INSTRUCTION, PromptSpec, PromptStrategy, build_prompt

# the offline backend answers from a keyword table instead of a model,
# so this script runs anywhere and always prints the same thing
backend = RuleMockBackend.from_json(fixture_keywords_path())
params = GenerationParams()

script = [
    (Speaker.USER, "hi, i am looking for somewhere with thai food"),
    (Speaker.SYSTEM, "sure, any price range in mind?"),
    (Speaker.USER, "a cheap price range please, and also a hotel in the east"),
    (Speaker.SYSTEM, "how long will you stay?"),
    (Speaker.USER, "5 nights, a guesthouse would be ideal"),
]

ctx = DialogueContext()
state = DialogueState()

for speaker, text in script:
    ctx = append_turn(ctx, Turn(speaker=speaker, text=text))
    print(f"{speaker.name.lower():>6}: {text}")
    if speaker is not Speaker.USER:
        continue

    # one prompt per user turn, over the full context so far
    spec = PromptSpec(
        strategy=PromptStrategy.COT_PERSONA2,
        instruction=DEFAULT_INSTRUCTION,
        input_text=serialize_context(ctx),
        anti_hallucination=True,
    )
    prompt = build_prompt(spec)
    completion = backend.complete(prompt, params)
    print(f"        completion: {completion}")

    outcome = parse_state(completion)
    for diag in outcome.diagnostics:
        print(f"        ! {diag.kind.value}: {diag.detail}")

    # accumulation is latest-wins per (domain, slot) key
    state = accumulate_state(state, outcome.state.triples())
    for t in state.triples():
        print(f"        state: <{t.domain}, {t.slot}, {t.value}>")

print()
print("final prompt for the last turn, for the curious:")
print(prompt)
