"""Extract states for the bundled corpus and score them against gold.

Shows the evaluation layer: joint goal accuracy (exact full-state match
per turn), micro slot precision/recall/F1 over triples, gold-keyed slot
accuracy, a per-domain breakdown, and the wrong-value taxonomy that
separates invented values from surface variants of the right one.

Run: python3 demos/02_score_against_gold.py
"""

from dstgraph.backends import RuleMockBackend
from dstgraph.cli import RunConfig, extract_records
from dstgraph.datasets import (
    fixture_corpus_path,
    fixture_keywords_path,
    load_corpus,
    state_from_jsonable,
)
from dstgraph.metrics import TurnPair, jga, per_domain_f1, slot_accuracy, slot_f1
from dstgraph.parsing import classify_errors, merge_error_reports

corpus = load_corpus(fixture_corpus_path())
print(f"corpus: {len(corpus.dialogues)} dialogues, gold states attached")

backend = RuleMockBackend.from_json(fixture_keywords_path())
records = []
failure = extract_records(corpus.dialogues, backend, RunConfig(), records.append)
assert failure is None
print(f"extracted {len(records)} per-turn predictions")

# align prediction records with the gold state of the same user turn
gold_by_key = {}
turns_by_id = {}
for d in corpus.dialogues:
    turns_by_id[d.dialogue_id] = d.turns
    for i, gold in enumerate(d.gold_states):
        gold_by_key[(d.dialogue_id, i)] = gold

pairs = []
reports = []
for rec in records:
    predicted = state_from_jsonable(rec["predicted_state"])
    gold = gold_by_key[(rec["dialogue_id"], rec["turn"])]
    pairs.append(TurnPair(predicted=predicted, gold=gold))
    reports.append(
        classify_errors(predicted, gold, turns=turns_by_id[rec["dialogue_id"]])
    )

prf = slot_f1(pairs)
print()
print(f"joint goal accuracy  {jga(pairs):.4f}")
print(f"slot precision       {prf.precision:.4f}")
print(f"slot recall          {prf.recall:.4f}")
print(f"slot f1              {prf.f1:.4f}")
print(f"slot accuracy        {slot_accuracy(pairs):.4f}")

print()
print("per-domain slot f1:")
for domain, score in sorted(per_domain_f1(pairs).items()):
    print(f"  {domain:<12} {score.f1:.4f}")

merged = merge_error_reports(reports)
print()
print(f"wrong values               {merged.total_errors}")
print(f"  invented / ungrounded    {merged.nonexistent_value_count}")
print(f"  synonym of the gold      {merged.synonym_count}")
for sample in merged.samples:
    print(
        f"  e.g. {sample['kind']}: <{sample['domain']}, {sample['slot']}> "
        f"predicted {sample['predicted']!r} vs gold {sample['gold']!r}"
    )
