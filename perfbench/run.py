"""Pipeline benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload track --seed 1 --seconds 20 --trace 0

Drives the pipeline in-process through ``dstgraph.cli.main`` as a closed
loop with one client, on inputs generated from the seed (see gen.py).
Before timing, the bundled fixture pipeline must reproduce
tests/goldens/; every timed pass's outputs are checked after the pass,
and a failed check fails every unit of that pass.

Host normalisation: each timed call is bracketed by a fixed pure-Python
reference kernel, and its time is scaled by NOMINAL_REF_MS over the
mean of the two bracketing kernel times.  The CPU-bound workloads
(track, learn, rank) and every workload's set-up time are reported
normalised; track-http mostly waits on the stub and is reported raw.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, with spans
written to .perfbench-work/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from spans import TARGETS, Tracer, span_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# One BLAS/OpenMP thread, for this process and every child; must be set
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# pinned: the reference kernel's time on the reference host when quiet
NOMINAL_REF_MS = 10.0
REF_LOOPS = 110000
REF_REPEATS = 3
SETUP_SAMPLES = 13
MIN_PASSES = 3
# long enough that the stub's fixed service time, not per-request
# scheduling latency on a contended host, sets the pass time
HTTP_SERVICE_MS = 50.0
RANK_SHARD = 12


def reference_kernel() -> int:
    """Fixed pure-Python integer loop, about 10 ms on the reference host.

    Chosen over string and dict kernels because its slowdowns under host
    contention track the pipeline's most closely (see perfbench/NOTES.md).
    """
    acc = 0
    for i in range(REF_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFF
    return acc


def time_ref() -> float:
    """Median of REF_REPEATS reference-kernel runs, in ms."""
    times = []
    for _ in range(REF_REPEATS):
        t = time.perf_counter()
        reference_kernel()
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ------------------------------------------------------------ workloads


class Workload:
    """Stages of one pass, units per pass, and the post-pass check."""

    stages: tuple[str, ...]
    normalised = True  # report units_per_s host-normalised

    def __init__(self, name: str, seed: int, inputs: Path, work: Path, props: dict):
        self.name, self.seed, self.inputs, self.work, self.props = name, seed, inputs, work, props

    def argv(self, stage: str, i: int) -> list[str]:
        raise NotImplementedError

    def units(self, i: int) -> int:
        raise NotImplementedError

    def check(self, i: int) -> bool:
        raise NotImplementedError

    def scored_pairs(self, i: int) -> int:
        return 0

    def close(self) -> None:
        pass


class Track(Workload):
    stages = ("extract", "evaluate")

    def __init__(self, *a):
        super().__init__(*a)
        self.expected = json.loads((self.inputs / "expected_report.json").read_text())

    def _extract_flags(self) -> list[str]:
        i = self.inputs
        return ["--backend", "rulemock", "--keywords", str(i / "keywords.json")]

    def argv(self, stage, i):
        corpus = str(self.inputs / "corpus.jsonl")
        preds = str(self.work / "predictions.jsonl")
        if stage == "extract":
            return ["extract", "--corpus", corpus, *self._extract_flags(),
                    "--exemplars", str(self.inputs / "exemplars.jsonl"),
                    "--anti-hallucination", "--out", preds]
        return ["evaluate", "--predictions", preds, "--corpus", corpus,
                "--out", str(self.work / "report.json")]

    def units(self, i):
        return self.props["user_turns"]

    def check(self, i):
        return checks.check_track(self.work / "report.json", self.work / "predictions.jsonl",
                                  self.expected, self.props["user_turns"])


class TrackHttp(Track):
    stages = ("extract",)
    # most of a pass is the stub's service time and the client's backoff
    # sleeps, which do not scale with host speed
    normalised = False

    def __init__(self, *a):
        super().__init__(*a)
        self.reference = checks.read_records(self.inputs / "rulemock.jsonl")
        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--table",
             str(self.inputs / "stub_table.json"), "--service-ms", str(HTTP_SERVICE_MS)],
            stdout=subprocess.PIPE, text=True,
        )
        port = self.stub.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("stub failed to start")
        self.base = f"http://127.0.0.1:{port}/v1"

    def _extract_flags(self):
        return ["--backend", "http", "--endpoint", self.base]

    def stats(self) -> dict:
        import urllib.request

        with urllib.request.urlopen(self.base + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def check(self, i):
        return checks.check_records(self.work / "predictions.jsonl", self.reference)

    def close(self):
        self.stub.terminate()
        try:
            self.stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        self.stub.stdout.close()


class Learn(Workload):
    stages = ("graph", "train")

    def argv(self, stage, i):
        prefix = str(self.work / "graph")
        if stage == "graph":
            return ["graph", "--predictions", str(self.inputs / "predictions.jsonl"),
                    "--out-prefix", prefix]
        return ["train", "--graph-prefix", prefix,
                "--checkpoint", str(self.work / "checkpoint.json"),
                "--metrics-out", str(self.work / "train_metrics.json"),
                "--seed", str(self.seed), "--epochs", str(self.props["epochs"]),
                "--learning-rate", str(self.props["learning_rate"])]

    def units(self, i):
        return self.props["epochs"]

    def check(self, i):
        return checks.check_learn(self.work / "train_metrics.json", self.props)

    def scored_pairs(self, i):
        # validation pairs every epoch, then the test pairs once
        sizes = json.loads((self.work / "train_metrics.json").read_text())["split_sizes"]
        return 2 * (sizes["val"] * self.props["epochs"] + sizes["test"])


class Rank(Workload):
    """predict over balanced shards of RANK_SHARD dialogues, in rotation."""

    stages = ("predict",)

    def __init__(self, *a):
        super().__init__(*a)
        records = checks.read_records(self.inputs / "predictions.jsonl")
        ids = sorted({r["dialogue_id"] for r in records})
        self.shards: list[Path] = []
        self.shard_ids: list[list[str]] = []
        for k in range(len(ids) // RANK_SHARD):
            keep = ids[k * RANK_SHARD:(k + 1) * RANK_SHARD]
            path = self.work / f"shard-{k:03d}.jsonl"
            with open(path, "w", encoding="utf-8") as f:
                for r in records:
                    if r["dialogue_id"] in keep:
                        f.write(json.dumps(r) + "\n")
            self.shards.append(path)
            self.shard_ids.append(keep)
        self.ref = checks.RankReference(self.inputs)
        self.domains = self.ref.dialogue_domains(records)

    def argv(self, stage, i):
        return ["predict", "--graph-prefix", str(self.inputs / "graph"),
                "--checkpoint", str(self.inputs / "checkpoint.json"),
                "--predictions", str(self.shards[i % len(self.shards)]),
                "--top-k", str(self.props["top_k"]),
                "--out", str(self.work / "candidates.jsonl")]

    def units(self, i):
        return len(self.shard_ids[i % len(self.shards)])

    def check(self, i):
        ids = self.shard_ids[i % len(self.shards)]
        return self.ref.check(self.work / "candidates.jsonl",
                              {d: self.domains[d] for d in ids}, self.props["top_k"])

    def scored_pairs(self, i):
        ids = self.shard_ids[i % len(self.shards)]
        return sum(self.ref.pairs_scored(self.domains[d]) for d in ids)


WORKLOADS = {"track": Track, "track-http": TrackHttp, "learn": Learn, "rank": Rank}


# ------------------------------------------------------------ measuring


class Meter:
    """Timed passes and set-up samples, each bracketed by reference kernels."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.refs: list[float] = []
        self.passes: list[dict] = []
        self.setups: list[tuple[float, float]] = []  # (raw, normalised)
        self.failed_units = 0
        self.attempted_units = 0
        self.next_pass = 0

    def _ref(self) -> float:
        r = time_ref()
        self.refs.append(r)
        return r

    def run_pass(self, tracer=None) -> dict:
        """One pass: every stage once, timed and (optionally) traced."""
        i = self.next_pass
        self.next_pass += 1
        gc.collect()
        raw = norm = 0.0
        ok = True
        before = self._ref()
        for stage in self.wl.stages:
            argv = self.wl.argv(stage, i)
            t = time.perf_counter()
            if tracer is not None:
                with tracer.span(f"cli.{stage}"):
                    rc = checks.run_cli(argv)
            else:
                rc = checks.run_cli(argv)
            dt = time.perf_counter() - t
            after = self._ref()
            ok = ok and rc == 0
            raw += dt
            norm += dt * NOMINAL_REF_MS / ((before + after) / 2)
            before = after
        try:
            ok = ok and self.wl.check(i)
        except (OSError, ValueError, KeyError):  # missing or malformed output
            ok = False
        return {"i": i, "units": self.wl.units(i), "raw_s": raw, "norm_s": norm, "ok": ok}

    def count(self, rec: dict) -> None:
        """Add a pass to the attempted units; a failed check fails all of them."""
        self.attempted_units += rec["units"]
        if not rec["ok"]:
            self.failed_units += rec["units"]

    def setup_sample(self) -> None:
        gc.collect()
        before = self._ref()
        t = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(SRC), self.wl.name,
             str(self.wl.inputs)],
            stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        dt = time.perf_counter() - t
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        after = self._ref()
        self.setups.append((dt, dt * NOMINAL_REF_MS / ((before + after) / 2)))

    @property
    def key(self) -> str:
        """The pass-time field the end-to-end metrics use."""
        return "norm_s" if self.wl.normalised else "raw_s"

    def units_per_s(self, key: str) -> float:
        return statistics.median(p["units"] / p[key] for p in self.passes)


def measure(meter: Meter, seconds: float, n_setup: int, tracer=None) -> list[dict]:
    """Closed loop until the deadline; with a tracer, every other pass is traced."""
    start = time.perf_counter()
    deadline = start + seconds
    setup_at = [start + seconds * (k + 0.5) / n_setup for k in range(n_setup)]
    traced: list[dict] = []
    while time.perf_counter() < deadline or len(meter.passes) < MIN_PASSES or (
        tracer is not None and len(traced) < 2
    ):
        if setup_at and time.perf_counter() >= setup_at[0]:
            setup_at.pop(0)
            meter.setup_sample()
            continue
        if tracer is not None and len(meter.passes) > len(traced):
            traced.append(traced_pass(meter, tracer))
        else:
            rec = meter.run_pass()
            meter.passes.append(rec)
            meter.count(rec)
    while len(meter.setups) < max(1, n_setup // 3):
        meter.setup_sample()
    return traced


def traced_pass(meter: Meter, tracer) -> dict:
    http = getattr(meter.wl, "stats", None)
    before_http = http() if http else None
    mark = tracer.mark()
    tracer.counts.clear()
    tracer.install()
    try:
        rec = meter.run_pass(tracer)
    finally:
        tracer.uninstall()
    rec["summary"] = tracer.summary(mark)
    rec["counts"] = dict(tracer.counts)
    rec["scored_pairs"] = meter.wl.scored_pairs(rec["i"])
    if http:
        after_http = http()
        rec["http"] = {k: after_http[k] - before_http[k] for k in after_http}
    meter.count(rec)
    return rec


# ------------------------------------------------------------ metrics


def end_to_end(meter: Meter) -> dict:
    return {
        "setup_s": statistics.median(n for _, n in meter.setups),
        "units_per_s": meter.units_per_s(meter.key),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# span names, in TARGETS order; the backend classes share backends.complete
TRACED_NAMES = tuple(dict.fromkeys(span_name(m, a) for m, a in TARGETS))
COUNTERS = (
    "prompts.prompt_chars", "dialogue.context_chars", "parsing.diag.parse_failure",
    "parsing.diag.list_length_mismatch", "parsing.diag.empty_field", "datasets.bytes_read",
    "datasets.bytes_written", "graph.n_nodes", "graph.n_edges", "vgae.dense_bytes_per_epoch",
    "vgae.checkpoint_bytes_written", "vgae.checkpoint_bytes_read",
)
CLI_STAGES = ("extract", "evaluate", "graph", "train", "predict")


def per_layer(meter: Meter, traced: list[dict]) -> dict:
    first = traced[0]
    out: dict[str, float] = {}

    def median_of(fn) -> float:
        return statistics.median(fn(t) for t in traced)

    for name in TRACED_NAMES:
        out[f"{name}.calls"] = first["summary"].get(name, {}).get("calls", 0)
        out[f"{name}.self_s"] = median_of(
            lambda t: t["summary"].get(name, {}).get("self_s", 0.0))
    for name in ("backends.complete", "linkpred.rank_candidates"):
        ms = [d * 1e3 for t in traced for d in t["summary"].get(name, {}).get("durations", [])]
        out[f"{name}.p50_ms"] = percentile(ms, 50) if ms else 0.0
        out[f"{name}.p95_ms"] = percentile(ms, 95) if ms else 0.0
    out["backends.failed"] = first["summary"].get("backends.complete", {}).get("failed", 0)
    http = first.get("http", {})
    out["backends.http.requests"] = http.get("requests", 0)
    out["backends.http.retries"] = http.get("retries", 0)
    out["backends.http.server_s"] = median_of(lambda t: t.get("http", {}).get("server_s", 0.0))
    for name in COUNTERS:
        out[name] = first["counts"].get(name, 0)
    out["linkpred.scored_pairs"] = first["scored_pairs"]
    for stage in CLI_STAGES:
        out[f"cli.{stage}.wall_s"] = median_of(
            lambda t: t["summary"].get(f"cli.{stage}", {}).get("total_s", 0.0))
    untraced_s = statistics.median(p["raw_s"] for p in meter.passes)
    out["host.ref_ms"] = statistics.median(meter.refs)
    out["raw.units_per_s"] = meter.units_per_s("raw_s")
    out["raw.setup_s"] = statistics.median(r for r, _ in meter.setups)
    out["pass.samples"] = len(meter.passes)
    out["pass.p90_s"] = percentile([p[meter.key] for p in meter.passes], 90)
    out["trace.overhead"] = median_of(lambda t: t["raw_s"]) / untraced_s
    return out


# ------------------------------------------------------------ main


def ensure_inputs(workload: str, seed: int) -> Path:
    cache = WORK / "inputs"
    cache.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--cache", str(cache)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    return Path(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through the finally blocks that stop the stub
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for needed in (SRC / "dstgraph" / "__init__.py", ROOT / "tests" / "goldens",
                   ROOT / "BENCHMARK.json"):
        if not needed.exists():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    import dstgraph

    if Path(dstgraph.__file__).resolve().parent != (SRC / "dstgraph").resolve():
        print(f"perfbench: imported dstgraph from {dstgraph.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    inputs = ensure_inputs(args.workload, args.seed)
    props = json.loads((inputs / "properties.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    wl = None
    try:
        gate_error = checks.gate(ROOT, work / "golden")
        if gate_error:
            print(f"perfbench: golden gate failed: {gate_error}", file=sys.stderr)
        wl = WORKLOADS[args.workload](args.workload, args.seed, inputs, work, props)
        meter = Meter(wl)
        warm = meter.run_pass()  # fills caches; checked, not timed
        meter.next_pass = 0
        tracer = Tracer() if args.trace else None
        traced = measure(meter, args.seconds, SETUP_SAMPLES if not args.trace else 3, tracer)
        values = per_layer(meter, traced) if tracer else end_to_end(meter)
        if tracer:
            tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.jsonl")
            if tracer.absent:
                print("absent (function no longer exists): " + ", ".join(tracer.absent))
        else:
            # the raw figures behind the normalised ones, for steadiness records
            print("diagnostics " + json.dumps({
                "raw_units_per_s": meter.units_per_s("raw_s"),
                "raw_setup_s": statistics.median(r for r, _ in meter.setups),
                "ref_ms": statistics.median(meter.refs),
                "passes": len(meter.passes),
            }))
        correct = gate_error is None and warm["ok"] and meter.failed_units == 0
        attempted, failed = meter.attempted_units, meter.failed_units
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(work, ignore_errors=True)
    missing = [n for n in wanted if n not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
