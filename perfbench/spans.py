"""Outside-in span tracer for the benchmark's traced runs.

Wraps public functions of the program's modules without touching the
program's source.  Each function is patched wherever callers look it
up: every loaded ``dstgraph`` module attribute that is the original
function object is replaced, so ``from .x import f`` callers are traced
too.  Methods are patched on their class.  A target that no longer
exists is skipped and listed in ``absent``; its metrics then read zero.

Spans (name, start, end, parent) stay in memory and are written out by
``dump`` when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path) of every traced function
TARGETS = [
    ("prompts", "build_prompt"),
    ("prompts", "load_exemplars"),
    ("backends", "RuleMockBackend.complete"),
    ("backends", "HttpBackend.complete"),
    ("backends", "ReplayBackend.complete"),
    ("parsing", "parse_state"),
    ("parsing", "classify_errors"),
    ("dialogue", "serialize_context"),
    ("dialogue", "append_turn"),
    ("dialogue", "accumulate_state"),
    ("metrics", "jga"),
    ("metrics", "slot_f1"),
    ("metrics", "slot_accuracy"),
    ("datasets", "load_corpus"),
    ("datasets", "read_predictions"),
    ("datasets", "write_predictions"),
    ("graph", "build_graph"),
    ("graph", "split_edges"),
    ("graph", "load_graph"),
    ("graph", "StateGraph.adjacency"),
    ("graph", "dialogue_node_set"),
    ("graph", "identity_features"),
    ("vgae", "train"),
    ("vgae", "loss_and_grads"),
    ("vgae", "encode"),
    ("vgae", "normalize_adjacency"),
    ("vgae", "decode_edge"),
    ("vgae", "save_checkpoint"),
    ("vgae", "load_checkpoint"),
    ("linkpred", "rank_candidates"),
    ("linkpred", "mean_embeddings"),
    ("linkpred", "evaluate_split"),
    ("linkpred", "auc"),
    ("linkpred", "average_precision"),
]


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a target: backend methods share ``backends.complete``."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Span recorder plus the counters measured at the traced boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, failed)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ spans

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid, parent = self._open()
        start = time.perf_counter()
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(sid, parent, name, start, failed)

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, failed) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans[sid] = (sid, parent, name, start, end, failed)

    def _wrap(self, fn, name: str, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._close(sid, parent, name, start, failed)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------ patching

    def install(self, package: str = "dstgraph") -> None:
        """Patch every target in every loaded module of ``package``."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, attr in TARGETS:
            module = sys.modules.get(f"{package}.{mod_name}")
            owner_path, _, fn_name = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            name = span_name(mod_name, attr)
            wrapper = self._wrap(original, name, _OBSERVERS.get(name))
            if owner_path:
                # a method: patch the class attribute itself
                self._patched.append((owner, fn_name, original))
                setattr(owner, fn_name, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # ------------------------------------------------------------ results

    def mark(self) -> int:
        return len(self.spans)

    def summary(self, since: int = 0) -> dict:
        """Per-name calls, total seconds, self seconds and failures."""
        spans = self.spans[since:]
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "failed": 0, "durations": []})
        for sid, _, name, start, end, failed in spans:
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += (end - start) - child_time.get(sid, 0.0)
            rec["failed"] += failed
            rec["durations"].append(end - start)
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, start, end, failed in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end, "failed": failed}) + "\n")


# ------------------------------------------------------------ observers
# Counters taken from arguments and results at the traced boundaries.


def _prompt_chars(tr, args, kwargs, result):
    tr.counts["prompts.prompt_chars"] += len(result)


def _context_chars(tr, args, kwargs, result):
    tr.counts["dialogue.context_chars"] += len(result)


def _parse_diagnostics(tr, args, kwargs, result):
    for d in getattr(result, "diagnostics", ()):
        kind = getattr(d.kind, "value", str(d.kind))
        tr.counts[f"parsing.diag.{kind}"] += 1


def _bytes_read(tr, args, kwargs, result):
    tr.counts["datasets.bytes_read"] += _file_size(args[0] if args else None)


def _bytes_written(tr, args, kwargs, result):
    tr.counts["datasets.bytes_written"] += _file_size(args[0] if args else None)


def _graph_size(tr, args, kwargs, result):
    tr.counts["graph.n_nodes"] = result.n_nodes
    tr.counts["graph.n_edges"] = len(result.edges)


def _checkpoint_written(tr, args, kwargs, result):
    tr.counts["vgae.checkpoint_bytes_written"] += _file_size(args[0] if args else None)


def _checkpoint_read(tr, args, kwargs, result):
    tr.counts["vgae.checkpoint_bytes_read"] += _file_size(args[0] if args else None)


def _dense_bytes(tr, args, kwargs, result):
    # computed from shapes: every n-row 2-D array handed to the epoch's
    # loss, plus the n x n decoder score matrix
    arrays = [a for a in list(args) + list(kwargs.values())
              if getattr(a, "ndim", 0) == 2]
    n = max((a.shape[0] for a in arrays), default=0)
    tr.counts["vgae.dense_bytes_per_epoch"] = (
        sum(a.nbytes for a in arrays if a.shape[0] == n) + n * n * 8
    )


_OBSERVERS = {
    "prompts.build_prompt": _prompt_chars,
    "dialogue.serialize_context": _context_chars,
    "parsing.parse_state": _parse_diagnostics,
    "datasets.load_corpus": _bytes_read,
    "datasets.read_predictions": _bytes_read,
    "datasets.write_predictions": _bytes_written,
    "graph.build_graph": _graph_size,
    "graph.load_graph": _graph_size,
    "vgae.save_checkpoint": _checkpoint_written,
    "vgae.load_checkpoint": _checkpoint_read,
    "vgae.loss_and_grads": _dense_bytes,
}
