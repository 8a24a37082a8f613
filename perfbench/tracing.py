"""Per-layer spans for the traced benchmark run, recorded from outside ``rpje``.

``Tracer.installed()`` replaces the public functions and methods listed in
``TARGETS`` with timing wrappers for the duration of a ``with`` block and puts
the originals back afterwards, so untraced passes run unmodified code. A span's
self time is its duration minus the time covered by the spans it directly
encloses; all ``.s`` figures are self times.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import Counter, defaultdict

from rpje import compose, evaluation, kg, model, paths, rules, training


def _memo_hit(args) -> bool:
    composer, relations = args[0], args[1]
    return relations in getattr(composer, "_memo", ())


def _after_compose(tracer, args, result, hit) -> None:
    tracer.counts["compose.memo_hits"] += hit
    tracer.counts["compose.fully_composed"] += len(result.residual) == 1


def _after_save_path_set(tracer, args, result, _) -> None:
    tracer.counts["paths.save_path_set.bytes"] += os.path.getsize(args[2])


def _after_sample(tracer, args, result, _) -> None:
    tracer.counts["training.NegativeSampler.giveups"] += result is None


def _after_train(tracer, args, result, _) -> None:
    tracer.last_history = result.history


# (span name, owner, attribute, pre-call hook, post-call hook)
TARGETS = [
    ("kg.load_dataset", kg, "load_dataset", None, None),
    ("kg.KnowledgeGraph.dataset_hash", kg.KnowledgeGraph, "dataset_hash", None, None),
    ("rules.parse_rules", rules, "parse_rules", None, None),
    ("rules.encode_rules", rules, "encode_rules", None, None),
    ("rules.build_index", rules, "build_index", None, None),
    ("paths.extract_paths", paths, "extract_paths", None, None),
    ("paths.walk_resources", paths, "walk_resources", None, None),
    ("paths.save_path_set", paths, "save_path_set", None, _after_save_path_set),
    ("paths.load_path_set", paths, "load_path_set", None, None),
    ("paths.PathFinder.arrivals", paths.PathFinder, "arrivals", None, None),
    ("compose.Composer.compose", compose.Composer, "compose", _memo_hit, _after_compose),
    ("model.init_embeddings", model, "init_embeddings", None, None),
    ("model.save_checkpoint", model, "save_checkpoint", None, None),
    ("model.load_checkpoint", model, "load_checkpoint", None, None),
    ("training.train", training, "train", None, _after_train),
    ("training.loss_and_gradients", training, "loss_and_gradients", None, None),
    ("training.GradientUpdate.apply", training.GradientUpdate, "apply", None, None),
    ("training.project_entities", training, "project_entities", None, None),
    ("training.NegativeSampler", training.NegativeSampler, "corrupt_head", None, _after_sample),
    ("training.NegativeSampler", training.NegativeSampler, "corrupt_tail", None, _after_sample),
    ("training.NegativeSampler", training.NegativeSampler, "corrupt_relation", None, _after_sample),
    ("training.NegativeSampler", training.NegativeSampler, "relation_not_deduced", None, _after_sample),
    ("evaluation.evaluate", evaluation, "evaluate", None, None),
    ("evaluation.rank_entities", evaluation, "rank_entities", None, None),
    ("evaluation.rank_relations", evaluation, "rank_relations", None, None),
    ("evaluation.Scorer.tail_scores", evaluation.Scorer, "tail_scores", None, None),
    ("evaluation.Scorer.head_scores", evaluation.Scorer, "head_scores", None, None),
    ("evaluation.Scorer.relation_scores", evaluation.Scorer, "relation_scores", None, None),
    ("evaluation.Scorer.path_penalty", evaluation.Scorer, "path_penalty", None, None),
    ("evaluation.explain", evaluation, "explain", None, None),
]

# Spans whose per-call durations (self plus children) are kept for percentiles.
SAMPLED = {"evaluation.rank_entities", "evaluation.rank_relations"}


class Tracer:
    """Self time, inclusive time, calls and counts per span name."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.last_history: list = []
        self.incl_s: dict[str, float] = defaultdict(float)
        # self seconds per (outermost span, span), to split work between commands
        self.self_by_root: dict[tuple[str, str], float] = defaultdict(float)
        self.missing: list[str] = []
        self._open: list[float] = []  # per open span: time covered by its children
        self._root = ""

    def call(self, name, fn, *args, pre=None, post=None, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        state = pre(args) if pre else None
        if not self._open:
            self._root = name
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            own = elapsed - self._open.pop()
            self.self_s[name] += own
            self.self_by_root[self._root, name] += own
            self.incl_s[name] += elapsed
            self.calls[name] += 1
            if self._open:
                self._open[-1] += elapsed
            if name in SAMPLED:
                self.samples[name].append(elapsed)
        if post:
            post(self, args, result, state)
        return result

    def _wrap(self, name, fn, pre, post):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, pre=pre, post=post, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every target (and every module-level alias of it) inside the block."""
        modules = [m for n, m in sys.modules.items() if n == "rpje" or n.startswith("rpje.")]
        patches = []
        self.missing = []
        for name, owner, attr, pre, post in TARGETS:
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{name}:{attr}")
                continue
            traced = self._wrap(name, original, pre, post)
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if vars(m).get(attr) is original
            ]
            for o in owners:
                patches.append((o, attr, original))
                setattr(o, attr, traced)
        try:
            yield self
        finally:
            for o, attr, original in reversed(patches):
                setattr(o, attr, original)

