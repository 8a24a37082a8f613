"""Symbolic path composition by chain rules with additive embedding fallback.

A path's relation sequence is rewritten to a fixpoint: the scan is leftmost
first, the first adjacent pair with an indexed rule is replaced by the rule
head, and the scan restarts. Whatever cannot be composed symbolically is summed
in embedding space (``energy.composed_relations``).

``Composer.compile`` composes a ``PathStore`` once: each distinct relation row
goes through ``compose`` once, and every path gets the id of its residual among
the distinct residuals and its weight R(p) * prod(mu). It is the one route to a
composition: training, scoring and the evidence ``explain`` prints all read the
store's ``CompiledPaths``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kg import distinct_groups
from .paths import PathStore, relation_row_keys
from .rules import ChainRule, RuleIndex


@dataclass(frozen=True)
class CompositionResult:
    residual: tuple[int, ...]
    applied_rules: tuple[ChainRule, ...]

    @cached_property
    def confidence_product(self) -> float:
        """Product of applied-rule confidences; 1 when no rule was applied."""
        return math.prod(r.confidence for r in self.applied_rules)

    @property
    def fully_composed(self) -> bool:
        return len(self.residual) == 1


@dataclass(frozen=True, eq=False)
class CompiledPaths:
    """A ``PathStore``'s paths composed: per path, in store order, the row of its
    residual in ``residuals`` (distinct residuals padded with -1) and its weight
    R(p) * prod(mu). ``compositions`` holds the result of each distinct relation
    sequence, and ``sequence_id`` each path's among them."""

    residuals: np.ndarray
    residual_id: np.ndarray
    weight: np.ndarray
    compositions: list[CompositionResult]
    sequence_id: np.ndarray

    @property
    def rule_applications(self) -> dict[ChainRule, int]:
        """How often each rule was applied, over all paths."""
        applications: Counter = Counter()
        uses = np.bincount(self.sequence_id, minlength=len(self.compositions)).tolist()
        for cr, n in zip(self.compositions, uses):
            for rule in cr.applied_rules:
                applications[rule] += n
        return dict(applications)

    def summary(self) -> dict:
        """Paths compiled, the fraction fully composed and paths per residual length."""
        lengths = np.count_nonzero(self.residuals >= 0, axis=1)[self.residual_id]
        counts = np.bincount(lengths, minlength=self.residuals.shape[1] + 1)
        return {
            "paths": len(lengths),
            "fully_composed_frac": float(counts[1] / max(1, len(lengths))),
            "residual_lengths": {str(n): int(c) for n, c in enumerate(counts) if n},
        }


class Composer:
    """Leftmost-first fixpoint rewriter over an immutable rule index."""

    def __init__(self, index: RuleIndex):
        self.index = index

    def compose(self, relations: tuple[int, ...]) -> CompositionResult:
        if not relations:
            raise ValueError("cannot compose an empty relation sequence")
        seq = list(relations)
        applied: list[ChainRule] = []
        while True:
            for i in range(len(seq) - 1):
                rule = self.index.rule_for((seq[i], seq[i + 1]))
                if rule is not None:
                    seq[i : i + 2] = [rule.head]
                    applied.append(rule)
                    break
            else:
                break
        return CompositionResult(residual=tuple(seq), applied_rules=tuple(applied))

    def compile(self, store: PathStore) -> CompiledPaths:
        """Every path of ``store`` composed. Its relation rows are grouped by one
        integer key each (``paths.relation_row_keys``, ``kg.distinct_groups``), the
        distinct rows in ascending key order, and each distinct row is composed
        once, from its first path."""
        rels = store.relations
        _, first, sequence = distinct_groups(relation_row_keys(rels))
        results = [self.compose(tuple(r for r in seq if r >= 0)) for seq in rels[first].tolist()]
        residual_ids: dict[tuple[int, ...], int] = {}
        residual_of = np.array(
            [residual_ids.setdefault(cr.residual, len(residual_ids)) for cr in results],
            dtype=np.int64,
        )
        residuals = np.full((len(residual_ids), max(map(len, residual_ids), default=1)), -1)
        for residual, i in residual_ids.items():
            residuals[i, : len(residual)] = residual
        confidence = np.array([cr.confidence_product for cr in results])
        return CompiledPaths(
            residuals, residual_of[sequence], store.reliabilities * confidence[sequence],
            results, sequence,
        )
