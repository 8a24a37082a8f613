"""Symbolic path composition by chain rules with additive embedding fallback.

A path's relation sequence is rewritten to a fixpoint: the scan is leftmost
first, the first adjacent pair with an indexed rule is replaced by the rule
head, and the scan restarts. Whatever cannot be composed symbolically is summed
in embedding space (``energy.compose_embedding``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .rules import ChainRule, RuleIndex


@dataclass(frozen=True)
class CompositionResult:
    residual: tuple[int, ...]
    applied_rules: tuple[ChainRule, ...]

    @property
    def applied_confidences(self) -> tuple[float, ...]:
        return tuple(r.confidence for r in self.applied_rules)

    @cached_property
    def confidence_product(self) -> float:
        """Product of applied-rule confidences; 1 when no rule was applied."""
        return math.prod(self.applied_confidences)

    @property
    def fully_composed(self) -> bool:
        return len(self.residual) == 1


class Composer:
    """Memoized leftmost-first fixpoint rewriter over an immutable rule index."""

    def __init__(self, index: RuleIndex):
        self.index = index
        self._memo: dict[tuple[int, ...], CompositionResult] = {}

    def compose(self, relations: tuple[int, ...]) -> CompositionResult:
        if not relations:
            raise ValueError("cannot compose an empty relation sequence")
        cached = self._memo.get(relations)
        if cached is not None:
            return cached
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
        result = CompositionResult(residual=tuple(seq), applied_rules=tuple(applied))
        self._memo[relations] = result
        return result

