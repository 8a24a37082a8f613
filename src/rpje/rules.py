"""Horn rule parsing, chain encoding and indexing.

Mined rules of length 1 or 2 are turned into directed chains over relation ids:
a length-2 body is oriented as a -> e -> b (inverting atoms where needed, which
covers all eight syntactic variants), a length-1 body as a -> b. Rules that fit
no chain form (repeated variables, unsafe variables) are rejected, not errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .artifacts import read_text
from .kg import KnowledgeGraph

VARIABLES = ("a", "b", "e")

Atom = tuple[int, str, str]  # (relation id, first variable, second variable)


class RuleParseError(ValueError):
    """Malformed rule file content."""


@dataclass(frozen=True)
class RawRule:
    """A parsed rule before chain encoding; atom relations are already interned."""

    head: Atom
    body: tuple[Atom, ...]
    confidence: float

    @property
    def length(self) -> int:
        return len(self.body)


@dataclass(frozen=True)
class ChainRule:
    """head <= (body...) with the body forming a directed relation chain."""

    head: int
    body: tuple[int, ...]
    confidence: float

    @property
    def length(self) -> int:
        return len(self.body)


@dataclass
class ParseStats:
    parsed: int = 0
    dropped_unknown_relation: int = 0
    rejected_not_chainable: int = 0
    dropped_by_threshold: int = 0


_ATOM_RE = re.compile(r"\s*(.+?)\(\s*(\w+)\s*,\s*(\w+)\s*\)\s*$")
_LINE_RE = re.compile(r"^(.*?)\s*<=\s*(.*?)\s+([0-9.eE+-]+)\s*$")


def _parse_atom(text: str, kg: KnowledgeGraph, where: str) -> Atom | None:
    m = _ATOM_RE.match(text)
    if m is None:
        raise RuleParseError(f"{where}: malformed atom {text!r}")
    name, v1, v2 = m.group(1).strip(), m.group(2), m.group(3)
    if v1 not in VARIABLES or v2 not in VARIABLES:
        raise RuleParseError(f"{where}: variables must be drawn from {VARIABLES}, got {text!r}")
    try:
        return (kg.relation_id(name), v1, v2)
    except LookupError:
        return None


def _build_raw(head_text: str, body_text: str, conf_text: str, kg, where) -> RawRule | None:
    """Returns None when some relation is unknown to the graph."""
    try:
        confidence = float(conf_text)
    except ValueError:
        raise RuleParseError(f"{where}: malformed confidence {conf_text!r}") from None
    if not 0.0 <= confidence <= 1.0:
        raise RuleParseError(f"{where}: confidence {confidence} outside [0,1]")
    head = _parse_atom(head_text, kg, where)
    body_parts = [p for p in body_text.split("&")]
    if not 1 <= len(body_parts) <= 2:
        raise RuleParseError(f"{where}: rule body must have 1 or 2 atoms")
    body = [_parse_atom(p, kg, where) for p in body_parts]
    if head is None or any(a is None for a in body):
        return None
    return RawRule(head=head, body=tuple(body), confidence=confidence)


def _normalized_parts(line: str, where: str) -> tuple[str, str, str] | None:
    """head(a,b) <= b1(v,v) [& b2(v,v)] <TAB> conf; ``#`` starts a comment."""
    line = line.split("#", 1)[0].strip()
    if not line:
        return None
    m = _LINE_RE.match(line)
    if m is None:
        raise RuleParseError(f"{where}: expected 'head <= body<TAB>confidence'")
    return m.groups()


def _amie_parts(line: str, where: str) -> tuple[str, str, str] | tuple[()] | None:
    """AMIE+ TSV export: rule string, head coverage, std confidence, PCA confidence, ...

    The rule string joins space-separated atoms '?x rel ?y' with '=>', and PCA
    confidence is taken as the rule confidence. Only lines that start with ``#``
    are comments, as AMIE relation IRIs may contain ``#``. A body variable not
    in the head becomes ``e``; a body with two of them is no chain from ``a`` to
    ``b``, and gives ``()``.
    """
    if not line or line.startswith(("Rule", "#")):
        return None
    cols = line.split("\t")
    if len(cols) < 4:
        raise RuleParseError(f"{where}: expected AMIE TSV with >= 4 columns")
    tokens = cols[0].split()
    if "=>" not in tokens:
        raise RuleParseError(f"{where}: no '=>' in rule string")
    sep = tokens.index("=>")
    body_tok, head_tok = tokens[:sep], tokens[sep + 1 :]
    if len(head_tok) != 3 or len(body_tok) % 3 != 0:
        raise RuleParseError(f"{where}: atoms must be variable/relation/variable")
    hv1, hrel, hv2 = head_tok
    varmap = {hv1: "a", hv2: "b"}
    atoms_txt = []
    for i in range(0, len(body_tok), 3):
        v1, rel, v2 = body_tok[i : i + 3]
        for v in (v1, v2):
            if v not in varmap:
                if "e" in varmap.values():
                    return ()
                varmap[v] = "e"
        atoms_txt.append(f"{rel}({varmap[v1]},{varmap[v2]})")
    return f"{hrel}(a,b)", " & ".join(atoms_txt), cols[3]


def _is_amie(line: str) -> bool:
    """AMIE's rule string holds a '=>' token; its header's first column is 'Rule'."""
    first = line.split("\t", 1)[0]
    return first == "Rule" or "=>" in first.split()


def parse_rules(path, kg: KnowledgeGraph, stats: ParseStats | None = None) -> list[RawRule]:
    """Parse a rule file in the normalized syntax or in AMIE's TSV export.

    The file's first line that is neither blank nor a ``#`` comment decides the
    syntax; a later line in the other one fails with its line number. Rules over
    relations absent from the graph are dropped (counted in stats), never raised;
    so is an AMIE rule whose body is no chain (counted as not chainable).
    """
    stats = stats if stats is not None else ParseStats()
    rules = []
    parts_of = None
    for lineno, line in enumerate(read_text(path, RuleParseError).split("\n"), start=1):
        if parts_of is None:
            if not line.split("#", 1)[0].strip():
                continue
            parts_of = _amie_parts if _is_amie(line) else _normalized_parts
        where = f"{path}:{lineno}"
        parts = parts_of(line, where)
        if parts is None:
            continue
        if not parts:
            stats.rejected_not_chainable += 1
            continue
        rule = _build_raw(*parts, kg, where)
        if rule is None:
            stats.dropped_unknown_relation += 1
            continue
        stats.parsed += 1
        rules.append(rule)
    return rules


def _orient(atom: Atom, src: str, dst: str, inverse) -> int | None:
    """Relation id traversing atom from src to dst, or None if the atom does not fit."""
    rel, v1, v2 = atom
    if (v1, v2) == (src, dst):
        return rel
    if (v1, v2) == (dst, src):
        return inverse(rel)
    return None


def encode_rule(rule: RawRule, kg: KnowledgeGraph) -> ChainRule | None:
    """Encode a raw rule into chain form; returns None for non-chainable rules."""
    hrel, hv1, hv2 = rule.head
    if (hv1, hv2) != ("a", "b"):
        return None
    if rule.length == 1:
        seg = _orient(rule.body[0], "a", "b", kg.inverse)
        if seg is None:
            return None
        return ChainRule(head=hrel, body=(seg,), confidence=rule.confidence)

    # Length 2: one atom must link a-e, the other e-b, in either order/orientation.
    for first, second in (rule.body, rule.body[::-1]):
        seg1 = _orient(first, "a", "e", kg.inverse)
        seg2 = _orient(second, "e", "b", kg.inverse)
        if seg1 is not None and seg2 is not None:
            return ChainRule(head=hrel, body=(seg1, seg2), confidence=rule.confidence)
    return None


def encode_rules(
    rules: list[RawRule], kg: KnowledgeGraph, stats: ParseStats | None = None
) -> list[ChainRule]:
    stats = stats if stats is not None else ParseStats()
    out = []
    for rule in rules:
        encoded = encode_rule(rule, kg)
        if encoded is None:
            stats.rejected_not_chainable += 1
        else:
            out.append(encoded)
    return out


@dataclass
class RuleIndex:
    """Threshold-filtered rule lookup structures.

    r2_index keeps, per body pair, the single best rule (max confidence, ties to
    the smaller head id). r1_assoc maps a relation r to the relations deduced
    from it by length-1 rules together with their confidences (max per head).
    """

    threshold: float
    r2_index: dict[tuple[int, int], ChainRule] = field(default_factory=dict)
    r1_assoc: dict[int, tuple[tuple[int, float], ...]] = field(default_factory=dict)
    n_r1: int = 0
    n_r2: int = 0

    def rule_for(self, pair: tuple[int, int]) -> ChainRule | None:
        return self.r2_index.get(pair)

    def deduced_from(self, r: int) -> tuple[tuple[int, float], ...]:
        """D(r): (deduced relation, confidence) pairs, sorted by relation id."""
        return self.r1_assoc.get(r, ())


def build_index(
    rules: list[ChainRule], threshold: float, stats: ParseStats | None = None
) -> RuleIndex:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"confidence threshold {threshold} outside [0,1]")
    index = RuleIndex(threshold=threshold)
    assoc: dict[int, dict[int, float]] = {}
    for rule in rules:
        if rule.confidence < threshold:
            if stats is not None:
                stats.dropped_by_threshold += 1
            continue
        if rule.length == 2:
            key = (rule.body[0], rule.body[1])
            best = index.r2_index.get(key)
            if (
                best is None
                or rule.confidence > best.confidence
                or (rule.confidence == best.confidence and rule.head < best.head)
            ):
                index.r2_index[key] = rule
        else:
            body = rule.body[0]
            heads = assoc.setdefault(body, {})
            heads[rule.head] = max(heads.get(rule.head, 0.0), rule.confidence)
    index.r1_assoc = {
        body: tuple(sorted(heads.items())) for body, heads in assoc.items()
    }
    index.n_r2 = len(index.r2_index)
    index.n_r1 = sum(len(v) for v in index.r1_assoc.values())
    return index


def format_chain_rule(rule: ChainRule, kg: KnowledgeGraph) -> str:
    body = ", ".join(kg.relation_name(r) for r in rule.body)
    return f"{kg.relation_name(rule.head)} <= ({body})\t{rule.confidence:g}"
