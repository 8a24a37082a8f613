import pytest
from hypothesis import given, settings, strategies as st

from rpje.rules import (
    ChainRule,
    ParseStats,
    RawRule,
    RuleParseError,
    build_index,
    encode_rule,
    encode_rules,
    parse_rules,
)

from conftest import make_kg


@pytest.fixture
def kg3():
    # r1, r2, r3 interned in order
    return make_kg([("a", "r1", "b"), ("a", "r2", "b"), ("a", "r3", "b")])


def rule_file(tmp_path, lines):
    path = tmp_path / "rules.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_parse_length_one(tmp_path):
    kg = make_kg([("x", "nationality", "y"), ("x", "bornincountry", "y")])
    rules = parse_rules(rule_file(tmp_path, ["nationality(a,b) <= bornincountry(a,b)\t0.9"]), kg)
    assert len(rules) == 1
    assert rules[0].length == 1
    assert rules[0].confidence == 0.9


def test_parse_length_two_chain(tmp_path, kg3):
    rules = parse_rules(rule_file(tmp_path, ["r3(a,b) <= r1(a,e) & r2(e,b)\t1.0"]), kg3)
    assert rules[0].length == 2
    assert rules[0].confidence == 1.0


def test_unknown_relation_dropped_with_count(tmp_path, kg3):
    stats = ParseStats()
    rules = parse_rules(
        rule_file(tmp_path, ["r3(a,b) <= never_seen(a,b)\t0.5", "r1(a,b) <= r2(a,b)\t0.5"]),
        kg3,
        stats,
    )
    assert len(rules) == 1
    assert stats.dropped_unknown_relation == 1


def test_confidence_out_of_range(tmp_path, kg3):
    with pytest.raises(RuleParseError, match="outside"):
        parse_rules(rule_file(tmp_path, ["r1(a,b) <= r2(a,b)\t1.5"]), kg3)


def test_malformed_atom_reports_line(tmp_path, kg3):
    with pytest.raises(RuleParseError, match="rules.tsv:2"):
        parse_rules(
            rule_file(tmp_path, ["r1(a,b) <= r2(a,b)\t0.5", "r1(a,b) <= r2(a b)\t0.5"]), kg3
        )


def test_bad_variable_rejected(tmp_path, kg3):
    with pytest.raises(RuleParseError, match="variables"):
        parse_rules(rule_file(tmp_path, ["r1(a,b) <= r2(x,y)\t0.5"]), kg3)


def test_comments_and_blank_lines(tmp_path, kg3):
    rules = parse_rules(
        rule_file(tmp_path, ["# comment", "", "r1(a,b) <= r2(a,b)\t0.5  # trailing"]), kg3
    )
    assert len(rules) == 1


# The 8 syntactic length-2 forms and their expected chain encodings.
CONVERSION_MODES = [
    ("r1(a,e) & r2(e,b)", ("r1", "r2")),
    ("r1(e,b) & r2(a,e)", ("r2", "r1")),
    ("r1(e,b) & r2(e,a)", ("r2^-1", "r1")),
    ("r1(e,a) & r2(e,b)", ("r1^-1", "r2")),
    ("r1(a,e) & r2(b,e)", ("r1", "r2^-1")),
    ("r1(b,e) & r2(a,e)", ("r2", "r1^-1")),
    ("r1(e,a) & r2(b,e)", ("r1^-1", "r2^-1")),
    ("r1(b,e) & r2(e,a)", ("r2^-1", "r1^-1")),
]


@pytest.mark.parametrize("body,expected", CONVERSION_MODES)
def test_all_eight_conversion_modes(tmp_path, kg3, body, expected):
    rules = parse_rules(rule_file(tmp_path, [f"r3(a,b) <= {body}\t0.8"]), kg3)
    chain = encode_rule(rules[0], kg3)
    assert chain is not None
    assert chain.head == kg3.relation_id("r3")
    assert chain.body == tuple(kg3.relation_id(name) for name in expected)
    assert chain.confidence == 0.8


def test_length_one_inverted_encoding(tmp_path, kg3):
    rules = parse_rules(rule_file(tmp_path, ["r2(a,b) <= r1(b,a)\t0.7"]), kg3)
    chain = encode_rule(rules[0], kg3)
    assert chain.body == (kg3.inverse(kg3.relation_id("r1")),)
    assert chain.confidence == 0.7


def test_inverse_marker_canonicalized(tmp_path, kg3):
    # body r1^-1(b,a) traverses a->b as inv(inv(r1)) = r1
    rules = parse_rules(rule_file(tmp_path, ["r2(a,b) <= r1^-1(b,a)\t0.7"]), kg3)
    chain = encode_rule(rules[0], kg3)
    assert chain.body == (kg3.relation_id("r1"),)


@pytest.mark.parametrize(
    "body",
    [
        "r1(a,a)",                 # repeated variable, length 1
        "r1(a,e)",                 # unsafe variable e, length 1
        "r1(a,b) & r2(b,a)",       # no intermediate variable
        "r1(a,e) & r2(a,e)",       # b never bound
        "r1(e,e) & r2(a,b)",       # repeated variable in atom
        "r1(a,e) & r2(a,b)",       # chain does not pass through e
    ],
)
def test_non_chainable_rejected(tmp_path, kg3, body):
    rules = parse_rules(rule_file(tmp_path, [f"r3(a,b) <= {body}\t0.8"]), kg3)
    assert encode_rule(rules[0], kg3) is None


def test_head_not_ab_rejected(kg3):
    rule = RawRule(head=(kg3.relation_id("r3"), "b", "a"),
                   body=((kg3.relation_id("r1"), "a", "b"),), confidence=0.5)
    assert encode_rule(rule, kg3) is None


def test_index_keeps_highest_confidence(kg3):
    r1, r2 = kg3.relation_id("r1"), kg3.relation_id("r2")
    u = ChainRule(head=kg3.relation_id("r3"), body=(r1, r2), confidence=0.9)
    v = ChainRule(head=kg3.relation_id("r1"), body=(r1, r2), confidence=0.7)
    index = build_index([u, v], 0.0)
    assert index.rule_for((r1, r2)) is u


def test_index_tie_breaks_to_smaller_head(kg3):
    r1, r2 = kg3.relation_id("r1"), kg3.relation_id("r2")
    u = ChainRule(head=2, body=(r1, r2), confidence=0.9)
    v = ChainRule(head=0, body=(r1, r2), confidence=0.9)
    index = build_index([u, v], 0.0)
    assert index.rule_for((r1, r2)).head == 0


def test_threshold_filters(kg3):
    stats = ParseStats()
    low = ChainRule(head=0, body=(1,), confidence=0.6)
    high = ChainRule(head=0, body=(2,), confidence=0.96)
    index = build_index([low, high], 0.7, stats)
    assert index.deduced_from(1) == ()
    assert index.deduced_from(2) == ((0, 0.96),)
    assert stats.dropped_by_threshold == 1


def test_empty_rule_list():
    index = build_index([], 0.7)
    assert index.n_r1 == index.n_r2 == 0


def test_r1_assoc_keeps_max_beta():
    a = ChainRule(head=0, body=(1,), confidence=0.5)
    b = ChainRule(head=0, body=(1,), confidence=0.8)
    index = build_index([a, b], 0.0)
    assert index.deduced_from(1) == ((0, 0.8),)


def test_bad_threshold():
    with pytest.raises(ValueError):
        build_index([], 1.5)


def test_amie_adapter(tmp_path, kg3):
    """parse_rules reads AMIE's export; its header line marks the file as AMIE."""
    lines = [
        "Rule\tHead Coverage\tStd Confidence\tPCA Confidence",
        "?a  r1  ?c  ?c  r2  ?b   => ?a  r3  ?b\t0.5\t0.6\t0.81",
        "?b  r1  ?a  => ?a  r2  ?b\t0.4\t0.5\t0.9",
    ]
    path = tmp_path / "amie.tsv"
    path.write_text("\n".join(lines) + "\n")
    rules = parse_rules(path, kg3)
    assert len(rules) == 2
    assert rules[0].confidence == 0.81
    chain = encode_rule(rules[0], kg3)
    assert chain.body == (kg3.relation_id("r1"), kg3.relation_id("r2"))
    chain1 = encode_rule(rules[1], kg3)
    assert chain1.body == (kg3.inverse(kg3.relation_id("r1")),)


def test_amie_relation_iri_keeps_its_hash(tmp_path):
    """An AMIE file without its header: only a line starting with '#' is a
    comment, and a '#' inside a relation IRI is part of the name."""
    iri = "<http://example.org/onto#r2>"
    kg = make_kg([("a", "r1", "b"), ("a", iri, "b")])
    path = rule_file(tmp_path, [
        "# AMIE+ output",
        f"?b  r1  ?a  => ?a  {iri}  ?b\t0.4\t0.5\t0.9",
        f"?a  {iri}  ?b  => ?a  r1  ?b\t0.4\t0.5\t0.8",
    ])
    rules = parse_rules(path, kg)
    assert [r.head[0] for r in rules] == [kg.relation_id(iri), kg.relation_id("r1")]
    assert rules[1].body == ((kg.relation_id(iri), "a", "b"),)


@pytest.mark.parametrize("inner, chained", [("?x  ?x", True), ("?x  ?y", False)],
                         ids=["linked", "unlinked"])
def test_amie_body_of_two_inner_variables_is_rejected(tmp_path, inner, chained):
    """One body variable outside the head links the two atoms into a chain;
    two distinct ones leave the body unconnected, which no chain from a to b
    expresses: that rule is rejected and counted, not an error."""
    kg = make_kg([("a", "r", "x"), ("y", "s", "b"), ("a", "h", "b")])
    x, y = inner.split()
    path = rule_file(tmp_path, [f"?a  r  {x}  {y}  s  ?b  => ?a  h  ?b\t0.5\t0.6\t0.9"])
    stats = ParseStats()
    encoded = encode_rules(parse_rules(path, kg, stats), kg, stats)
    chain = ChainRule(kg.relation_id("h"), (kg.relation_id("r"), kg.relation_id("s")), 0.9)
    assert encoded == ([chain] if chained else [])
    assert stats.rejected_not_chainable == (0 if chained else 1)


@pytest.mark.parametrize("first", ["normalized", "amie"])
def test_rule_file_syntax_is_fixed_by_its_first_rule(tmp_path, kg3, first):
    """Blank and comment lines before the first rule decide nothing; a line in
    the other syntax after it fails with its line number."""
    lines = {
        "normalized": "r3(a,b) <= r1(a,e) & r2(e,b)\t0.9  # inline comment",
        "amie": "?a  r1  ?b  => ?a  r2  ?b\t0.4\t0.5\t0.9",
    }
    second = "amie" if first == "normalized" else "normalized"
    path = rule_file(tmp_path, ["# header comment", "", lines[first], lines[second]])
    with pytest.raises(RuleParseError, match=r"rules\.tsv:4:"):
        parse_rules(path, kg3)
    path = rule_file(tmp_path, ["", lines[first], lines[first]])
    assert len(parse_rules(path, kg3)) == 2


# --- encoding soundness on random ground graphs ---


def _holds(kg, triples, x, rel, y):
    if rel >= kg.n_base_relations:
        return (y, rel - kg.n_base_relations, x) in triples
    return (x, rel, y) in triples


def _original_satisfied(kg, triples, atoms, env):
    entities = range(kg.n_entities)
    needs_e = any("e" in (v1, v2) for _, v1, v2 in atoms)
    candidates = entities if needs_e else [None]
    for e in candidates:
        scope = dict(env, e=e)
        if all(_holds(kg, triples, scope[v1], rel, scope[v2]) for rel, v1, v2 in atoms):
            return True
    return False


def _chain_satisfied(kg, triples, body, env):
    if len(body) == 1:
        return _holds(kg, triples, env["a"], body[0], env["b"])
    return any(
        _holds(kg, triples, env["a"], body[0], e)
        and _holds(kg, triples, e, body[1], env["b"])
        for e in range(kg.n_entities)
    )


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_encoding_soundness_on_ground_graphs(data):
    n_ent = data.draw(st.integers(3, 5))
    names = [f"e{i}" for i in range(n_ent)]
    rels = ["r1", "r2", "r3"]
    edges = data.draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(rels), st.sampled_from(names)),
            min_size=1,
            max_size=12,
        )
    )
    # seed triples so every relation and entity is interned
    seed_edges = [(names[0], rel, names[-1]) for rel in rels]
    kg = make_kg(seed_edges + edges)
    triples = set(kg.train)
    body_txt, _ = data.draw(st.sampled_from(CONVERSION_MODES))
    atoms = []
    for part in body_txt.split("&"):
        part = part.strip()
        rel, rest = part.split("(")
        v1, v2 = rest.rstrip(")").split(",")
        atoms.append((kg.relation_id(rel), v1, v2))
    raw = RawRule(head=(kg.relation_id("r3"), "a", "b"), body=tuple(atoms), confidence=1.0)
    chain = encode_rule(raw, kg)
    assert chain is not None
    for a in range(kg.n_entities):
        for b in range(kg.n_entities):
            env = {"a": a, "b": b}
            assert _original_satisfied(kg, triples, atoms, env) == _chain_satisfied(
                kg, triples, chain.body, env
            )


@given(
    rules=st.lists(
        st.builds(
            ChainRule,
            head=st.integers(0, 5),
            body=st.tuples(st.integers(0, 5), st.integers(0, 5)),
            confidence=st.floats(0, 1),
        ),
        max_size=40,
    ),
    threshold=st.floats(0, 1),
)
@settings(max_examples=80, deadline=None)
def test_index_dominance(rules, threshold):
    index = build_index(rules, threshold)
    for rule in index.r2_index.values():
        assert rule.confidence >= threshold
    for rule in rules:
        if rule.confidence >= threshold:
            best = index.rule_for(rule.body)
            assert best is not None and best.confidence >= rule.confidence
