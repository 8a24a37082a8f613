import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpje.compose import Composer
from rpje.energy import composed_relations, signed_relations
from rpje.model import EmbeddingTable
from rpje.rules import ChainRule, build_index

from conftest import make_kg
from oracles import residual_matrix


def confidences(cr):
    """The confidences of the rules ``cr`` applied, in order."""
    return tuple(rule.confidence for rule in cr.applied_rules)


@pytest.fixture
def figure_kg():
    return make_kg(
        [
            ("david", "bornincity", "sf"),
            ("sf", "cityinstate", "ca"),
            ("ca", "stateincountry", "usa"),
            ("x", "borninstate", "y"),
            ("x", "bornincountry", "y"),
        ]
    )


@pytest.fixture
def figure_index(figure_kg):
    kg = figure_kg
    rid = kg.relation_id
    rules = [
        ChainRule(head=rid("borninstate"), body=(rid("bornincity"), rid("cityinstate")),
                  confidence=0.95),
        ChainRule(head=rid("bornincountry"),
                  body=(rid("borninstate"), rid("stateincountry")), confidence=0.9),
    ]
    return build_index(rules, 0.7)


def test_two_step_composition(figure_kg, figure_index):
    kg = figure_kg
    composer = Composer(figure_index)
    cr = composer.compose((kg.relation_id("bornincity"), kg.relation_id("cityinstate")))
    assert cr.residual == (kg.relation_id("borninstate"),)
    assert confidences(cr) == (0.95,)
    assert cr.fully_composed


def test_iterative_three_step_composition(figure_kg, figure_index):
    kg = figure_kg
    composer = Composer(figure_index)
    seq = (
        kg.relation_id("bornincity"),
        kg.relation_id("cityinstate"),
        kg.relation_id("stateincountry"),
    )
    cr = composer.compose(seq)
    assert cr.residual == (kg.relation_id("bornincountry"),)
    assert len(cr.applied_rules) == 2
    assert confidences(cr) == (0.95, 0.9)


def test_no_matching_rule(figure_kg, figure_index):
    kg = figure_kg
    composer = Composer(figure_index)
    seq = (kg.relation_id("stateincountry"), kg.relation_id("bornincity"))
    cr = composer.compose(seq)
    assert cr.residual == seq
    assert cr.applied_rules == ()
    assert not cr.fully_composed


def test_competing_rules_use_max_confidence():
    # u <= (0,1) at 0.9 beats v <= (0,1) at 0.7; the index pre-selects
    u = ChainRule(head=2, body=(0, 1), confidence=0.9)
    v = ChainRule(head=3, body=(0, 1), confidence=0.7)
    index = build_index([u, v], 0.0)
    cr = Composer(index).compose((0, 1))
    assert cr.residual == (2,)
    assert confidences(cr) == (0.9,)
    # brute force over both candidate applications agrees with the index choice
    results = {rule.head: rule.confidence for rule in (u, v)}
    assert max(results.items(), key=lambda kv: kv[1])[0] == 2


def test_applied_count_equals_shrinkage():
    rules = [ChainRule(head=0, body=(0, 0), confidence=0.5)]
    index = build_index(rules, 0.0)
    for seq in [(0, 0), (0, 0, 0), (1, 0), (0, 1, 0)]:
        cr = Composer(index).compose(tuple(seq))
        assert len(cr.applied_rules) == len(seq) - len(cr.residual)
        assert len(cr.applied_rules) <= len(seq) - 1


def test_leftmost_pair_composes_first():
    # both (0,1) and (1,2) match; leftmost wins, then no further match
    rules = [
        ChainRule(head=5, body=(0, 1), confidence=0.8),
        ChainRule(head=6, body=(1, 2), confidence=0.9),
    ]
    index = build_index(rules, 0.0)
    cr = Composer(index).compose((0, 1, 2))
    assert cr.residual == (5, 2)
    assert confidences(cr) == (0.8,)


def test_determinism():
    rules = [ChainRule(head=1, body=(0, 0), confidence=0.5)]
    composer = Composer(build_index(rules, 0.0))
    a = composer.compose((0, 0, 0))
    b = composer.compose((0, 0, 0))
    assert a == b
    assert a == Composer(build_index(rules, 0.0)).compose((0, 0, 0))


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        Composer(build_index([], 0.0)).compose(())


def test_confidence_product_values():
    index = build_index([], 0.0)
    cr = Composer(index).compose((0, 1))
    assert cr.confidence_product == 1.0

    index81 = build_index([ChainRule(head=2, body=(0, 1), confidence=0.81)], 0.0)
    cr81 = Composer(index81).compose((0, 1))
    assert cr81.confidence_product == pytest.approx(0.81)

    rules = [
        ChainRule(head=3, body=(0, 1), confidence=0.9),
        ChainRule(head=4, body=(3, 2), confidence=0.8),
    ]
    cr2 = Composer(build_index(rules, 0.0)).compose((0, 1, 2))
    assert cr2.confidence_product == pytest.approx(0.72)


@given(
    confs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_confidence_product_bounded_by_min(confs):
    rules = [ChainRule(head=i, body=(i, i), confidence=c) for i, c in enumerate(confs)]
    product = np.prod(confs)
    assert product <= min(confs) + 1e-12


def _table(n_rel=4, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(rng.normal(size=(3, dim)), rng.normal(size=(n_rel, dim)))


def composed(cr, emb):
    """C(p) of ``cr``'s residual, as scoring computes it."""
    return composed_relations(signed_relations(emb), residual_matrix([cr.residual]))[0]


def test_compose_embedding_single_residual():
    emb = _table()
    index = build_index([], 0.0)
    cr = Composer(index).compose((2,))
    np.testing.assert_array_equal(composed(cr, emb), emb.relations[2])


def test_compose_embedding_additive_fallback():
    emb = _table()
    cr = Composer(build_index([], 0.0)).compose((1, 2))
    np.testing.assert_allclose(composed(cr, emb), emb.relations[1] + emb.relations[2])


def test_compose_embedding_inverse_cancels():
    emb = _table()
    n = emb.n_base_relations
    cr = Composer(build_index([], 0.0)).compose((1, 1 + n))  # r then inv(r)
    np.testing.assert_allclose(composed(cr, emb), np.zeros(emb.dim), atol=1e-15)


# --- independent re-implementation of the leftmost-first strategy ---


def oracle_compose(seq, index):
    """Straightforward rewrite loop: restart the scan after every application."""
    seq = list(seq)
    confidences = []
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(seq):
            rule = index.rule_for((seq[i], seq[i + 1]))
            if rule is not None:
                seq = seq[:i] + [rule.head] + seq[i + 2 :]
                confidences.append(rule.confidence)
                changed = True
                break
            i += 1
    return tuple(seq), tuple(confidences)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_oracle_equivalence(data):
    n_rel = data.draw(st.integers(2, 10))
    n_rules = data.draw(st.integers(0, 20))
    rules = [
        ChainRule(
            head=data.draw(st.integers(0, n_rel - 1)),
            body=(data.draw(st.integers(0, n_rel - 1)), data.draw(st.integers(0, n_rel - 1))),
            confidence=data.draw(st.floats(0.0, 1.0)),
        )
        for _ in range(n_rules)
    ]
    index = build_index(rules, 0.0)
    length = data.draw(st.integers(2, 3))
    seq = tuple(data.draw(st.integers(0, n_rel - 1)) for _ in range(length))
    cr = Composer(index).compose(seq)
    residual, confs = oracle_compose(seq, index)
    assert cr.residual == residual
    assert confidences(cr) == confs
