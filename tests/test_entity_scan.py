"""Entity ranking from the dimension-major copy of the entity table: the scan
against row-major ``triple_energy`` in ``float.hex``, and ``evaluate``'s
relation-ordered visit against a loop in test-triple order."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rpje.compose import Composer
from rpje.energy import column_dissimilarity, triple_energy
from rpje.evaluation import Scorer, evaluate, explain
from rpje.model import TrainingConfig, init_embeddings
from rpje.paths import PathFinder, extract_paths
from rpje.rules import build_index

from oracles import evaluate_in_triple_order


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def wide_values(rng, shape, kind):
    """Floats of magnitude 1e-150..1e150 with random signs, or small integers
    (many exact ties); either with a share of +0.0 and -0.0."""
    if kind == "wide":
        x = 10.0 ** rng.uniform(-150, 150, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    else:
        x = rng.integers(-3, 4, size=shape).astype(float)
    zeros = rng.random(shape) < 0.1
    x[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return x


@given(
    dim=st.integers(1, 300),
    n_ent=st.integers(1, 50),
    norm=st.sampled_from(["L1", "L2"]),
    kind=st.sampled_from(["wide", "ties"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=7, n_ent=3, norm="L1", kind="wide", seed=0)
@example(dim=8, n_ent=3, norm="L2", kind="wide", seed=1)
@example(dim=128, n_ent=5, norm="L1", kind="wide", seed=2)
@example(dim=129, n_ent=5, norm="L2", kind="wide", seed=3)
@example(dim=136, n_ent=50, norm="L1", kind="ties", seed=4)
@example(dim=300, n_ent=2, norm="L2", kind="wide", seed=5)
@settings(max_examples=150, deadline=None)
def test_scan_matches_row_major_energy(dim, n_ent, norm, kind, seed):
    """Tail and head energies from the dimension-major table equal row-major
    ``triple_energy`` bit for bit, for dims in every branch of numpy's summation
    order (<8, 8..128, >128)."""
    rng = np.random.default_rng(seed)
    ent = wide_values(rng, (n_ent, dim), kind)
    if n_ent > 1:
        ent[-1] = ent[0]  # an exact tie between two candidates
    r = wide_values(rng, dim, kind)
    by_dim = np.ascontiguousarray(ent.T)
    for e in {0, n_ent - 1}:
        tail = column_dissimilarity((ent[e] + r)[:, None], by_dim, norm)
        assert hexes(tail) == hexes(triple_energy(ent[e], r, ent, norm))
        head = column_dissimilarity(by_dim + r[:, None], ent[e][:, None], norm)
        assert hexes(head) == hexes(triple_energy(ent, r, ent[e], norm))


def toy_setup(toy_kg):
    emb = init_embeddings(toy_kg, TrainingConfig(dim=12, seed=3))
    return emb, extract_paths(toy_kg, max_steps=2), build_index([], 0.7)


@pytest.mark.parametrize("norm", ["L1", "L2"])
@pytest.mark.parametrize("relations_too", [True, False])
@pytest.mark.parametrize("dimension_major_from", [0, Scorer.DIMENSION_MAJOR_FROM])
def test_evaluate_matches_triple_order_loop(toy_kg, norm, relations_too, dimension_major_from,
                                            monkeypatch):
    """Reports, per-category hits included, equal those of one query after
    another in test-triple order, on query triples shuffled across relations,
    with the toy table scanned dimension-major or row-major. The toy test split
    holds two N-1 relations, so train triples of every relation join it."""
    monkeypatch.setattr(Scorer, "DIMENSION_MAJOR_FROM", dimension_major_from)
    emb, _, index = toy_setup(toy_kg)
    rng = np.random.default_rng(0)
    queries = toy_kg.test + [toy_kg.train[i] for i in rng.choice(len(toy_kg.train), 60, False)]
    triples = [queries[i] for i in rng.permutation(len(queries))]
    relations = [r for _, r, _ in triples]
    assert relations != sorted(relations) and len(set(relations)) == toy_kg.n_base_relations
    finder = PathFinder(toy_kg, 2)
    got = evaluate(emb, finder, index, toy_kg, 1.0, norm, test_triples=triples,
                   rank_relations_too=relations_too)
    scorer = Scorer(emb, finder.find([(h, t) for h, _, t in triples]), Composer(index), 1.0, norm)
    want = evaluate_in_triple_order(scorer, toy_kg, triples, relations_too)
    assert got == want
    assert all(len(rep.per_category) == 2 for rep in got if rep.per_category)


def test_relation_scores_build_no_dimension_major_copy(toy_kg, monkeypatch):
    """Relation ranking, and so ``explain``, never copies the entity table; the
    first entity query does, and only for a table of at least
    ``DIMENSION_MAJOR_FROM`` entities."""
    emb, store, index = toy_setup(toy_kg)
    assert emb.n_entities < Scorer.DIMENSION_MAJOR_FROM
    scorer = Scorer(emb, store, Composer(index), 1.0, "L1")
    scorer.tail_scores(0, 0)
    scorer.head_scores(0, 1)
    assert scorer._by_dim is None
    monkeypatch.setattr(Scorer, "DIMENSION_MAJOR_FROM", 0)
    calls = []
    real = Scorer._dimension_major
    monkeypatch.setattr(Scorer, "_dimension_major", lambda self: calls.append(1) or real(self))
    explain(emb, PathFinder(toy_kg, 2), index, toy_kg, 0, 1)
    scorer = Scorer(emb, store, Composer(index), 1.0, "L1")
    for h in range(5):
        scorer.relation_scores(h, h + 1)
    assert calls == [] and scorer._by_dim is None
    scorer.tail_scores(0, 0)
    assert scorer._by_dim[0].shape == (emb.dim, emb.n_entities)
