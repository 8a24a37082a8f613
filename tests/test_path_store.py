"""The array path store and its compiled scoring and training against the dict
and per-path oracles of ``oracles.py``, bit for bit (``float.hex``)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from rpje.compose import Composer
from rpje.evaluation import Scorer
from rpje.model import EmbeddingTable, TrainingConfig
from rpje.paths import Path, PathFinder, extract_paths
from rpje.rules import ChainRule, build_index
from rpje.training import NegativeSampler, hinge_table, loss_and_gradients

from conftest import make_kg, train_pairs
from oracles import OracleScorer, PathSet, store_from_pairs
from test_paths import oracle_paths, oracle_walk
from test_training import OracleSampler, hexes, one_batch, oracle_loss_and_gradients


def random_store(rng, n_ent, n_rel, max_steps, pairs, many):
    """A store over ``pairs``: 1..3 paths each, or up to 60 when ``many``, with
    random relation ids (inverse ids included) and reliabilities."""
    found = {}
    for pair in sorted(pairs):
        k = int(rng.integers(1, 61 if many else 4))
        found[pair] = tuple(
            Path(
                tuple(rng.integers(0, n_rel, size=int(rng.integers(2, max_steps + 1))).tolist()),
                float(rng.uniform(1e-3, 1.0)),
            )
            for _ in range(k)
        )
    return store_from_pairs(max_steps, 0.0, found, cap=60)


def random_index(rng, n_base, density):
    """Length-2 rules on a ``density`` share of the body pairs (inverse ids
    included), plus length-1 rules; density 0 composes nothing, 1 composes every
    path fully."""
    n_rel = 2 * n_base
    rules = []
    for a in range(n_rel):
        for b in range(n_rel):
            if rng.random() < density:
                head = int(rng.integers(n_rel))
                rules.append(ChainRule(head, (a, b), float(rng.uniform(0.5, 1.0))))
    for r in range(n_base):
        rules.append(ChainRule(int(rng.integers(n_rel)), (r,), float(rng.uniform(0.5, 1.0))))
    return build_index(rules, 0.0)


def random_table(rng, n_ent, n_base, dim):
    return EmbeddingTable(rng.normal(size=(n_ent, dim)), rng.normal(size=(n_base, dim)))


def assert_scores_match(scorer, oracle, n_ent, n_rel, n_base):
    """Entity scores for every relation, inverse ids included, the rivals of
    every true entity among them, and relation scores for every pair, as whole
    vectors and one candidate at a time."""
    for r in range(n_rel):
        for e in range(n_ent):
            tails, heads = oracle.tail_scores(e, r), oracle.head_scores(r, e)
            assert hexes(scorer.tail_scores(e, r)) == hexes(tails)
            assert hexes(scorer.head_scores(r, e)) == hexes(heads)
            for true in range(n_ent):
                assert (scorer.entity_rivals(e, r, true, "tail") == (tails <= tails[true])).all()
                assert (scorer.entity_rivals(true, r, e, "head") == (heads <= heads[true])).all()
    for h in range(n_ent):
        for t in range(n_ent):
            scores = scorer.relation_scores(h, t)
            assert hexes(scores) == hexes(oracle.relation_scores(h, t))
            assert hexes(scores) == [oracle.score(h, r, t).hex() for r in range(n_base)]


@given(
    seed=st.integers(0, 2**32 - 1),
    n_ent=st.integers(1, 7),
    n_base=st.integers(1, 3),
    max_steps=st.sampled_from([2, 3]),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    many=st.booleans(),
    norm=st.sampled_from(["L1", "L2"]),
    dim=st.sampled_from([3, 8, 17, 32, 136]),
    alpha=st.sampled_from([1.0, 0.35]),
    prefilter=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_scorer_matches_per_path_oracle(seed, n_ent, n_base, max_steps, density, many, norm,
                                        dim, alpha, prefilter):
    """Tail and head scores (E1), their rivals, and relation scores (Q) from the
    compiled store equal the per-path loop over the dict oracle, on random stores
    and rule sets, with the entity table prefiltered in float32 or not."""
    rng = np.random.default_rng(seed)
    all_pairs = [(h, t) for h in range(n_ent) for t in range(n_ent)]
    chosen = rng.permutation(len(all_pairs))[: int(rng.integers(0, len(all_pairs) + 1))]
    store = random_store(rng, n_ent, 2 * n_base, max_steps, [all_pairs[i] for i in chosen], many)
    index = random_index(rng, n_base, density)
    emb = random_table(rng, n_ent, n_base, dim)
    scorer = Scorer(emb, store, Composer(index), alpha, norm)
    if prefilter:
        scorer.PREFILTER_FROM = 0
    oracle = OracleScorer(emb, PathSet.of(store), Composer(index), alpha, norm)
    assert_scores_match(scorer, oracle, n_ent, 2 * n_base, n_base)


multigraphs = st.lists(
    st.tuples(*(st.sampled_from(names) for names in (["a", "b", "c", "d", "e"], "pq", "abcde"))),
    min_size=1, max_size=20,
)


@given(
    edges=multigraphs,
    max_steps=st.sampled_from([2, 3]),
    density=st.sampled_from([0.0, 0.5]),
    norm=st.sampled_from(["L1", "L2"]),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_finder_scores_match_per_path_oracle(edges, max_steps, density, norm, seed):
    """Relation scores from the store of every pair, walked together, and from
    each pair's own one-pair store, as ``explain`` walks it, equal the per-path
    loop over the dict walk's paths."""
    kg = make_kg(edges)
    rng = np.random.default_rng(seed)
    index = random_index(rng, kg.n_base_relations, density)
    emb = random_table(rng, kg.n_entities, kg.n_base_relations, 5)
    walked = {}
    for h in range(kg.n_entities):
        for t, found in sorted(oracle_walk(kg, h, max_steps).items()):
            if paths := oracle_paths(found, 0.0, 200):
                walked[(h, t)] = paths
    oracle = OracleScorer(emb, PathSet(max_steps, 0.0, pairs=walked), Composer(index), 1.0, norm)
    finder = PathFinder(kg, max_steps, 0.0)
    pairs = [(h, t) for h in range(kg.n_entities) for t in range(kg.n_entities)]
    scorer = Scorer(emb, finder.find(pairs), Composer(index), 1.0, norm)
    assert_scores_match(scorer, oracle, kg.n_entities, kg.n_relations, kg.n_base_relations)
    for h, t in pairs:
        one = Scorer(emb, finder.find([(h, t)]), Composer(index), 1.0, norm)
        assert hexes(one.relation_scores(h, t)) == hexes(oracle.relation_scores(h, t))


def test_store_views_match_dict_oracle(toy_kg):
    """Each pair's paths are one slice of the store, in pair order; a pair
    outside the store has an empty one."""
    store = extract_paths(toy_kg, 3, 0.0, 5)
    oracle = PathSet.of(store)
    assert len(store.pairs) == len(oracle.pairs) and store.n_paths == oracle.n_paths
    assert list(store.pairs.items()) == list(oracle.pairs.items())
    stop = 0
    for (h, t), paths in oracle.pairs.items():
        sel = store.between(h, t)
        assert sel.start == stop and sel.stop - sel.start == len(paths)
        assert store.path_objects(sel) == paths
        stop = sel.stop
    assert stop == store.n_paths
    for h in range(toy_kg.n_entities):
        for t in range(toy_kg.n_entities):
            if (h, t) not in oracle.pairs:
                assert store.between(h, t) == slice(0, 0) and store.paths_between(h, t) == ()


@given(
    edges=multigraphs,
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    many=st.booleans(),
    norm=st.sampled_from(["L1", "L2"]),
)
@settings(max_examples=60, deadline=None)
def test_path_hinges_match_per_hinge_oracle(edges, seed, density, many, norm):
    """One batch's losses and subgradients from the compiled store's arrays equal
    the per-hinge loop, which composes every path and reads the dict oracle."""
    kg = make_kg(edges)
    rng = np.random.default_rng(seed)
    pairs = train_pairs(kg)
    keep = int(rng.integers(1, len(pairs) + 1))
    chosen = [pairs[i] for i in rng.permutation(len(pairs))[:keep]]
    store = random_store(rng, kg.n_entities, kg.n_relations, 3, chosen, many)
    index = random_index(rng, kg.n_base_relations, density)
    emb = random_table(rng, kg.n_entities, kg.n_base_relations, 6)
    cfg = TrainingConfig(dim=6, norm=norm, margin_path=3.0, margin_relpair=2.0)
    batch = one_batch(kg, store, index, cfg, NegativeSampler(kg, seed=seed % 1000))
    losses, update = loss_and_gradients(batch, hinge_table(emb))
    parts = batch.parts(losses)
    want, grads = oracle_loss_and_gradients(
        kg.train, PathSet.of(store), Composer(index), emb, cfg, OracleSampler(kg, seed=seed % 1000)
    )
    assert [parts.triple.hex(), parts.path.hex(), parts.relpair.hex()] == [
        float(x).hex() for x in want
    ]
    assert update.relation_rows.tolist() == sorted(grads.relation)
    assert hexes(update.relation) == hexes([grads.relation[r] for r in sorted(grads.relation)])
    assert update.entity_rows.tolist() == sorted(grads.entity)
    assert hexes(update.entity) == hexes([grads.entity[e] for e in sorted(grads.entity)])
