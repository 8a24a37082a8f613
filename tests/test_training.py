import contextlib
import errno
import fcntl
import itertools
import os
import pickle
import signal
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rpje.compose import Composer
from rpje.energy import NORMS, dissimilarity
from rpje.model import EmbeddingTable, TrainingConfig, init_embeddings
from rpje import training
from rpje.paths import extract_paths
from rpje.rules import ChainRule, build_index
from rpje.training import (
    PATH,
    RELPAIR,
    TERMS,
    TRIPLE,
    DivergenceError,
    HingeLayout,
    NegativeSampler,
    SpanPlanner,
    TrainPlan,
    hinge_table,
    loss_and_gradients,
    project_entities,
    train,
)

from conftest import assert_no_child, make_kg
from oracles import (
    Path, PathSet, batch_parts, compose_embedding, loop_row_sums, packed_cuts, path_weight,
    residual_matrix, store_from_pairs, triple_set, update_parts,
)


def small_kg():
    return make_kg(
        [("a", "r", "b"), ("b", "s", "c"), ("c", "r", "d"), ("d", "s", "a"), ("a", "s", "c")]
    )


def empty_paths():
    return store_from_pairs(max_steps=2, cutoff=0.01, pairs={})


def random_table(kg, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(
        rng.normal(size=(kg.n_entities, dim)), rng.normal(size=(kg.n_base_relations, dim))
    )


# --- each loss term written in the fused layout ---


def _zero_row(emb):
    return emb.n_entities + 2 * emb.n_base_relations


def triple_hinges(emb, ids):
    """L1 hinges over ``ids`` (K, 2, 3), each side's (h, r, t) as h + r - t."""
    rows = np.stack((ids[..., 0], emb.n_entities + ids[..., 1], ids[..., 2]), axis=-1)
    return np.full(len(ids), TRIPLE), rows, np.ones((len(ids), 2))


def path_hinges(emb, residual, weight, r):
    """L2 hinges C(p) - r and C(p) - r'; ``residual`` padded with -1, ``weight``
    per path and ``r`` (K, 2). Each side sums the residual, padded with the zero
    row to a width of at least 2, less r or r', as ``TrainPlan`` lays them out."""
    short = max(0, 2 - residual.shape[1])
    residual = np.pad(residual, ((0, 0), (0, short)), constant_values=-1)
    x = np.where(residual >= 0, emb.n_entities + residual, _zero_row(emb))
    x = np.repeat(x[:, None], 2, axis=1)
    w = np.repeat(np.asarray(weight, dtype=float)[:, None], 2, axis=1)
    return np.full(len(r), PATH), np.dstack((x, emb.n_entities + r)), w


def relpair_hinges(emb, r, beta):
    """L3 hinges r - r_e and r - r' over ``r`` (K, 3), weighted (beta, 1); each
    side sums (r, the zero row) less r_e or r', as ``TrainPlan`` lays them out."""
    rows = np.full((len(r), 2, 3), _zero_row(emb))
    rows[:, :, 0] = emb.n_entities + r[:, :1]
    rows[:, :, 2] = emb.n_entities + r[:, 1:]
    w = np.ones((len(r), 2))
    w[:, 0] = beta
    return np.full(len(r), RELPAIR), rows, w


def fused(emb, hinges, cfg):
    """Per-hinge losses and the summed update of one batch of ``hinges``, a
    (kind, rows, weight) triple."""
    kind, rows, weight = hinges
    layout = HingeLayout.of(kind, rows, weight, cfg, emb.n_entities, emb.n_base_relations,
                            [len(kind)])
    return loss_and_gradients(layout, 0, hinge_table(emb))


def apply_update(update, emb, lr):
    """``update.apply`` to ``emb``, through the [entities; relations] table it
    then views, as ``train`` views its hinge table."""
    table = np.concatenate((emb.entities, emb.relations))
    update.apply(table, lr)
    emb.entities, emb.relations = table[: emb.n_entities], table[emb.n_entities :]


def one_batch(kg, ps, index, cfg, seed, triples=None):
    """The one-batch ``HingeLayout`` of train triples ``triples`` (indices;
    default all), planned alone with a fresh ``NegativeSampler(kg, seed)``, which
    holds no exclusion of the plan's until the plan sets it."""
    if triples is None:
        triples = np.arange(len(kg.train))
    plan = TrainPlan(kg, ps, index, cfg)
    return plan.span(NegativeSampler(kg, seed=seed), [np.asarray(triples)]).layout


# --- negative sampling ---


@given(seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_negatives_never_in_train(seed):
    kg = small_kg()
    sampler = NegativeSampler(kg, seed=seed)
    in_train = triple_set(kg, kg.train_ids)
    for triple in kg.train:
        for neg in (
            sampler.corrupt_head(triple),
            sampler.corrupt_tail(triple),
            sampler.corrupt_relation(triple),
        ):
            assert neg is not None
            assert neg not in in_train


def test_sampler_gives_up_when_saturated():
    # single entity, single relation, the only possible triple is in train
    kg = make_kg([("a", "r", "a")])
    sampler = NegativeSampler(kg, seed=0, max_attempts=20)
    assert sampler.corrupt_head((0, 0, 0)) is None
    assert sampler.corrupt_tail((0, 0, 0)) is None
    assert sampler.corrupt_relation((0, 0, 0)) is None
    with pytest.raises(ValueError):  # a draw takes at least one value
        NegativeSampler(kg, max_attempts=0)


def test_relation_not_deduced_excludes():
    kg = make_kg([("a", "r", "b"), ("b", "s", "c"), ("c", "t", "a")])
    sampler = NegativeSampler(kg, seed=0)
    deduced = frozenset({0})
    for _ in range(20):
        r = sampler.relation_not_deduced(1, deduced)
        assert r is not None and r not in deduced and r != 1


STREAM_RANGES = [1, 2, 7, 212, 3392, 3 * 2**30 + 5]
# max_attempts 20, and 1 and 2, where a draw that counted its first value wrongly
# (an excluded value is one attempt, a word Lemire's rule rejects none) would
# take another number of words
ATTEMPTS = (20, 1, 2)


def draw(sampler, n):
    """One uniform draw from range(n), n <= 2^32: a plan of one draw with no
    key (-1) to exclude."""
    return sampler.draws((n,), (-1,), (0,))[0]


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_sampler_stream_matches_scalar_draws(seed):
    """Every draw is the value a fresh generator's scalar integers(n) gives, with
    ranges interleaved, across prefetch blocks and around a give-up, which takes
    ``max_attempts`` values; a word that Lemire's rule rejects is no attempt."""
    # both heads of the only (., r, a) triples are in train, so corrupt_head gives up
    kg = make_kg([("a", "r", "a"), ("b", "r", "a")])
    for attempts in ATTEMPTS:
        sampler = NegativeSampler(kg, seed=seed, max_attempts=attempts)
        reference = np.random.default_rng(seed)
        ranges = np.random.default_rng(seed + 1).choice(
            STREAM_RANGES, size=3 * NegativeSampler.BLOCK
        )
        for i, n in enumerate(ranges.tolist()):
            if i == NegativeSampler.BLOCK // 2:
                assert sampler.corrupt_head((0, 0, 0)) is None
                for _ in range(attempts):
                    reference.integers(kg.n_entities)
            assert draw(sampler, n) == reference.integers(n)


def test_sampler_plan_matches_scalar_draws():
    """One plan through ``draws`` interleaves the ranges 1, n_rel and n_ent across
    prefetch blocks, with train-key tests, relation-pair exclusions and give-ups,
    and takes every value a scalar loop of integers(n) calls takes."""
    # (a, r, a) is the only triple with range-1 relation draws; its head draws cannot all be free
    kg = make_kg([("a", "r", "a"), ("b", "r", "a"), ("a", "s", "b"), ("b", "s", "c")])
    n_ent, n_rel = kg.n_entities, kg.n_base_relations
    train_keys = {(h * n_rel + r) * n_ent + t for h, r, t in kg.train}
    # D(r): relation 0 deduces 1's inverse, which no draw can name, so only 0 is
    # excluded against it; relation 1 deduces 0, so every value is (a give-up)
    deduced = ((n_rel + 1,), (0,))
    for attempts in ATTEMPTS:
        sampler = NegativeSampler(kg, seed=5, max_attempts=attempts)
        sampler.exclude_deduced(deduced)
        rng = np.random.default_rng(6)
        plan, free = [], []  # per draw (range, key, stride), and which values are free
        for _ in range(3 * NegativeSampler.BLOCK):
            h, r, t = kg.train[int(rng.integers(len(kg.train)))]
            slot = int(rng.integers(5))
            if slot < 3:
                key, stride = sampler.corruption_keys(h, r, t)[slot]
                plan.append((n_ent if slot < 2 else n_rel, key, stride))
            elif slot == 3:  # range 1, x = 0 taken, or given up as (h, r, t) itself
                key, stride = ((h * n_rel + r) * n_ent + t if rng.integers(2) else -1), 1
                plan.append((1, key, stride))
            else:  # against r: r itself and D(r) excluded
                plan.append((n_rel, *sampler.pair_keys(r)))
                free.append(lambda x, r=r: x != r and x not in deduced[r])
                continue
            free.append(lambda x, key=key, stride=stride: key + x * stride not in train_keys)
        got = sampler.draws(*map(list, zip(*plan)))
        reference = np.random.default_rng(5)
        want = []
        for (n, *_), is_free in zip(plan, free):
            for _ in range(attempts):
                x = int(reference.integers(n))
                if is_free(x):
                    break
            else:
                x = -1
            want.append(x)
        assert got == want
        assert -1 in got and {n for n, *_ in plan} == {1, n_rel, n_ent}
        assert draw(sampler, n_ent) == reference.integers(n_ent)


def test_relation_pair_exclusions_at_scale():
    """With 120 base relations, r deducing a base id past 63 and an inverse id:
    every relation-pair draw of a span is the scalar reference's, which excludes
    r and D(r) itself; r's draws never name r or a base id of D(r), and r + 1's
    draws still name v, whose key r's inverse id v + n_rel would have taken."""
    names = [f"p{i:03d}" for i in range(120)]
    ents = [f"e{i}" for i in range(40)]
    r, v = 80, 10
    rows = [(ents[i % 40], name, ents[(7 * i + 1) % 40]) for i, name in enumerate(names)]
    rows += [(ents[a], names[r], ents[a + 20]) for a in range(20)]
    rows += [(ents[a], names[r + 1], ents[b]) for a in range(20) for b in range(20, 40)]
    kg = make_kg(rows)
    n = kg.n_base_relations
    assert n == 120 and kg.relation_id(names[r]) == r
    index = build_index(
        [ChainRule(head=d, body=(r,), confidence=0.9) for d in (5, 70, n + v)]
        + [ChainRule(head=d, body=(r + 1,), confidence=0.8) for d in (3, 90, 100)],
        0.0,
    )
    cfg = TrainingConfig(dim=4, alpha_paths=0.0, alpha_relpairs=1.0)
    layout = one_batch(kg, empty_paths(), index, cfg, seed=7)
    rows = layout.index[:, layout.kind == RELPAIR]  # r on side 0, r' ends side 1
    pairs = np.stack((rows[0, :, 0], rows[-1, :, 1]), axis=1) - kg.n_entities
    got = list(map(tuple, pairs.tolist()))

    reference = OracleSampler(kg, seed=7)
    want = []
    for triple in kg.train:
        for corrupt in (reference.corrupt_head, reference.corrupt_tail, reference.corrupt_relation):
            assert corrupt(triple) is not None
        deduced = index.deduced_from(triple[1])
        excluded = frozenset(d for d, _ in deduced)
        for _ in deduced:
            want.append((triple[1], reference.relation_not_deduced(triple[1], excluded)))
    assert got == want
    against = {s: {x for q, x in got if q == s} for s in (r, r + 1)}
    assert len(got) == 3 * (21 + 401) and not against[r] & {r, 5, 70}
    assert v in against[r + 1]


# --- hinge behavior ---


def test_inactive_hinge_contributes_nothing():
    kg = small_kg()
    emb = random_table(kg)
    # make the positive perfect: h + r = t exactly
    emb.entities[1] = emb.entities[0] + emb.relations[0]
    # and the negative terrible
    emb.entities[2] = emb.entities[0] + emb.relations[0] + 100.0
    # the second hinge swaps them and is active
    ids = np.array([[(0, 0, 1), (0, 0, 2)], [(0, 0, 2), (0, 0, 1)]])
    cfg = TrainingConfig(dim=6, margin_triple=0.001)
    loss, update = fused(emb, triple_hinges(emb, ids), cfg)
    assert loss[0] == 0.0 and loss[1] > 0.0
    _, alone = fused(emb, triple_hinges(emb, ids[1:]), cfg)
    for got, want in zip(vars(update).values(), vars(alone).values()):
        assert np.array_equal(got, want)


def test_alpha_zero_reduces_to_transe_loss():
    kg = small_kg()
    emb = random_table(kg)
    cfg = TrainingConfig(dim=6, alpha_paths=0.0, alpha_relpairs=0.0)
    ps = extract_paths(kg, 2)
    index = build_index([ChainRule(head=0, body=(0, 1), confidence=0.9)], 0.0)
    layout = one_batch(kg, ps, index, cfg, seed=1)
    parts = batch_parts(layout, loss_and_gradients(layout, 0, hinge_table(emb))[0])
    assert parts.path == 0.0 and parts.relpair == 0.0

    # recompute the pure TransE margin loss with an identical sampling stream
    sampler2 = NegativeSampler(kg, seed=1)
    expected = 0.0
    for h, r, t in kg.train:
        for h2, r2, t2 in (
            sampler2.corrupt_head((h, r, t)),
            sampler2.corrupt_tail((h, r, t)),
            sampler2.corrupt_relation((h, r, t)),
        ):
            pos = dissimilarity(emb.entities[h] + emb.relations[r] - emb.entities[t], "L1")
            neg = dissimilarity(emb.entities[h2] + emb.relations[r2] - emb.entities[t2], "L1")
            expected += max(0.0, cfg.margin_triple + pos - neg)
    assert parts.triple == pytest.approx(expected)


# --- kernel edge cases against the per-hinge loop, in float.hex ---


def oracle_hinges(emb, hinges, cfg):
    """Per-hinge loop over ``hinges``: each loss, and per entity and base relation
    row its subgradients summed from 0.0 in hinge order."""
    table = hinge_table(emb)
    n_ent, n_base = emb.n_entities, emb.n_base_relations
    margin = (cfg.margin_triple, cfg.margin_path, cfg.margin_relpair)
    scale = (1.0, cfg.alpha_paths, cfg.alpha_relpairs)
    losses, grads = [], {}

    def add(row, g):
        if row == _zero_row(emb):
            return
        if row >= n_ent + n_base:
            row, g = row - n_base, -g
        grads[row] = grads.get(row, 0.0) + g

    kinds, hinge_rows, weights = hinges
    for kind, rows, weight in zip(kinds.tolist(), hinge_rows.tolist(), weights):
        d = []
        for *x, y in rows:
            total = table[x[0]]
            for row in x[1:]:
                total = total + table[row]
            d.append(total - table[y])
        loss, gp, gn = _oracle_hinge(margin[kind], *d, cfg.norm, *weight, scale[kind])
        losses.append(loss)
        if gp is None:
            continue
        (*xp, yp), (*xn, yn) = rows
        if kind == TRIPLE:
            for row in xp:
                add(row, gp)
            add(yp, -gp)
            for row in xn:
                add(row, -gn)
        else:
            for row in xp:
                add(row, gp - gn)
            add(yp, -gp)
        add(yn, gn)
    return losses, grads


def assert_matches_oracle(emb, hinges, cfg):
    """The fused pass gives the per-hinge loop's losses and subgradients bit for bit."""
    losses, update = fused(emb, hinges, cfg)
    want, grads = oracle_hinges(emb, hinges, cfg)
    assert hexes(losses) == hexes(want)
    n_ent = emb.n_entities
    entity = sorted(row for row in grads if row < n_ent)
    relation = sorted(row for row in grads if row >= n_ent)
    parts = update_parts(update, n_ent)
    assert parts.entity_rows.tolist() == entity
    assert parts.relation_rows.tolist() == [row - n_ent for row in relation]
    assert hexes(parts.entity) == hexes([grads[row] for row in entity])
    assert hexes(parts.relation) == hexes([grads[row] for row in relation])
    return losses, update


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def joined(emb, *parts):
    """Hinges of every part, their sums padded to one width, in a fixed mixed order."""
    kinds, part_rows, weights = zip(*parts)
    width = max(rows.shape[2] for rows in part_rows)

    def padded(rows):
        pad = np.full((len(rows), 2, width - rows.shape[2]), _zero_row(emb))
        return np.concatenate((rows[..., :-1], pad, rows[..., -1:]), axis=2)

    kind = np.concatenate(kinds)
    order = np.random.default_rng(0).permutation(len(kind))
    rows = np.concatenate([padded(rows) for rows in part_rows])
    return kind[order], rows[order], np.concatenate(weights)[order]


def mixed_hinges(emb, active):
    """Three hinges of each kind, inverse relation ids among them. A hinge whose
    negative lies 100 away is inactive; per kind, the negative of hinge ``active``
    (none if None) stays near, and the margins of ``EDGE_CFG`` keep it active."""
    n = emb.n_base_relations
    far = [row for row in (5, 6, 7) if row != 5 + (-1 if active is None else active)]
    emb.entities[far] += 100.0
    emb.relations[far] += 100.0
    triples = triple_hinges(emb, np.array([
        [(0, 1, 2), (0, 1, 5)], [(1, n + 2, 3), (1, n + 2, 6)], [(2, 0, 4), (2, 0, 7)],
    ]))
    paths = path_hinges(
        emb, residual_matrix([(0, n + 1), (n + 3,), (1, 2, n)]), [0.6, 0.5, 0.7],
        np.array([(2, 5), (3, 6), (4, 7)]),
    )
    relpairs = relpair_hinges(emb, np.array([(0, 1, 5), (1, n + 3, 6), (2, 4, 7)]),
                              [0.9, 0.8, 0.7])
    return joined(emb, triples, paths, relpairs)


def edge_table(seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(rng.normal(size=(8, 6)), rng.normal(size=(8, 6)))


EDGE_CFG = dict(dim=6, margin_triple=20.0, margin_path=20.0, margin_relpair=20.0,
                alpha_paths=1.5, alpha_relpairs=3.0)


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("active", range(3))
def test_one_active_hinge_of_each_kind(norm, active):
    emb = edge_table(active)
    hinges = mixed_hinges(emb, active)
    losses, update = assert_matches_oracle(emb, hinges, TrainingConfig(norm=norm, **EDGE_CFG))
    kinds = hinges[0][losses > 0.0]
    assert sorted(kinds.tolist()) == [TRIPLE, PATH, RELPAIR]
    parts = update_parts(update, emb.n_entities)
    assert len(parts.entity_rows) and len(parts.relation_rows)


@pytest.mark.parametrize("norm", NORMS)
def test_batch_without_active_hinge_touches_no_row(norm):
    emb = edge_table()
    hinges = mixed_hinges(emb, None)
    cfg = TrainingConfig(norm=norm, **EDGE_CFG)
    losses, update = assert_matches_oracle(emb, hinges, cfg)
    assert not losses.any()
    parts = update_parts(update, emb.n_entities)
    assert parts.entity.shape == parts.relation.shape == (0, cfg.dim)
    before = EmbeddingTable(emb.entities.copy(), emb.relations.copy())
    apply_update(update, emb, cfg.lr)
    assert hexes(emb.entities) == hexes(before.entities)
    assert hexes(emb.relations) == hexes(before.relations)


def test_batch_without_hinges_updates_no_row():
    """Every (h, r, t) of two entities and one relation is in train, so every
    negative draw gives up: each batch holds no hinge, has no loss and updates
    no row, and training ends with the first projection's table."""
    kg = make_kg([(h, "r", t) for h in "ab" for t in "ab"])
    cfg = TrainingConfig(dim=4, epochs=2, n_batches=2, seed=0)
    emb = init_embeddings(kg, cfg)
    expected = EmbeddingTable(emb.entities.copy(), emb.relations.copy())
    project_entities(expected)
    result = train(kg, empty_paths(), build_index([], 0.0), cfg, emb=emb)
    assert [row[1:] for row in result.history] == [(0.0, 0.0, 0.0, 0.0)] * 2
    assert all(e["triple"]["giveups"] == e["triple"]["draws"] == 12 for e in result.epochs)
    assert hexes(result.table.entities) == hexes(expected.entities)
    assert hexes(result.table.relations) == hexes(expected.relations)


@pytest.mark.parametrize("norm", NORMS)
def test_nan_loss_stays_active(norm):
    emb = edge_table()
    hinges = mixed_hinges(emb, 0)
    emb.entities[0, 2] = np.nan  # the active triple's head
    cfg = TrainingConfig(norm=norm, **EDGE_CFG)
    losses, update = assert_matches_oracle(emb, hinges, cfg)
    nan = np.isnan(losses)
    assert nan.sum() == 1 and hinges[0][nan] == TRIPLE
    # its rows, h, r and t and the negative's t', all take a NaN
    parts = update_parts(update, emb.n_entities)
    rows = parts.entity_rows.tolist()
    assert all(np.isnan(parts.entity[rows.index(e)]).any() for e in (0, 2, 5))
    assert np.isnan(parts.relation[parts.relation_rows.tolist().index(1)]).any()
    kg = small_kg()
    table = random_table(kg)
    table.entities[0, 0] = np.nan
    with pytest.raises(DivergenceError):
        train(kg, empty_paths(), build_index([], 0.0), TrainingConfig(dim=6, norm=norm), emb=table)


@pytest.mark.parametrize("norm", NORMS)
def test_zero_norm_side_takes_zero_subgradient(norm):
    """A side whose difference is exactly 0, or whose L2 square sum underflows to
    0, has norm 0 and, under L2, subgradient 0 by the ``where=n != 0`` rule."""
    emb = edge_table()
    emb.entities[3] = emb.entities[0] + emb.relations[1]  # 0 + 1 - 3 is exactly 0
    emb.entities[4] = 0.0
    emb.entities[4, 0] = 1e-200  # 4 + 2 - 5 has a square sum below the smallest float
    emb.relations[2] = 0.0
    emb.entities[5] = 0.0
    ids = np.array([[(0, 1, 3), (0, 1, 6)], [(4, 2, 5), (4, 2, 7)]])
    hinges = triple_hinges(emb, ids)
    cfg = TrainingConfig(norm=norm, **EDGE_CFG)
    losses, update = assert_matches_oracle(emb, hinges, cfg)
    assert (losses > 0.0).all()
    rows = hinges[1]
    d = hinge_table(emb)[rows[:, 0, :2]].sum(axis=1) - hinge_table(emb)[rows[:, 0, 2]]
    assert dissimilarity(d, norm).tolist() == [0.0, 0.0 if norm == "L2" else 1e-200]
    if norm == "L2":  # entity 3 is the positive tail alone: its only subgradient is 0
        parts = update_parts(update, emb.n_entities)
        assert hexes(parts.entity[parts.entity_rows.tolist().index(3)]) == ["0x0.0p+0"] * 6


@given(
    # tables of up to 40 rows, where most rows repeat, and of 760 to 1,000, where
    # a batch of up to 60 touches few of them: both take the mask
    n_rows=st.one_of(st.integers(1, 40), st.integers(760, 1000)),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
    dim=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
# a single row, and repeats at 0 and n - 1, of a large table and of small ones
@example(n_rows=1000, picks=[17], dim=3, seed=0)
@example(n_rows=1000, picks=[999, 0, 999, 5, 0, 999, 0], dim=2, seed=1)
@example(n_rows=1, picks=[0], dim=3, seed=0)
@example(n_rows=7, picks=[6, 0, 6, 6, 0, 3], dim=2, seed=1)
@settings(max_examples=80, deadline=None)
def test_row_sums_match_loop_oracle(n_rows, picks, dim, seed):
    """Summing a batch's subgradients per row through ``_row_sums``' mask gives
    the rows and the sum bits of a loop that adds each row's vectors one at a
    time, in input order, from 0.0."""
    rows = np.array([pick % n_rows for pick in picks], dtype=np.intp)
    rng = np.random.default_rng(seed)
    # magnitudes far apart, so a sum in another order shows in its bits
    values = rng.normal(size=(len(rows), dim)) * 10.0 ** rng.integers(-8, 9, size=(len(rows), 1))
    distinct, sums = training._row_sums(rows, values, n_rows)
    expected_rows, expected_sums = loop_row_sums(rows, values)
    assert distinct.tolist() == expected_rows.tolist()
    assert sums.tobytes() == expected_sums.tobytes()


# --- finite-difference gradient checks ---


EPS = 1e-6
RTOL = 1e-4


def dense_grads(emb, update):
    """A ``GradientUpdate`` as dense entity and relation tables."""
    ge = np.zeros_like(emb.entities)
    gr = np.zeros_like(emb.relations)
    parts = update_parts(update, emb.n_entities)
    ge[parts.entity_rows] = parts.entity
    gr[parts.relation_rows] = parts.relation
    return ge, gr


def fd_check(emb, loss_fn, dense):
    """Central finite differences of loss_fn vs dense analytic subgradients."""
    ge, gr = dense
    rng = np.random.default_rng(0)
    checked = 0
    for arr, grad in ((emb.entities, ge), (emb.relations, gr)):
        rows = np.nonzero(np.abs(grad).sum(axis=1))[0]
        for i in rows:
            for k in rng.choice(arr.shape[1], size=min(3, arr.shape[1]), replace=False):
                orig = arr[i, k]
                arr[i, k] = orig + EPS
                up = loss_fn()
                arr[i, k] = orig - EPS
                down = loss_fn()
                arr[i, k] = orig
                fd = (up - down) / (2 * EPS)
                assert grad[i, k] == pytest.approx(fd, rel=RTOL, abs=1e-7)
                checked += 1
    assert checked > 0


# Each case builds a table and a batch of hinges of one term, written in the
# fused layout: active ones, one with inverse relation ids and an inactive one
# sharing their rows. ``term()`` returns the per-hinge losses and the dense
# subgradient of the fused pass; ``inactive`` lists the hinges that must have
# zero loss.


def triple_case(seed, norm="L1"):
    kg = small_kg()
    emb = random_table(kg, seed=seed)
    emb.entities[3] += 100.0  # a negative ending at entity 3 keeps its hinge inactive
    n = emb.n_base_relations
    ids = np.array([
        [(0, 0, 1), (2, 1, 0)],
        [(0, n, 1), (1, n + 1, 2)],
        [(0, 0, 1), (0, 0, 3)],
    ])
    cfg = TrainingConfig(dim=6, norm=norm, margin_triple=50.0)

    def term():
        loss, update = fused(emb, triple_hinges(emb, ids), cfg)
        return loss, dense_grads(emb, update)

    return emb, term, [2]


def path_case(seed, norm="L1"):
    kg = small_kg()
    emb = random_table(kg, seed=seed)
    emb.relations[1] += 30.0  # r' = 1 keeps the last hinge inactive
    n = emb.n_base_relations
    residual = residual_matrix([(0, n + 1), (n,), (0,)])
    weight = np.array([0.6 * 0.9, 0.5, 0.7])
    r = np.array([(1, 0), (1, 0), (0, 1)])
    cfg = TrainingConfig(dim=6, norm=norm, margin_path=5.0, alpha_paths=1.5)

    def term():
        loss, update = fused(emb, path_hinges(emb, residual, weight, r), cfg)
        return loss, dense_grads(emb, update)

    return emb, term, [2]


def relpair_case(seed, norm="L1"):
    rng = np.random.default_rng(seed)
    emb = EmbeddingTable(rng.normal(size=(4, 6)), rng.normal(size=(4, 6)))
    emb.relations[3] += 30.0  # r' = 3 keeps the last hinge inactive
    r = np.array([(0, 1, 2), (0, 5, 2), (1, 2, 3)])  # 5 is the inverse of 1
    beta = np.array([0.9, 0.8, 0.7])
    cfg = TrainingConfig(dim=6, norm=norm, margin_relpair=50.0, alpha_relpairs=3.0)

    def term():
        loss, update = fused(emb, relpair_hinges(emb, r, beta), cfg)
        return loss, dense_grads(emb, update)

    return emb, term, [2]


def run_fd_case(case, seed):
    for norm in NORMS:
        emb, term, inactive = case(seed, norm)
        loss, dense = term()
        assert all(loss[i] == 0.0 for i in inactive)
        assert all(loss[i] > 0.0 for i in range(len(loss)) if i not in inactive)
        fd_check(emb, lambda: term()[0].sum(), dense)


@pytest.mark.parametrize("seed", range(5))
def test_triple_gradient_matches_fd(seed):
    run_fd_case(triple_case, seed)


@pytest.mark.parametrize("seed", range(5))
def test_path_gradient_matches_fd(seed):
    run_fd_case(path_case, seed + 10)


@pytest.mark.parametrize("seed", range(5))
def test_relpair_gradient_matches_fd(seed):
    run_fd_case(relpair_case, seed + 20)


def test_inverse_relation_gradient_folds_to_base():
    kg = small_kg()
    emb = random_table(kg)
    n = emb.n_base_relations
    ids = np.array([[(0, n, 1), (2, n + 1, 3)]])  # inverse ids
    cfg = TrainingConfig(dim=6, margin_triple=5.0)
    loss, update = fused(emb, triple_hinges(emb, ids), cfg)
    parts = update_parts(update, emb.n_entities)
    assert loss[0] > 0
    assert parts.relation_rows.tolist() == [0, 1]
    # the same hinge on base ids over negated relations: the relation rows negate
    flipped = EmbeddingTable(emb.entities, -emb.relations)
    base = ids.copy()
    base[..., 1] -= n
    flipped_loss, flipped_update = fused(flipped, triple_hinges(flipped, base), cfg)
    assert flipped_loss.tolist() == loss.tolist()
    flipped_parts = update_parts(flipped_update, emb.n_entities)
    assert np.array_equal(flipped_parts.relation, -parts.relation)
    assert np.array_equal(flipped_parts.entity, parts.entity)
    fd_check(emb, lambda: fused(emb, triple_hinges(emb, ids), cfg)[0].sum(),
             dense_grads(emb, update))


# --- confidence weighting ---


def test_confidence_scales_active_path_term():
    kg = small_kg()
    emb = random_table(kg)
    cfg = TrainingConfig(dim=6, margin_path=50.0)
    path = Path(relations=(0, 1), reliability=0.5)
    losses = {}
    grad_norms = {}
    for mu in (0.4, 0.8):
        index = build_index([ChainRule(head=0, body=(0, 1), confidence=mu)], 0.0)
        cr = Composer(index).compose(path.relations)
        hinges = path_hinges(emb, residual_matrix([cr.residual]),
                             np.array([path_weight(path, cr)]), np.array([(1, 0)]))
        loss, update = fused(emb, hinges, cfg)
        losses[mu] = loss[0] - cfg.margin_path  # energy difference part scales with mu
        grad_norms[mu] = np.abs(dense_grads(emb, update)[1]).sum()
    # C(p) = r_0 is r' = r_0 but not r = r_1: the difference is ||r_0 - r_1||, far from 0
    assert abs(losses[0.4]) > 0.1
    assert losses[0.8] == pytest.approx(2 * losses[0.4])
    # C(p) is the same residual either way, so gradient magnitude scales too
    assert grad_norms[0.8] == pytest.approx(2 * grad_norms[0.4])


# --- training loop ---


def test_zero_epochs_returns_init_unchanged():
    kg = small_kg()
    cfg = TrainingConfig(dim=8, epochs=0, seed=4)
    init = init_embeddings(kg, cfg)
    result = train(kg, empty_paths(), build_index([], 0.0), cfg)
    np.testing.assert_array_equal(result.table.entities, init.entities)
    np.testing.assert_array_equal(result.table.relations, init.relations)
    assert result.history == []


def test_training_deterministic():
    kg = small_kg()
    ps = extract_paths(kg, 2)
    index = build_index([ChainRule(head=0, body=(0, 1), confidence=0.9)], 0.0)
    cfg = TrainingConfig(dim=8, epochs=5, n_batches=2, seed=7)
    a = train(kg, ps, index, cfg)
    b = train(kg, ps, index, cfg)
    np.testing.assert_array_equal(a.table.entities, b.table.entities)
    np.testing.assert_array_equal(a.table.relations, b.table.relations)
    assert a.history == b.history


def test_entity_projection_invariant():
    kg = small_kg()
    ps = extract_paths(kg, 2)
    cfg = TrainingConfig(dim=8, epochs=10, n_batches=2, seed=1, lr=0.5)
    result = train(kg, ps, build_index([], 0.0), cfg)
    assert np.linalg.norm(result.table.entities, axis=1).max() <= 1.0 + 1e-9


def test_divergence_detection():
    kg = small_kg()
    cfg = TrainingConfig(dim=8, epochs=5, n_batches=1, seed=1, lr=1e308)
    with pytest.raises(DivergenceError):
        train(kg, empty_paths(), build_index([], 0.0), cfg)


def test_project_entities_only_scales_down():
    emb = EmbeddingTable(np.array([[3.0, 4.0], [0.1, 0.0]]), np.ones((1, 2)))
    project_entities(emb)
    np.testing.assert_allclose(emb.entities[0], [0.6, 0.8])
    np.testing.assert_allclose(emb.entities[1], [0.1, 0.0])


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_train_matches_full_projection_every_batch(toy_kg, monkeypatch, norm):
    """Projecting only the rows a batch updated and the rows the previous batch
    scaled gives, bit for bit, the run that projects every row after every batch."""
    ps = extract_paths(toy_kg, 2)
    cfg = TrainingConfig(dim=16, epochs=8, n_batches=20, seed=2, lr=0.05, norm=norm)
    real = training.project_entities
    calls = []

    def counted(emb, rows=None):
        scaled = real(emb, rows)
        calls.append((rows is None, len(scaled)))
        return scaled

    monkeypatch.setattr(training, "project_entities", counted)
    partial = train(toy_kg, ps, build_index([], 0.0), cfg)
    monkeypatch.setattr(training, "project_entities", lambda emb, rows=None: real(emb))
    full = train(toy_kg, ps, build_index([], 0.0), cfg)
    assert np.array_equal(partial.table.entities, full.table.entities)
    assert np.array_equal(partial.table.relations, full.table.relations)
    assert partial.history == full.history
    assert calls[0][0] and not any(whole for whole, _ in calls[1:])
    assert sum(n for _, n in calls[1:]) > 0


def test_loss_history_parts_recorded():
    kg = small_kg()
    ps = extract_paths(kg, 2)
    index = build_index(
        [
            ChainRule(head=0, body=(0, 1), confidence=0.9),
            ChainRule(head=1, body=(0,), confidence=0.8),
        ],
        0.0,
    )
    cfg = TrainingConfig(dim=8, epochs=3, n_batches=2, seed=2)
    result = train(kg, ps, index, cfg)
    assert len(result.history) == 3
    for epoch, total, l1, l2, l3 in result.history:
        assert total == pytest.approx(l1 + l2 + l3)
        assert l1 >= 0 and l2 >= 0 and l3 >= 0


def test_ablation_flags_zero_terms():
    """alpha_1 = alpha_2 = 0, the -PaRu2 and -Ru1 ablations together, drops the
    path and relation-pair terms: their losses read 0, and the embeddings are
    those of a run without paths or rules, bit for bit."""
    kg = small_kg()
    ps = extract_paths(kg, 2)
    index = build_index(
        [
            ChainRule(head=0, body=(0, 1), confidence=0.9),
            ChainRule(head=1, body=(0,), confidence=0.8),
        ],
        0.0,
    )
    cfg = TrainingConfig(
        dim=8, epochs=2, n_batches=2, seed=2, alpha_paths=0.0, alpha_relpairs=0.0
    )
    result = train(kg, ps, index, cfg)
    for _, _, _, l2, l3 in result.history:
        assert l2 == 0.0 and l3 == 0.0
    plain = train(kg, extract_paths(kg, 2, pairs=[]), build_index([], 0.0), cfg)
    for got, want in ((result.table.entities, plain.table.entities),
                      (result.table.relations, plain.table.relations)):
        assert got.tobytes() == want.tobytes()


# --- TransE reduction against an independent minimal oracle ---


def transe_oracle_update(entities, relations, batch, negatives, gamma, lr):
    """Minimal TransE batch update, written directly from the margin loss."""
    ge = np.zeros_like(entities)
    gr = np.zeros_like(relations)
    for (h, r, t), negs in zip(batch, negatives):
        for h2, r2, t2 in negs:
            dpos = entities[h] + relations[r] - entities[t]
            dneg = entities[h2] + relations[r2] - entities[t2]
            if gamma + np.abs(dpos).sum() - np.abs(dneg).sum() > 0:
                sp, sn = np.sign(dpos), np.sign(dneg)
                ge[h] += sp
                gr[r] += sp
                ge[t] -= sp
                ge[h2] -= sn
                gr[r2] -= sn
                ge[t2] += sn
    entities = entities - lr * ge
    relations = relations - lr * gr
    norms = np.linalg.norm(entities, axis=1)
    mask = norms > 1.0
    entities[mask] /= norms[mask, None]
    return entities, relations


def run_transe_reduction(n_batches_to_run=10):
    kg = small_kg()
    cfg = TrainingConfig(dim=8, seed=11, alpha_paths=0.0, alpha_relpairs=0.0, n_batches=2)
    emb = init_embeddings(kg, cfg)
    oracle_e = emb.entities.copy()
    oracle_r = emb.relations.copy()
    plan = TrainPlan(kg, empty_paths(), build_index([], 0.0), cfg)

    sampler = NegativeSampler(kg, seed=99)
    oracle_sampler = NegativeSampler(kg, seed=99)  # shared stream by construction
    shuffle = np.random.default_rng(5)
    triples = list(kg.train)
    ran = 0
    while ran < n_batches_to_run:
        perm = shuffle.permutation(len(triples))
        for chunk in np.array_split(perm, cfg.n_batches):
            batch = [triples[i] for i in chunk]
            _, grads = loss_and_gradients(plan.span(sampler, [chunk]).layout, 0, hinge_table(emb))
            apply_update(grads, emb, cfg.lr)
            project_entities(emb)

            negatives = [
                [
                    oracle_sampler.corrupt_head(trip),
                    oracle_sampler.corrupt_tail(trip),
                    oracle_sampler.corrupt_relation(trip),
                ]
                for trip in batch
            ]
            oracle_e, oracle_r = transe_oracle_update(
                oracle_e, oracle_r, batch, negatives, cfg.margin_triple, cfg.lr
            )
            ran += 1
            if ran >= n_batches_to_run:
                break
    return emb, oracle_e, oracle_r


def test_transe_reduction_matches_oracle():
    emb, oracle_e, oracle_r = run_transe_reduction(10)
    np.testing.assert_allclose(emb.entities, oracle_e, atol=1e-9)
    np.testing.assert_allclose(emb.relations, oracle_r, atol=1e-9)


# --- the per-hinge training loop, kept as the oracle of the batch kernel ---


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_train_skipping_empty_updates_matches_full_projection(toy_kg, monkeypatch, norm):
    """Batches without an active hinge skip the update, and the projection when
    the previous batch scaled no row; the run equals the one that projects
    every row after every batch."""
    ps = extract_paths(toy_kg, 2)
    cfg = TrainingConfig(dim=16, epochs=12, n_batches=300, seed=2, lr=0.2, norm=norm)
    real, skipped = training.loss_and_gradients, []

    def counted(layout, b, table):
        losses, update = real(layout, b, table)
        skipped.append(not len(update.rows))
        return losses, update

    monkeypatch.setattr(training, "loss_and_gradients", counted)
    partial = train(toy_kg, ps, build_index([], 0.0), cfg)
    full_pass = training.project_entities
    monkeypatch.setattr(training, "project_entities", lambda emb, rows=None: full_pass(emb))
    full = train(toy_kg, ps, build_index([], 0.0), cfg)
    assert np.array_equal(partial.table.entities, full.table.entities)
    assert partial.history == full.history
    assert any(skipped) and not all(skipped)


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_rows_scaled_are_checked_again_after_an_empty_update(toy_kg, monkeypatch, norm):
    """Each batch passes ``project_entities`` the entity rows it updated and the
    rows the previous batch's projection scaled, also when it updated no row: a
    rescaled norm may round to just above 1, and a full pass would scale that
    row again. The run holds batches without an active hinge right after a
    projection that scaled rows."""
    ps = extract_paths(toy_kg, 2)
    cfg = TrainingConfig(dim=16, epochs=12, n_batches=300, seed=2, lr=0.2, norm=norm)
    real_kernel, real_project = training.loss_and_gradients, training.project_entities
    batches = []  # per batch: the entity rows updated, rows checked (None: no call) and scaled

    def kernel(layout, b, table):
        losses, update = real_kernel(layout, b, table)
        batches.append([set(update_parts(update, layout.n_entities).entity_rows.tolist()),
                        None, set()])
        return losses, update

    def project(emb, rows=None):
        scaled = real_project(emb, rows)
        checked = set(range(emb.n_entities)) if rows is None else set(rows.tolist())
        batches[-1][1:] = checked, set(scaled.tolist())
        return scaled

    monkeypatch.setattr(training, "loss_and_gradients", kernel)
    monkeypatch.setattr(training, "project_entities", project)
    train(toy_kg, ps, build_index([], 0.0), cfg)
    assert batches[0][1] == set(range(toy_kg.n_entities))
    empty_after_scaling = 0
    for (_, _, scaled), (updated, checked, _) in zip(batches, batches[1:]):
        if scaled or updated:
            assert checked is not None and scaled | updated <= checked
        empty_after_scaling += bool(scaled) and not updated
    assert empty_after_scaling > 0


class OracleSampler:
    """Scalar sampler: one rng.integers(n) call per draw, membership by a set of
    the train triples."""

    def __init__(self, kg, seed=0, max_attempts=100):
        self.kg = kg
        self.train = triple_set(kg, kg.train_ids)
        self.rng = np.random.default_rng(seed)
        self.max_attempts = max_attempts

    def _corrupt(self, n, make):
        for _ in range(self.max_attempts):
            neg = make(int(self.rng.integers(n)))
            if neg not in self.train:
                return neg
        return None

    def corrupt_head(self, triple):
        h, r, t = triple
        return self._corrupt(self.kg.n_entities, lambda x: (x, r, t))

    def corrupt_tail(self, triple):
        h, r, t = triple
        return self._corrupt(self.kg.n_entities, lambda x: (h, r, x))

    def corrupt_relation(self, triple):
        h, r, t = triple
        return self._corrupt(self.kg.n_base_relations, lambda x: (h, x, t))

    def relation_for_pair(self, h, t):
        neg = self.corrupt_relation((h, -1, t))
        return neg[1] if neg is not None else None

    def relation_not_deduced(self, r, deduced):
        for _ in range(self.max_attempts):
            r2 = int(self.rng.integers(self.kg.n_base_relations))
            if r2 != r and r2 not in deduced:
                return r2
        return None


class OracleGrads:
    """Sparse dict accumulator: one ``+=`` per subgradient, in call order."""

    def __init__(self):
        self.entity, self.relation = {}, {}

    def add_entity(self, e, g):
        if e in self.entity:
            self.entity[e] += g
        else:
            self.entity[e] = g.copy()

    def add_relation(self, r, g, n_base):
        if r >= n_base:
            r, g = r - n_base, -g
        if r in self.relation:
            self.relation[r] += g
        else:
            self.relation[r] = g.copy()


def _oracle_grad(x, norm):
    if norm == "L1":
        return np.sign(x)
    n = dissimilarity(x, norm)
    return np.zeros_like(x) if n == 0.0 else x / n


def _oracle_hinge(margin, dpos, dneg, norm, wpos, wneg, scale):
    loss = margin + wpos * dissimilarity(dpos, norm) - wneg * dissimilarity(dneg, norm)
    if loss <= 0.0:
        return 0.0, None, None
    return (
        scale * float(loss),
        (scale * wpos) * _oracle_grad(dpos, norm),
        (scale * wneg) * _oracle_grad(dneg, norm),
    )


def oracle_loss_and_gradients(batch, ps, composer, emb, cfg, sampler):
    grads, parts = OracleGrads(), [0.0, 0.0, 0.0]
    ent, nb, vec = emb.entities, emb.n_base_relations, emb.relation_vec
    for triple in batch:
        h, r, t = triple
        for neg in (sampler.corrupt_head(triple), sampler.corrupt_tail(triple),
                    sampler.corrupt_relation(triple)):
            if neg is None:
                continue
            h2, r2, t2 = neg
            loss, gp, gn = _oracle_hinge(cfg.margin_triple, ent[h] + vec(r) - ent[t],
                                         ent[h2] + vec(r2) - ent[t2], cfg.norm, 1.0, 1.0, 1.0)
            parts[0] += loss
            if gp is not None:
                grads.add_entity(h, gp)
                grads.add_relation(r, gp, nb)
                grads.add_entity(t, -gp)
                grads.add_entity(h2, -gn)
                grads.add_relation(r2, -gn, nb)
                grads.add_entity(t2, gn)
        if cfg.alpha_paths > 0:
            for path in ps.paths_between(h, t):
                r_neg = sampler.relation_for_pair(h, t)
                if r_neg is None:
                    continue
                cr = composer.compose(path.relations)
                w = path_weight(path, cr)
                c = compose_embedding(cr, emb)
                loss, gp, gn = _oracle_hinge(cfg.margin_path, c - vec(r), c - vec(r_neg),
                                             cfg.norm, w, w, cfg.alpha_paths)
                parts[1] += loss
                if gp is not None:
                    for rid in cr.residual:
                        grads.add_relation(rid, gp - gn, nb)
                    grads.add_relation(r, -gp, nb)
                    grads.add_relation(r_neg, gn, nb)
        if cfg.alpha_relpairs > 0:
            deduced = composer.index.deduced_from(r)
            excluded = frozenset(d for d, _ in deduced)
            for r_e, beta in deduced:
                r_neg = sampler.relation_not_deduced(r, excluded)
                if r_neg is None:
                    continue
                loss, gp, gn = _oracle_hinge(cfg.margin_relpair, vec(r) - vec(r_e),
                                             vec(r) - vec(r_neg), cfg.norm, beta, 1.0,
                                             cfg.alpha_relpairs)
                parts[2] += loss
                if gp is not None:
                    grads.add_relation(r, gp - gn, nb)
                    grads.add_relation(r_e, -gp, nb)
                    grads.add_relation(r_neg, gn, nb)
    return parts, grads


def oracle_train(kg, ps, index, cfg):
    emb = init_embeddings(kg, cfg)
    sampler = OracleSampler(kg, seed=cfg.seed + 1)
    shuffle_rng = np.random.default_rng(cfg.seed + 2)
    composer = Composer(index)
    triples = np.array(kg.train, dtype=np.int64)
    history = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(len(triples))
        totals = [0.0, 0.0, 0.0]
        for chunk in np.array_split(perm, cfg.n_batches):
            if len(chunk) == 0:
                continue
            batch = [tuple(map(int, triples[i])) for i in chunk]
            parts, grads = oracle_loss_and_gradients(batch, ps, composer, emb, cfg, sampler)
            for e, g in grads.entity.items():
                emb.entities[e] -= cfg.lr * g
            for r, g in grads.relation.items():
                emb.relations[r] -= cfg.lr * g
            project_entities(emb)
            totals = [a + b for a, b in zip(totals, parts)]
        total = totals[0] + totals[1] + totals[2]
        history.append((epoch, total, *totals))
    return emb, history


def oracle_case():
    """Paths with inverse residuals, an R2 rule, R1 rules with base and inverse heads."""
    kg = make_kg(
        [("a", "r", "b"), ("b", "s", "c"), ("c", "r", "d"), ("d", "s", "a"), ("a", "s", "c"),
         ("b", "t", "d"), ("c", "t", "a"), ("d", "r", "b")]
    )
    n = kg.n_base_relations
    index = build_index(
        [
            ChainRule(head=2, body=(0, 1), confidence=0.9),
            ChainRule(head=1, body=(0,), confidence=0.8),
            ChainRule(head=n + 2, body=(0,), confidence=0.75),
            ChainRule(head=0, body=(2,), confidence=0.7),
        ],
        0.0,
    )
    return kg, extract_paths(kg, 3), index


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_train_matches_per_hinge_oracle(norm):
    kg, ps, index = oracle_case()
    composer = Composer(index)
    oracle_ps = PathSet.of(ps)
    residuals = [
        composer.compose(p.relations).residual for paths in oracle_ps.pairs.values() for p in paths
    ]
    assert any(rid >= kg.n_base_relations for res in residuals for rid in res)
    assert any(len(res) > 1 for res in residuals)
    cfg = TrainingConfig(dim=8, epochs=6, n_batches=3, seed=3, lr=0.05, norm=norm,
                         margin_path=2.0, margin_relpair=2.0)
    result = train(kg, ps, index, cfg)
    emb, history = oracle_train(kg, oracle_ps, index, cfg)
    assert np.array_equal(result.table.entities, emb.entities)
    assert np.array_equal(result.table.relations, emb.relations)
    assert result.history == history
    assert all(l2 > 0 and l3 > 0 for _, _, _, l2, l3 in history)


def planned_draws(monkeypatch, kg, ps, index, cfg):
    """Per epoch, per span the draws of each batch, and per epoch its spans, as
    the planner generator plans the run in-process."""
    spans = []
    real_epoch_spans, real_span = TrainPlan.epoch_spans, TrainPlan.span

    def epoch_spans(plan, sampler, batches):
        spans.append([])
        return real_epoch_spans(plan, sampler, batches)

    def span(plan, sampler, batches):
        spans[-1].append([int(plan.draw_counts[b].sum()) for b in batches])
        return real_span(plan, sampler, batches)

    with monkeypatch.context() as patched:
        patched.setattr(TrainPlan, "epoch_spans", epoch_spans)
        patched.setattr(TrainPlan, "span", span)
        epochs = [[]]
        for planned_span in TrainPlan(kg, ps, index, cfg).spans(kg):
            epochs[-1].append(planned_span)
            if planned_span.last:
                epochs.append([])
    assert epochs.pop() == [] and len(epochs) == len(spans) == cfg.epochs
    return spans, epochs


@pytest.mark.parametrize("norm", ["L1", "L2"])
@pytest.mark.parametrize("case", ["oracle", "toy", "transe"])
@pytest.mark.parametrize("bound", [1, 6, 7, 45])
def test_train_independent_of_span_bound(toy_kg, monkeypatch, case, norm, bound):
    """Planning fewer batches at once changes no table, history or epoch metric.
    Each span of an epoch takes the most batches whose draws fit the bound, or
    one batch."""
    if case == "oracle":
        kg, ps, index = oracle_case()
        cfg = TrainingConfig(dim=8, epochs=4, n_batches=8, seed=3, lr=0.05, norm=norm,
                             margin_path=2.0, margin_relpair=2.0)
    elif case == "toy":
        kg, ps = toy_kg, extract_paths(toy_kg, 2)
        index = build_index([ChainRule(head=0, body=(1, 2), confidence=0.9),
                             ChainRule(head=3, body=(4,), confidence=0.8)], 0.0)
        cfg = TrainingConfig(dim=8, epochs=3, n_batches=40, seed=4, lr=0.05, norm=norm)
    else:  # batches of one triple, three draws each: a bound of 6 fills spans exactly
        kg, ps, index = small_kg(), empty_paths(), build_index([], 0.0)
        cfg = TrainingConfig(dim=8, epochs=3, n_batches=5, seed=5, lr=0.05, norm=norm)

    def planned(result):
        """``planned_draws``, whose draws and give-ups are the run's."""
        spans, epochs = planned_draws(monkeypatch, kg, ps, index, cfg)
        for epoch, counts in zip(epochs, result.epochs):
            assert [counts[term]["draws"] for term in TERMS] == sum(s.draws for s in epoch).tolist()
            assert [counts[term]["giveups"] for term in TERMS] == sum(s.giveups for s in epoch).tolist()
        return spans

    default = train(kg, ps, index, cfg)
    default_spans = planned(default)
    monkeypatch.setattr(training, "_SPAN_DRAWS", bound)
    bounded = train(kg, ps, index, cfg)
    spans = planned(bounded)
    assert np.array_equal(bounded.table.entities, default.table.entities)
    assert np.array_equal(bounded.table.relations, default.table.relations)
    assert bounded.history == default.history
    assert bounded.epochs == default.epochs
    for planned_spans, limit in ((default_spans, 2048), (spans, bound)):
        assert [sum(map(len, epoch)) for epoch in planned_spans] == [cfg.n_batches] * cfg.epochs
        for epoch in planned_spans:
            draws = [n for span in epoch for n in span]
            cuts = list(itertools.accumulate(map(len, epoch), initial=0))
            assert all(len(span) == 1 or sum(span) <= limit for span in epoch)
            assert cuts == packed_cuts(draws, limit)
    assert max(map(len, default_spans[0])) > 1 or case == "transe"
    assert bound > 1 or all(len(draws) == 1 for epoch in spans for draws in epoch)


def test_span_at_the_bound_fits_the_pipe(toy_kg):
    """A span of nearly ``_SPAN_DRAWS`` draws over 3-step paths, uncomposed so
    each keeps all three rows, pickles as the planner sends it within half of
    ``_PIPE_BYTES``: the two spans the planner runs ahead wait whole in the
    pipe."""
    ps = extract_paths(toy_kg, 3)
    plan = TrainPlan(toy_kg, ps, build_index([], 0.0), TrainingConfig(dim=8))
    assert plan.width == 3
    order = np.random.default_rng(0).permutation(len(toy_kg.train))
    drawn = np.cumsum(plan.draw_counts[order])
    fits = drawn <= training._SPAN_DRAWS
    assert drawn[fits][-1] > training._SPAN_DRAWS - plan.draw_counts.max()
    span = plan.span(NegativeSampler(toy_kg, seed=1), np.array_split(order[fits], 20))
    assert 2 * len(pickle.dumps((span, 0.0), protocol=5)) <= training._PIPE_BYTES


def test_train_keeps_its_bits_with_the_default_pipe(toy_kg, monkeypatch):
    """A refused pipe size keeps the default pipe, which carries span messages
    larger than it in several turns, to the same table bits."""
    kg, ps = toy_kg, extract_paths(toy_kg, 2)
    index = build_index([ChainRule(head=0, body=(1, 2), confidence=0.9),
                         ChainRule(head=3, body=(4,), confidence=0.8)], 0.0)
    cfg = TrainingConfig(dim=8, epochs=2, n_batches=40, seed=4, lr=0.05)
    _, epochs = planned_draws(monkeypatch, kg, ps, index, cfg)
    largest = max(len(pickle.dumps((span, 0.0), protocol=5)) for epoch in epochs for span in epoch)
    assert largest > 64 * 1024
    sized = train(kg, ps, index, cfg)
    real_fcntl, refused = fcntl.fcntl, []

    def refuse(fd, cmd, *args):
        if cmd == fcntl.F_SETPIPE_SZ:
            refused.append(fd)
            raise OSError(errno.EPERM, "pipe size refused")
        return real_fcntl(fd, cmd, *args)

    monkeypatch.setattr(fcntl, "fcntl", refuse)
    default = train(kg, ps, index, cfg)
    assert len(refused) == 1
    assert np.array_equal(default.table.entities, sized.table.entities)
    assert np.array_equal(default.table.relations, sized.table.relations)
    assert default.history == sized.history
    assert default.epochs == sized.epochs


def test_finished_span_is_freed_before_the_next_arrives(toy_kg, monkeypatch, tmp_path):
    """No span's ``HingeLayout`` is alive in train when the next span arrives, in
    the same epoch or the next; and the planner process plans span k + 2 only
    once train has asked for span k, so it runs two spans ahead and never
    three."""
    kg, ps = toy_kg, extract_paths(toy_kg, 2)
    index = build_index([ChainRule(head=0, body=(1, 2), confidence=0.9),
                         ChainRule(head=3, body=(4,), confidence=0.8)], 0.0)
    cfg = TrainingConfig(dim=8, epochs=2, n_batches=20, seed=4, lr=0.05)
    refs, alive = [], []  # a weak reference to the last span's layout
    # one line per event, appended by both processes: "plan" as the planner
    # starts a span, "ask" as train asks for the next one
    log = os.open(tmp_path / "events", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    real_span, real_receive = TrainPlan.span, SpanPlanner.receive

    def span(plan, sampler, batches):
        os.write(log, b"plan\n")
        return real_span(plan, sampler, batches)

    def receive(planner):
        time.sleep(0.002)  # time enough for a planner that ran ahead to show it
        os.write(log, b"ask\n")
        received = real_receive(planner)
        alive.append(sum(ref() is not None for ref in refs))
        refs[:] = [weakref.ref(received.layout)]
        return received

    monkeypatch.setattr(TrainPlan, "span", span)
    monkeypatch.setattr(SpanPlanner, "receive", receive)
    monkeypatch.setattr(training, "_SPAN_DRAWS", 256)
    try:
        train(kg, ps, index, cfg)
    finally:
        os.close(log)
    assert len(alive) > cfg.epochs
    assert alive == [0] * len(alive)
    events = (tmp_path / "events").read_text().split()
    assert events.count("plan") == events.count("ask") == len(alive)
    ahead = np.cumsum([1 if event == "plan" else -1 for event in events])
    assert ahead.max() == 2  # span k + 2 is planned only once span k was asked for


@contextlib.contextmanager
def within(seconds):
    """Raise TimeoutError in the block once it has run ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("failure", [None, "divergence", "batch loop", "planning"])
def test_train_joins_its_planner_process(toy_kg, monkeypatch, capfd, failure):
    """train waits for its planner process and closes both its pipes before it
    returns or raises: after a run, a divergence, an exception in the batch
    loop, and an exception while planning, which reaches the caller with its
    type and message, and only there: the planner writes nothing to stdout or
    stderr. The process holds the file descriptors it held before."""
    kg, ps = toy_kg, extract_paths(toy_kg, 2)
    index = build_index([ChainRule(head=0, body=(1, 2), confidence=0.9),
                         ChainRule(head=3, body=(4,), confidence=0.8)], 0.0)
    lr = 1e308 if failure == "divergence" else 0.05
    cfg = TrainingConfig(dim=8, epochs=3, n_batches=20, seed=4, lr=lr)
    calls = itertools.count()
    real_loss, real_span = training.loss_and_gradients, TrainPlan.span

    def loss(layout, b, table):
        if next(calls) == 5:
            raise KeyError("in the batch loop")
        return real_loss(layout, b, table)

    def span(plan, sampler, batches):
        if next(calls) == 5:
            raise ValueError("while planning")
        return real_span(plan, sampler, batches)

    if failure == "batch loop":
        monkeypatch.setattr(training, "loss_and_gradients", loss)
    elif failure == "planning":
        monkeypatch.setattr(TrainPlan, "span", span)
    monkeypatch.setattr(training, "_SPAN_DRAWS", 256)  # spans are left when train raises
    expected = {
        None: contextlib.nullcontext(),
        "divergence": pytest.raises(DivergenceError, match="non-finite loss at epoch 0"),
        "batch loop": pytest.raises(KeyError, match="^'in the batch loop'$"),
        "planning": pytest.raises(ValueError, match="^while planning$"),
    }[failure]
    descriptors = sorted(os.listdir("/dev/fd"))
    with within(60), expected:
        train(kg, ps, index, cfg)
    assert_no_child()
    assert sorted(os.listdir("/dev/fd")) == descriptors
    assert capfd.readouterr() == ("", "")


def test_train_raises_when_its_planner_is_killed(toy_kg, monkeypatch):
    """A planner process killed by SIGKILL while it plans the run's third span
    fails train with one line that names the planner and its exit code, and
    leaves no child and no pipe."""
    kg, ps = toy_kg, extract_paths(toy_kg, 2)
    index = build_index([ChainRule(head=0, body=(1, 2), confidence=0.9)], 0.0)
    cfg = TrainingConfig(dim=8, epochs=3, n_batches=20, seed=4, lr=0.05)
    parent, calls, real_span = os.getpid(), itertools.count(), TrainPlan.span

    def span(plan, sampler, batches):
        if os.getpid() != parent and next(calls) == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_span(plan, sampler, batches)

    monkeypatch.setattr(TrainPlan, "span", span)
    monkeypatch.setattr(training, "_SPAN_DRAWS", 256)
    descriptors = sorted(os.listdir("/dev/fd"))
    with within(60), pytest.raises(
        RuntimeError, match=r"^span planner: a child process ended without its message "
                            r"\(exit code -9\)$"
    ):
        train(kg, ps, index, cfg)
    assert_no_child()
    assert sorted(os.listdir("/dev/fd")) == descriptors


@pytest.mark.parametrize("case", ["oracle", "saturated"])
def test_epoch_counts_match_the_batch(case):
    """One epoch of one batch: the draws, give-ups, hinges and active hinges per
    term and the rows projected are those of the batch's own planning and fused
    pass."""
    if case == "oracle":
        kg, ps, index = oracle_case()
    else:  # both heads of (., r, a) are in train, so its head corruption gives up
        kg = make_kg([("a", "r", "a"), ("b", "r", "a"), ("a", "s", "b")])
        ps, index = extract_paths(kg, 2), build_index([], 0.0)
    cfg = TrainingConfig(dim=8, epochs=1, n_batches=1, seed=3, lr=0.05,
                         margin_path=2.0, margin_relpair=2.0)
    counts = train(kg, ps, index, cfg).epochs[0]
    emb = init_embeddings(kg, cfg)
    perm = np.random.default_rng(cfg.seed + 2).permutation(len(kg.train))
    plan = TrainPlan(kg, ps, index, cfg)
    layout = plan.span(NegativeSampler(kg, seed=cfg.seed + 1), [perm]).layout
    losses, update = loss_and_gradients(layout, 0, hinge_table(emb))
    draws = [3 * len(kg.train), plan.n_paths.sum(), plan.n_deduced.sum()]
    for kind, term in enumerate(TERMS):
        hinges = np.count_nonzero(layout.kind == kind)
        assert counts[term]["draws"] == draws[kind]
        assert counts[term]["hinges"] == hinges == draws[kind] - counts[term]["giveups"]
        assert counts[term]["active"] == np.count_nonzero(losses[layout.kind == kind] > 0.0)
    assert 0 < counts["triple"]["active"] < counts["triple"]["hinges"]
    assert (counts["triple"]["giveups"] > 0) == (case == "saturated")
    assert min(draws) > 0 or case == "saturated"
    apply_update(update, emb, cfg.lr)
    assert counts["entity_rows_projected"] == len(project_entities(emb))
    assert counts["entity_rows_projected"] > 0 or case == "saturated"
