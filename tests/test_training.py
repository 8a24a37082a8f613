import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpje.compose import Composer
from rpje.energy import dissimilarity, path_hinge, relpair_hinge, triple_hinge
from rpje.model import EmbeddingTable, TrainingConfig, init_embeddings
from rpje.paths import Path, PathSet, extract_paths
from rpje.rules import ChainRule, build_index
from rpje.training import (
    DivergenceError,
    GradientUpdate,
    NegativeSampler,
    loss_and_gradients,
    project_entities,
    train,
)

from conftest import make_kg


def small_kg():
    return make_kg(
        [("a", "r", "b"), ("b", "s", "c"), ("c", "r", "d"), ("d", "s", "a"), ("a", "s", "c")]
    )


def empty_paths():
    return PathSet(max_steps=2, cutoff=0.01)


def random_table(kg, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(
        rng.normal(size=(kg.n_entities, dim)), rng.normal(size=(kg.n_base_relations, dim))
    )


# --- negative sampling ---


@given(seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_negatives_never_in_train(seed):
    kg = small_kg()
    sampler = NegativeSampler(kg, seed=seed)
    for triple in kg.train:
        for neg in (
            sampler.corrupt_head(triple),
            sampler.corrupt_tail(triple),
            sampler.corrupt_relation(triple),
        ):
            assert neg is not None
            assert not kg.in_train(neg)


def test_sampler_gives_up_when_saturated():
    # single entity, single relation, the only possible triple is in train
    kg = make_kg([("a", "r", "a")])
    sampler = NegativeSampler(kg, seed=0, max_attempts=20)
    assert sampler.corrupt_head((0, 0, 0)) is None
    assert sampler.relation_for_pair(0, 0) is None


def test_relation_not_deduced_excludes():
    kg = make_kg([("a", "r", "b"), ("b", "s", "c"), ("c", "t", "a")])
    sampler = NegativeSampler(kg, seed=0)
    deduced = frozenset({0})
    for _ in range(20):
        r = sampler.relation_not_deduced(1, deduced)
        assert r is not None and r not in deduced and r != 1


# --- hinge behavior ---


def test_inactive_hinge_contributes_nothing():
    kg = small_kg()
    emb = random_table(kg)
    cfg = TrainingConfig(dim=6, margin_triple=0.001)
    # make the positive perfect: h + r = t exactly
    emb.entities[1] = emb.entities[0] + emb.relations[0]
    # and the negative terrible
    emb.entities[2] = emb.entities[0] + emb.relations[0] + 100.0
    grads = GradientUpdate()
    loss = triple_hinge(emb, (0, 0, 1), (0, 0, 2), cfg.margin_triple, cfg.norm, grads)
    assert loss == 0.0
    assert not grads.entity and not grads.relation


def test_alpha_zero_reduces_to_transe_loss():
    kg = small_kg()
    emb = random_table(kg)
    cfg = TrainingConfig(dim=6, alpha_paths=0.0, alpha_relpairs=0.0)
    ps = extract_paths(kg, 2)
    index = build_index([ChainRule(head=0, body=(0, 1), confidence=0.9)], 0.0)
    sampler = NegativeSampler(kg, seed=1)
    parts, _ = loss_and_gradients(kg.train, kg, ps, Composer(index), emb, cfg, sampler)
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


# --- finite-difference gradient checks ---


EPS = 1e-6
RTOL = 1e-4


def dense_grads(grads, emb):
    ge = np.zeros_like(emb.entities)
    gr = np.zeros_like(emb.relations)
    for e, g in grads.entity.items():
        ge[e] += g
    for r, g in grads.relation.items():
        gr[r] += g
    return ge, gr


def fd_check(emb, loss_fn, grads, min_active=1e-3):
    """Central finite differences vs accumulated analytic subgradients."""
    ge, gr = dense_grads(grads, emb)
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


def _active_triple_case(seed):
    kg = small_kg()
    emb = random_table(kg, seed=seed)
    cfg = TrainingConfig(dim=6, margin_triple=50.0)  # big margin keeps the hinge active
    pos, neg = (0, 0, 1), (2, 1, 3)
    grads = GradientUpdate()
    loss = triple_hinge(emb, pos, neg, cfg.margin_triple, cfg.norm, grads)
    return kg, emb, cfg, pos, neg, grads, loss


@pytest.mark.parametrize("seed", range(5))
def test_triple_gradient_matches_fd(seed):
    kg, emb, cfg, pos, neg, grads, loss = _active_triple_case(seed)
    assert loss > 0

    def loss_fn():
        g = GradientUpdate()
        return triple_hinge(emb, pos, neg, cfg.margin_triple, cfg.norm, g)

    fd_check(emb, loss_fn, grads)


@pytest.mark.parametrize("seed", range(5))
def test_path_gradient_matches_fd(seed):
    kg = small_kg()
    emb = random_table(kg, seed=seed + 10)
    cfg = TrainingConfig(dim=6, margin_path=5.0)
    index = build_index([ChainRule(head=0, body=(0, 1), confidence=0.9)], 0.0)
    composer = Composer(index)
    path = Path(relations=(0, 1, 1), reliability=0.6)
    cr = composer.compose(path.relations)
    grads = GradientUpdate()
    loss = path_hinge(emb, path, cr, 1, 0, cfg.margin_path, cfg.norm, grads)
    assert loss > 0

    def loss_fn():
        g = GradientUpdate()
        return path_hinge(emb, path, cr, 1, 0, cfg.margin_path, cfg.norm, g)

    fd_check(emb, loss_fn, grads)


@pytest.mark.parametrize("seed", range(5))
def test_relpair_gradient_matches_fd(seed):
    kg = small_kg()
    emb = random_table(kg, seed=seed + 20)
    cfg = TrainingConfig(dim=6, margin_relpair=5.0)
    grads = GradientUpdate()
    loss = relpair_hinge(emb, 0, 1, 0.9, 1, cfg.margin_relpair, cfg.norm, grads)
    # r_neg == r_e here would be a kink; use distinct ids
    grads = GradientUpdate()
    loss = relpair_hinge(emb, 0, 1, 0.9, 0, cfg.margin_relpair, cfg.norm, grads)
    assert loss > 0

    def loss_fn():
        g = GradientUpdate()
        return relpair_hinge(emb, 0, 1, 0.9, 0, cfg.margin_relpair, cfg.norm, g)

    fd_check(emb, loss_fn, grads)


def test_inverse_relation_gradient_folds_to_base():
    kg = small_kg()
    emb = random_table(kg)
    n = emb.n_base_relations
    cfg = TrainingConfig(dim=6, margin_triple=5.0)
    grads = GradientUpdate()
    pos, neg = (0, n, 1), (2, n + 1, 3)  # inverse ids
    loss = triple_hinge(emb, pos, neg, cfg.margin_triple, cfg.norm, grads)
    assert loss > 0
    assert set(grads.relation) <= set(range(n))

    def loss_fn():
        g = GradientUpdate()
        return triple_hinge(emb, pos, neg, cfg.margin_triple, cfg.norm, g)

    fd_check(emb, loss_fn, grads)


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
        grads = GradientUpdate()
        loss = path_hinge(emb, path, cr, 1, 0, cfg.margin_path, cfg.norm, grads)
        losses[mu] = loss - cfg.margin_path  # energy difference part scales with mu
        grad_norms[mu] = sum(np.abs(g).sum() for g in grads.relation.values())
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
        dim=8, epochs=2, n_batches=2, seed=2, disable_paths_and_r2=True, disable_r1=True
    )
    result = train(kg, ps, index, cfg)
    for _, _, _, l2, l3 in result.history:
        assert l2 == 0.0 and l3 == 0.0


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
    index = build_index([], 0.0)
    composer = Composer(index)
    ps = empty_paths()

    sampler = NegativeSampler(kg, seed=99)
    oracle_sampler = NegativeSampler(kg, seed=99)  # shared stream by construction
    shuffle = np.random.default_rng(5)
    triples = list(kg.train)
    ran = 0
    while ran < n_batches_to_run:
        perm = shuffle.permutation(len(triples))
        for chunk in np.array_split(perm, cfg.n_batches):
            batch = [triples[i] for i in chunk]
            parts, grads = loss_and_gradients(batch, kg, ps, composer, emb, cfg, sampler)
            grads.apply(emb, cfg.lr)
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
