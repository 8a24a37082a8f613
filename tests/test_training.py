import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpje.compose import Composer
from rpje.energy import (
    NORMS,
    compose_embedding,
    dissimilarity,
    fold_inverse,
    path_hinge,
    path_weight,
    relpair_hinge,
    triple_hinge,
)
from rpje.model import EmbeddingTable, TrainingConfig, init_embeddings
from rpje import training
from rpje.paths import Path, extract_paths
from rpje.rules import ChainRule, build_index
from rpje.training import (
    DivergenceError,
    NegativeSampler,
    loss_and_gradients,
    project_entities,
    train,
)

from conftest import make_kg
from oracles import residual_matrix, store_from_pairs


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


STREAM_RANGES = [1, 2, 7, 212, 3392, 3 * 2**30 + 5]


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_sampler_stream_matches_scalar_draws(seed):
    """Every draw is the value a fresh generator's scalar integers(n) gives, with
    ranges interleaved, across prefetch blocks and around a give-up."""
    # both heads of the only (., r, a) triples are in train, so corrupt_head gives up
    kg = make_kg([("a", "r", "a"), ("b", "r", "a")])
    sampler = NegativeSampler(kg, seed=seed, max_attempts=20)
    reference = np.random.default_rng(seed)
    ranges = np.random.default_rng(seed + 1).choice(STREAM_RANGES, size=3 * NegativeSampler.BLOCK)
    for i, n in enumerate(ranges.tolist()):
        if i == NegativeSampler.BLOCK // 2:
            assert sampler.corrupt_head((0, 0, 0)) is None
            for _ in range(20):
                reference.integers(kg.n_entities)
        assert sampler.draw(n) == reference.integers(n)


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
    loss, entity, relation = triple_hinge(emb, ids, 0.001, "L1")
    assert loss[0] == 0.0 and loss[1] > 0.0
    assert set(entity.hinge) == set(relation.hinge) == {1}


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


def dense_grads(emb, entity=None, relation=None):
    """Hinge subgradient rows as dense tables; relation rows folded onto base ids."""
    ge = np.zeros_like(emb.entities)
    gr = np.zeros_like(emb.relations)
    if entity is not None:
        np.add.at(ge, entity.rows, entity.values)
    if relation is not None:
        np.add.at(gr, *fold_inverse(relation.rows, relation.values, emb.n_base_relations))
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


# Each case builds a table and a batch of hinges: active ones, one with inverse
# relation ids and an inactive one sharing their rows. ``term()`` returns the
# per-hinge losses and the dense subgradient; ``inactive`` lists the hinges
# that must have zero loss.


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

    def term():
        loss, entity, relation = triple_hinge(emb, ids, 50.0, norm)
        return loss, dense_grads(emb, entity, relation)

    return emb, term, [2]


def path_case(seed, norm="L1"):
    kg = small_kg()
    emb = random_table(kg, seed=seed)
    emb.relations[1] += 30.0  # r' = 1 keeps the last hinge inactive
    n = emb.n_base_relations
    residual = residual_matrix([(0, n + 1), (n,), (0,)])
    weight = np.array([0.6 * 0.9, 0.5, 0.7])
    r = np.array([(1, 0), (1, 0), (0, 1)])

    def term():
        loss, relation = path_hinge(emb, residual, weight, r, 5.0, norm, scale=1.5)
        return loss, dense_grads(emb, relation=relation)

    return emb, term, [2]


def relpair_case(seed, norm="L1"):
    rng = np.random.default_rng(seed)
    emb = EmbeddingTable(rng.normal(size=(4, 6)), rng.normal(size=(4, 6)))
    emb.relations[3] += 30.0  # r' = 3 keeps the last hinge inactive
    r = np.array([(0, 1, 2), (0, 5, 2), (1, 2, 3)])  # 5 is the inverse of 1
    beta = np.array([0.9, 0.8, 0.7])

    def term():
        loss, relation = relpair_hinge(emb, r, beta, 50.0, norm, scale=3.0)
        return loss, dense_grads(emb, relation=relation)

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
    loss, entity, relation = triple_hinge(emb, ids, 5.0, "L1")
    assert loss[0] > 0
    assert set(relation.rows) == {n, n + 1}
    rows, values = fold_inverse(relation.rows, relation.values, n)
    assert set(rows) <= set(range(n))
    np.testing.assert_array_equal(values, -relation.values)
    fd_check(emb, lambda: triple_hinge(emb, ids, 5.0, "L1")[0].sum(),
             dense_grads(emb, entity, relation))


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
        loss, relation = path_hinge(
            emb, residual_matrix([cr.residual]), np.array([path_weight(path, cr)]),
            np.array([(1, 0)]), cfg.margin_path, cfg.norm,
        )
        losses[mu] = loss[0] - cfg.margin_path  # energy difference part scales with mu
        grad_norms[mu] = np.abs(dense_grads(emb, relation=relation)[1]).sum()
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


# --- the per-hinge training loop, kept as the oracle of the batch kernel ---


class OracleSampler:
    """Scalar sampler: one rng.integers(n) call per draw, membership by kg.in_train."""

    def __init__(self, kg, seed=0, max_attempts=100):
        self.kg = kg
        self.rng = np.random.default_rng(seed)
        self.max_attempts = max_attempts

    def _corrupt(self, n, make):
        for _ in range(self.max_attempts):
            neg = make(int(self.rng.integers(n)))
            if not self.kg.in_train(neg):
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
        if cfg.alpha_paths > 0 and not cfg.disable_paths_and_r2:
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
        if cfg.alpha_relpairs > 0 and not cfg.disable_r1:
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
    residuals = [
        composer.compose(p.relations).residual for paths in ps.pairs.values() for p in paths
    ]
    assert any(rid >= kg.n_base_relations for res in residuals for rid in res)
    assert any(len(res) > 1 for res in residuals)
    cfg = TrainingConfig(dim=8, epochs=6, n_batches=3, seed=3, lr=0.05, norm=norm,
                         margin_path=2.0, margin_relpair=2.0)
    result = train(kg, ps, index, cfg)
    emb, history = oracle_train(kg, ps, index, cfg)
    assert np.array_equal(result.table.entities, emb.entities)
    assert np.array_equal(result.table.relations, emb.relations)
    assert result.history == history
    assert all(l2 > 0 and l3 > 0 for _, _, _, l2, l3 in history)
