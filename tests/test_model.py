import math

import numpy as np
import pytest

from rpje.compose import Composer
from rpje.energy import NORMS, dissimilarity, path_energy, triple_energy
from rpje.model import (
    CheckpointError,
    ConfigError,
    EmbeddingTable,
    TrainingConfig,
    init_embeddings,
    load_checkpoint,
    save_checkpoint,
)
from rpje.rules import ChainRule, build_index

from conftest import CHECKPOINT, make_kg
from oracles import Path, compose_embedding, path_weight, relpair_energy


@pytest.fixture
def kg():
    return make_kg([("a", "r", "b"), ("b", "s", "c"), ("c", "t", "a")])


def test_init_unit_norm(kg):
    emb = init_embeddings(kg, TrainingConfig(dim=16, seed=3))
    np.testing.assert_allclose(np.linalg.norm(emb.entities, axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(np.linalg.norm(emb.relations, axis=1), 1.0, atol=1e-9)


def test_init_deterministic(kg):
    a = init_embeddings(kg, TrainingConfig(dim=16, seed=3))
    b = init_embeddings(kg, TrainingConfig(dim=16, seed=3))
    np.testing.assert_array_equal(a.entities, b.entities)
    np.testing.assert_array_equal(a.relations, b.relations)


def test_init_shapes(kg):
    emb = init_embeddings(kg, TrainingConfig(dim=10, seed=0))
    assert emb.entities.shape == (kg.n_entities, 10)
    assert emb.relations.shape == (kg.n_base_relations, 10)


def test_bad_config_rejected():
    with pytest.raises(ConfigError):
        TrainingConfig(dim=0).validate()
    with pytest.raises(ConfigError):
        TrainingConfig(margin_triple=0.0).validate()
    with pytest.raises(ConfigError):
        TrainingConfig(alpha_paths=-1.0).validate()
    with pytest.raises(ConfigError):
        TrainingConfig(norm="L3").validate()
    with pytest.raises(ConfigError):
        TrainingConfig(max_path_steps=5).validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field", ["margin_triple", "margin_path", "margin_relpair", "alpha_paths", "alpha_relpairs"]
)
def test_non_finite_margins_and_weights_rejected(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be .*finite"):
        TrainingConfig(**{field: value}).validate()


def _hand_table():
    entities = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    relations = np.array([[0.0, 1.0], [1.0, 1.0]])
    return EmbeddingTable(entities, relations)


# Id-level views of the array energies, for the hand-computed values below.
def triple_energy_of(emb, h, r, t, norm):
    return triple_energy(emb.entities[h], emb.relation_vec(r), emb.entities[t], norm)


def path_energy_of(emb, p, cr, r, norm):
    return path_energy(path_weight(p, cr), compose_embedding(cr, emb), emb.relation_vec(r), norm)


def relpair_energy_of(emb, r, r_e, norm):
    return relpair_energy(emb.relation_vec(r), emb.relation_vec(r_e), norm)


def test_energy_triple_zero_at_exact_translation():
    emb = _hand_table()
    # h=(0,0), r=(0,1), t=(0,1)
    assert triple_energy_of(emb, 1, 0, 2, "L1") == pytest.approx(0.0)


def test_energy_triple_hand_value():
    emb = _hand_table()
    # h=(1,0), r=(0,1), t=(0,0): |1| + |1| = 2 under L1
    assert triple_energy_of(emb, 0, 0, 1, "L1") == pytest.approx(2.0)


def test_energy_triple_inverse_identity():
    rng = np.random.default_rng(0)
    emb = EmbeddingTable(rng.normal(size=(4, 8)), rng.normal(size=(3, 8)))
    inv = lambda r: r + 3
    for norm in ("L1", "L2"):
        for h, r, t in [(0, 1, 2), (3, 0, 1)]:
            assert triple_energy_of(emb, h, r, t, norm) == pytest.approx(
                triple_energy_of(emb, t, inv(r), h, norm)
            )


def test_energy_path_hand_value():
    emb = _hand_table()
    index = build_index([ChainRule(head=1, body=(0, 0), confidence=0.81)], 0.0)
    cr = Composer(index).compose((0, 0))
    # C(p) = rel 1 = (1,1); target r=0 -> ||(1,1)-(0,1)||_1 = 1... use r=0
    p = Path(relations=(0, 0), reliability=0.5)
    # R * prod(mu) * ||C - r|| = 0.5 * 0.81 * 1
    assert path_energy_of(emb, p, cr, 0, "L1") == pytest.approx(0.5 * 0.81 * 1.0)


def test_energy_path_zero_when_composed_to_target():
    emb = _hand_table()
    index = build_index([ChainRule(head=1, body=(0, 0), confidence=0.81)], 0.0)
    cr = Composer(index).compose((0, 0))
    p = Path(relations=(0, 0), reliability=0.7)
    assert path_energy_of(emb, p, cr, 1, "L1") == pytest.approx(0.0)


def test_energy_path_without_rules_is_plain_distance():
    emb = _hand_table()
    cr = Composer(build_index([], 0.0)).compose((0,))
    p = Path(relations=(0,), reliability=1.0)
    assert path_energy_of(emb, p, cr, 1, "L1") == pytest.approx(
        dissimilarity(emb.relations[0] - emb.relations[1], "L1")
    )


def test_energy_relpair():
    emb = _hand_table()
    assert relpair_energy_of(emb, 0, 0, "L1") == pytest.approx(0.0)
    # (0,1) vs (1,1) -> 1
    assert relpair_energy_of(emb, 0, 1, "L1") == pytest.approx(1.0)
    assert relpair_energy_of(emb, 0, 1, "L1") == pytest.approx(relpair_energy_of(emb, 1, 0, "L1"))


def test_inverse_relation_served_negated():
    emb = _hand_table()
    np.testing.assert_array_equal(emb.relation_vec(2), -emb.relations[0])
    np.testing.assert_array_equal(emb.relation_vec(1), emb.relations[1])


def test_checkpoint_round_trip(tmp_path, kg):
    emb = init_embeddings(kg, TrainingConfig(dim=8, seed=1))
    ds = kg.dataset_hash()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(emb, ds, "L2", path)
    loaded, ds2, norm = load_checkpoint(path, expected_dataset_hash=ds)
    assert ds2 == ds and norm == "L2"
    np.testing.assert_array_equal(loaded.entities, emb.entities)
    np.testing.assert_array_equal(loaded.relations, emb.relations)


def test_checkpoint_dataset_mismatch(tmp_path, kg):
    emb = init_embeddings(kg, TrainingConfig(dim=8, seed=1))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(emb, kg.dataset_hash(), "L1", path)
    with pytest.raises(CheckpointError):
        load_checkpoint(path, expected_dataset_hash="f" * 64)


def test_checkpoint_norm_round_trips(tmp_path, kg):
    """The checkpoint stores its training norm; scoring reads it from there."""
    emb = init_embeddings(kg, TrainingConfig(dim=8, seed=1))
    path = tmp_path / "ckpt.bin"
    for norm in NORMS:
        save_checkpoint(emb, kg.dataset_hash(), norm, path)
        assert load_checkpoint(path)[2] == norm


def test_checkpoint_older_version_rejected(tmp_path, kg):
    emb = init_embeddings(kg, TrainingConfig(dim=8, seed=1))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(emb, kg.dataset_hash(), "L1", path)
    # version 1 stored a config digest, not the norm; version 2 a dataset hash blind to row order
    for version in (1, 2):
        data = bytearray(path.read_bytes())
        CHECKPOINT.set_fields(data, [version, *CHECKPOINT.fields(data)[1:]])
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=f"version {version}"):
            load_checkpoint(path)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["last entity value", "a relation value"])
def test_checkpoint_non_finite_value_rejected(tmp_path, kg, value, where):
    emb = init_embeddings(kg, TrainingConfig(dim=8, seed=1))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(emb, kg.dataset_hash(), "L1", path)
    data = bytearray(path.read_bytes())
    entities, relations = CHECKPOINT.arrays(data)[0]
    if where == "last entity value":
        entities[-1] = value
    else:
        relations[len(relations) // 2] = value
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="not finite"):
        load_checkpoint(path)


def test_checkpoint_with_no_rows_loads(tmp_path, kg):
    """A header of 0 entities and relations gives empty tables, not an error
    from a reduction over no values."""
    emb = init_embeddings(kg, TrainingConfig(dim=8, seed=1))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(emb, kg.dataset_hash(), "L1", path)
    data = bytearray(path.read_bytes())
    header = CHECKPOINT.fields(data)
    header[2:4] = 0, 0
    CHECKPOINT.set_fields(data, header)
    path.write_bytes(bytes(data[: len(CHECKPOINT.magic) + CHECKPOINT.header.size]))
    loaded, _, _ = load_checkpoint(path)
    assert loaded.entities.shape == (0, 8) and loaded.relations.shape == (0, 8)


def test_checkpoint_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"nope")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_energies_accept_candidate_axis():
    rng = np.random.default_rng(1)
    cands = rng.normal(size=(5, 8))
    h, r, t = rng.normal(size=(3, 8))
    for norm in ("L1", "L2"):
        for got, one in (
            (triple_energy(cands, r, t, norm), lambda c: triple_energy(c, r, t, norm)),
            (triple_energy(h, cands, t, norm), lambda c: triple_energy(h, c, t, norm)),
            (triple_energy(h, r, cands, norm), lambda c: triple_energy(h, r, c, norm)),
            (path_energy(0.3, h, cands, norm), lambda c: path_energy(0.3, h, c, norm)),
            (relpair_energy(r, cands, norm), lambda c: relpair_energy(r, c, norm)),
        ):
            assert got.shape == (5,)
            np.testing.assert_allclose(got, [one(c) for c in cands], rtol=1e-12)
