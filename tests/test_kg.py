import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from rpje.kg import DatasetError, KnowledgeGraph, load_dataset

from conftest import make_kg


def write_split(path, rows):
    path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))


def test_load_minimal_dataset(tmp_path):
    for name in ("train", "valid", "test"):
        write_split(tmp_path / f"{name}.tsv", [("a", "r", "b")])
    kg = load_dataset(tmp_path / "train.tsv", tmp_path / "valid.tsv", tmp_path / "test.tsv")
    assert kg.n_entities == 2
    assert kg.n_base_relations == 1
    assert kg.n_relations == 2
    assert len(kg.train) == len(kg.valid) == len(kg.test) == 1


def test_malformed_line_reports_line_number(tmp_path):
    (tmp_path / "train.tsv").write_text("a\tr\tb\nbadline\n")
    write_split(tmp_path / "valid.tsv", [("a", "r", "b")])
    with pytest.raises(DatasetError, match="train.tsv:2"):
        load_dataset(tmp_path / "train.tsv", tmp_path / "valid.tsv", tmp_path / "valid.tsv")


def test_empty_train_rejected():
    with pytest.raises(DatasetError):
        make_kg([])


def test_adjacency_includes_inverse_edges():
    kg = make_kg([("a", "r", "b")])
    a, b = kg.entity_id("a"), kg.entity_id("b")
    r = kg.relation_id("r")
    assert kg.adjacency(a) == [(r, b)]
    assert kg.adjacency(b) == [(kg.inverse(r), a)]


def test_adjacency_deterministic_order():
    kg = make_kg([("a", "r", "b"), ("a", "s", "c")])
    a = kg.entity_id("a")
    r, s = kg.relation_id("r"), kg.relation_id("s")
    assert r < s
    assert kg.adjacency(a) == [(r, kg.entity_id("b")), (s, kg.entity_id("c"))]


def test_adjacency_unknown_entity():
    kg = make_kg([("a", "r", "b")])
    with pytest.raises(LookupError):
        kg.adjacency(99)


def test_edge_count_is_twice_train():
    kg = make_kg([("a", "r", "b"), ("b", "s", "c"), ("a", "s", "c")])
    n_edges = sum(len(kg.adjacency(e)) for e in range(kg.n_entities))
    assert n_edges == 2 * len(kg.train)


def test_csr_is_sorted_and_counts_relation_groups(toy_kg):
    csr = toy_kg.csr
    assert csr.indptr[-1] == len(csr.relation) == 2 * len(toy_kg.train)
    for e in range(toy_kg.n_entities):
        lo, hi = csr.indptr[e], csr.indptr[e + 1]
        edges = list(zip(csr.relation[lo:hi].tolist(), csr.neighbour[lo:hi].tolist()))
        assert edges == sorted(edges) == toy_kg.adjacency(e)
        grouped = toy_kg.adjacency_by_relation(e)
        assert csr.group_size[lo:hi].tolist() == [len(grouped[r]) for r, _ in edges]
    triples = {(h, r, t) for h, r, t in toy_kg.train}
    for e in range(toy_kg.n_entities):
        for r, nb in toy_kg.adjacency(e):
            assert (e, r, nb) in triples or (nb, toy_kg.inverse(r), e) in triples


def test_duplicate_triples_dropped_within_split():
    kg = make_kg([("a", "r", "b"), ("a", "r", "b")])
    assert len(kg.train) == 1


def test_is_known_direct_and_inverse():
    kg = make_kg([("a", "r", "b")], valid=[("a", "r", "c")], test=[("d", "r", "b")])
    a, b = kg.entity_id("a"), kg.entity_id("b")
    r = kg.relation_id("r")
    assert kg.is_known((a, r, b))
    assert kg.is_known((kg.entity_id("a"), r, kg.entity_id("c")))  # valid counts
    assert not kg.is_known((b, r, a))
    # inverse view of a stored triple is known; brute-force check over base triples
    inv = kg.inverse(r)
    stored = set(kg.train) | set(kg.valid) | set(kg.test)
    assert kg.is_known((b, inv, a)) == ((a, r, b) in stored)


def test_inverse_involution():
    kg = make_kg([("a", "r", "b"), ("b", "s", "c")])
    for r in range(kg.n_relations):
        assert kg.inverse(kg.inverse(r)) == r
        assert kg.inverse(r) != r


def test_relation_name_round_trip():
    kg = make_kg([("a", "r", "b")])
    r = kg.relation_id("r")
    assert kg.relation_name(kg.inverse(r)) == "r^-1"
    assert kg.relation_id("r^-1") == kg.inverse(r)
    assert kg.relation_id("r^-1^-1") == r


def test_symbols_only_in_valid_test_are_interned():
    kg = make_kg([("a", "r", "b")], valid=[("x", "q", "y")], test=[("z", "r", "a")])
    assert kg.n_entities == 5
    assert kg.n_base_relations == 2


symbol = st.text(alphabet="abcdefg", min_size=1, max_size=3)
triples = st.lists(st.tuples(symbol, symbol, symbol), min_size=1, max_size=30)


@given(train=triples, valid=triples, test=triples)
@settings(max_examples=50, deadline=None)
def test_round_trip_and_edge_invariant(train, valid, test):
    kg = KnowledgeGraph(train, valid, test)
    # dump/load reproduces the same symbolic triple sets per split
    for split, rows in (("train", train), ("valid", valid), ("test", test)):
        assert set(kg.split_rows(split)) == set(rows)
    assert sum(len(kg.adjacency(e)) for e in range(kg.n_entities)) == 2 * len(kg.train)
    for r in range(kg.n_relations):
        assert kg.inverse(kg.inverse(r)) == r


def test_dump_split_round_trip(tmp_path):
    rows = [("a", "r", "b"), ("b", "s", "c")]
    kg = make_kg(rows, valid=[("a", "s", "c")], test=[("c", "r", "a")])
    for split in ("train", "valid", "test"):
        out = tmp_path / f"{split}.tsv"
        kg.dump_split(split, out)
    kg2 = load_dataset(tmp_path / "train.tsv", tmp_path / "valid.tsv", tmp_path / "test.tsv")
    for split in ("train", "valid", "test"):
        assert set(kg2.split_rows(split)) == set(kg.split_rows(split))
    assert kg2.dataset_hash() == kg.dataset_hash()


def test_dataset_hash_computed_once(monkeypatch):
    kg = make_kg([("a", "r", "b")], valid=[("b", "r", "a")])
    fresh = make_kg([("a", "r", "b")], valid=[("b", "r", "a")]).dataset_hash()
    hashed = []
    real = KnowledgeGraph.split_rows
    monkeypatch.setattr(
        KnowledgeGraph, "split_rows", lambda self, split: hashed.append(split) or real(self, split)
    )
    assert kg.dataset_hash() == kg.dataset_hash() == fresh
    assert hashed == ["train", "valid", "test"]


def test_dataset_hash_matches_per_row_reference():
    # ids follow first appearance, so the name order differs from the id order
    train = [("zed", "rel_b", "amy"), ("bob", "rel_a", "zed"), ("amy", "rel_b", "bob"),
             ("amy", "rel_a", "amy")]
    valid = [("bob", "rel_b", "amy")]
    kg = make_kg(train, valid=valid)
    assert sorted(kg.entity_names) != kg.entity_names
    assert sorted(kg.relation_names) != kg.relation_names
    reference = hashlib.sha256()
    for split, rows in (("train", train), ("valid", valid), ("test", [])):
        reference.update(split.encode())
        for row in sorted(rows):
            reference.update(("\t".join(row) + "\n").encode())
    assert kg.dataset_hash() == reference.hexdigest()
