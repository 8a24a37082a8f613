import hashlib
import os
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpje import artifacts, kg as kg_mod
from rpje.kg import DatasetError, distinct_groups, distinct_sorted, load_dataset
from rpje.synthetic import ToyConfig, generate, write_dataset

from conftest import DATASET_CACHE, adjacency_by_relation, make_kg

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workloads  # noqa: E402


def write_split(path, rows):
    path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))


def split_rows(kg):
    """The (head, relation, tail) names of the train, valid and test rows."""
    return [[(kg.entity_names[h], kg.relation_names[r], kg.entity_names[t])
             for h, r, t in ids.tolist()] for ids in (kg.train_ids, kg.valid_ids, kg.test_ids)]


def test_load_minimal_dataset(tmp_path):
    for name in ("train", "valid", "test"):
        write_split(tmp_path / f"{name}.tsv", [("a", "r", "b")])
    kg = load_dataset(tmp_path / "train.tsv", tmp_path / "valid.tsv", tmp_path / "test.tsv")
    assert kg.n_entities == 2
    assert kg.n_base_relations == 1
    assert kg.n_relations == 2
    assert len(kg.train) == len(kg.valid_ids) == len(kg.test) == 1


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
        grouped = adjacency_by_relation(toy_kg, e)
        assert csr.group_size[lo:hi].tolist() == [len(grouped[r]) for r, _ in edges]
    triples = {(h, r, t) for h, r, t in toy_kg.train}
    for e in range(toy_kg.n_entities):
        for r, nb in toy_kg.adjacency(e):
            assert (e, r, nb) in triples or (nb, toy_kg.inverse(r), e) in triples


@given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("pq"), st.sampled_from("abcd")),
                min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_csr_reverse_is_the_inverse_edge(rows):
    """Edge (e, r, n) reverses to edge (n, inverse r, e), self-loops and
    parallel relations included, and reversing twice is the identity."""
    kg = make_kg(rows)
    csr = kg.csr
    source = np.repeat(np.arange(kg.n_entities), np.diff(csr.indptr))
    back = csr.reverse
    assert source[back].tolist() == csr.neighbour.tolist()
    assert csr.neighbour[back].tolist() == source.tolist()
    assert csr.relation[back].tolist() == [kg.inverse(r) for r in csr.relation.tolist()]
    assert back[back].tolist() == list(range(len(back)))


def test_duplicate_triples_dropped_within_split():
    kg = make_kg([("a", "r", "b"), ("a", "r", "b")])
    assert len(kg.train) == 1


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
    kg = make_kg(train, valid, test)
    # dump/load reproduces the same symbolic triple sets per split
    for got, rows in zip(split_rows(kg), (train, valid, test)):
        assert set(got) == set(rows)
    assert sum(len(kg.adjacency(e)) for e in range(kg.n_entities)) == 2 * len(kg.train)
    for r in range(kg.n_relations):
        assert kg.inverse(kg.inverse(r)) == r


def test_dump_split_round_trip(tmp_path):
    rows = [("a", "r", "b"), ("b", "s", "c")]
    kg = make_kg(rows, valid=[("a", "s", "c")], test=[("c", "r", "a")])
    for split, rows in zip(("train", "valid", "test"), split_rows(kg)):
        write_split(tmp_path / f"{split}.tsv", rows)
    kg2 = load_dataset(tmp_path / "train.tsv", tmp_path / "valid.tsv", tmp_path / "test.tsv")
    assert split_rows(kg2) == split_rows(kg)
    assert kg2.dataset_hash() == kg.dataset_hash()


def test_dataset_hash_computed_once(monkeypatch, tmp_path):
    rows = dict(train=[("a", "r", "b")], valid=[("b", "r", "a")], test=[])
    fresh = make_kg(rows["train"], valid=rows["valid"]).dataset_hash()
    digests = []
    real = kg_mod._graph_digest
    monkeypatch.setattr(kg_mod, "_graph_digest", lambda *a: digests.append(a) or real(*a))
    kg = make_kg(rows["train"], valid=rows["valid"])
    assert kg.dataset_hash() == kg.dataset_hash() == fresh
    assert len(digests) == 1
    # the cache stores the hash: writing it computes the digest once, reading it never
    files = [tmp_path / f"{split}.tsv" for split in rows]
    for path, split in zip(files, rows):
        write_split(path, rows[split])
    cache = tmp_path / "dataset.bin"
    assert load_dataset(*files, cache=cache).dataset_hash() == fresh
    assert len(digests) == 2
    assert load_dataset(*files, cache=cache).dataset_hash() == fresh
    assert len(digests) == 2


def reference_dataset_hash(train, valid, test):
    """SHA-256 of the graph the oracle interns: every symbol table as its size, each
    name's UTF-8 byte length, then the names; every split as its row count, then its
    id triples; numbers as little-endian 32-bit, packed one value at a time."""
    entities, relations, splits = oracle_intern([train, valid, test])
    stream = bytearray()
    for names in (entities, relations):
        stream += struct.pack("<I", len(names))
        for name in names:
            stream += struct.pack("<I", len(name.encode("utf-8")))
        for name in names:
            stream += name.encode("utf-8")
    for triples in splits:
        stream += struct.pack("<I", len(triples))
        for triple in triples:
            stream += struct.pack("<3i", *triple)
    return hashlib.sha256(bytes(stream)).hexdigest()


def test_dataset_hash_matches_per_row_reference():
    # ids follow first appearance, so the name order differs from the id order
    train = [("zed", "rel_b", "amy"), ("bob", "rel_a", "zed"), ("amy", "rel_b", "bob"),
             ("amy", "rel_a", "amy"), ("bob", "rel_a", "zed"), ("é", "rel_ü", "\u2028")]
    valid = [("bob", "rel_b", "amy"), ("new", "rel_c", "zed")]
    kg = make_kg(train, valid=valid)
    assert sorted(kg.entity_names) != kg.entity_names
    assert sorted(kg.relation_names) != kg.relation_names
    assert kg.dataset_hash() == reference_dataset_hash(train, valid, [])
    # row order is part of a dataset's identity: the ids follow it
    shuffled = make_kg(train[::-1], valid=valid)
    assert set(split_rows(shuffled)[0]) == set(split_rows(kg)[0])
    assert shuffled.dataset_hash() == reference_dataset_hash(train[::-1], valid, [])
    assert shuffled.dataset_hash() != kg.dataset_hash()


# --- oracle: the per-row reader and interning loop ---

def oracle_read_triple_file(path):
    """Read a head<TAB>relation<TAB>tail file, one triple per line, in text mode."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DatasetError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            rows.append((parts[0], parts[1], parts[2]))
    return rows


def oracle_intern(splits):
    """(entity names, relation names, id triples per split): ids by first appearance,
    a triple repeated within a split kept once."""
    entity_id, relation_id = {}, {}
    out = []
    for rows in splits:
        triples, seen = [], set()
        for h, r, t in rows:
            hid = entity_id.setdefault(h, len(entity_id))
            tid = entity_id.setdefault(t, len(entity_id))
            rid = relation_id.setdefault(r, len(relation_id))
            if (hid, rid, tid) not in seen:
                seen.add((hid, rid, tid))
                triples.append((hid, rid, tid))
        out.append(triples)
    return list(entity_id), list(relation_id), out


def oracle_load(paths):
    """(entity names, relation names, id triples per split), or the DatasetError message."""
    try:
        splits = [oracle_read_triple_file(path) for path in paths]
        if not splits[0]:
            raise DatasetError("train split is empty")
    except DatasetError as exc:
        return str(exc)
    return oracle_intern(splits)


def loaded(paths, cache=None):
    """``load_dataset``'s graph in the oracle's terms, or its DatasetError message."""
    try:
        kg = load_dataset(*paths, cache=cache)
    except DatasetError as exc:
        return str(exc)
    splits = (kg.train_ids, kg.valid_ids, kg.test_ids)
    return kg.entity_names, kg.relation_names, [list(map(tuple, ids.tolist())) for ids in splits]


def graph_state(kg):
    """Names, hash, id arrays and the train CSR, each CSR array with its dtype."""
    return (kg.entity_names, kg.relation_names, kg.dataset_hash(),
            [ids.tolist() for ids in (kg.train_ids, kg.valid_ids, kg.test_ids)],
            [(array.dtype, array.tolist()) for array in kg.csr])


# Names may hold characters that str.splitlines would split at, a BOM, or nothing.
name_chars = st.sampled_from(["a", "b", "é", " ", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\ufeff"])
names = st.text(alphabet=name_chars, max_size=2)
line = st.one_of(
    st.just(""),  # blank line
    st.lists(names, min_size=3, max_size=3).map("\t".join),
    st.lists(names, min_size=1, max_size=4).map("\t".join),  # sometimes malformed
)


@st.composite
def split_text(draw):
    pool = draw(st.lists(line, min_size=1, max_size=6))
    lines = draw(st.lists(st.sampled_from(pool), max_size=12))  # repeats rows
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(map("".join, zip(lines, ends)))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no final line end
    return ("\ufeff" if draw(st.booleans()) else "") + text


@given(texts=st.tuples(split_text(), split_text(), split_text()))
@settings(max_examples=300, deadline=None)
def test_interning_matches_per_row_oracle(tmp_path_factory, texts):
    directory = tmp_path_factory.mktemp("splits")
    paths = [directory / f"{split}.tsv" for split in ("train", "valid", "test")]
    for path, text in zip(paths, texts):
        path.write_bytes(text.encode("utf-8"))
    expected = oracle_load(paths)
    assert loaded(paths) == expected
    cache = directory / "dataset.bin"
    assert loaded(paths, cache) == expected  # written on a miss
    assert loaded(paths, cache) == expected  # read on a hit
    if not isinstance(expected, str):  # the stored CSR is the one a parse builds
        assert graph_state(load_dataset(*paths, cache=cache)) == graph_state(load_dataset(*paths))


def assert_entity_lookups(kg):
    """``entity_id`` finds every name at its ``entity_names`` index, and finds no
    other string: no part of a name, no two names joined by a line feed and no
    string with a lone surrogate, as Python decodes an argument that is not UTF-8."""
    names = kg.entity_names
    assert len(names) == kg.n_entities
    for name in names:
        assert kg.entity_id(name) == names.index(name)
    others = {"\udcff", f"{names[0]}\udcff", f"\ud800{names[-1]}"}
    for name in names:
        others |= {name[:k] for k in range(len(name))} | {name[k:] for k in range(1, len(name) + 1)}
        others |= {f"{name}\n", f"\n{name}"}
    others |= {f"{a}\n{b}" for a, b in zip(names, names[1:])}
    for other in others - set(names):
        with pytest.raises(LookupError, match="unknown entity"):
            kg.entity_id(other)


@given(texts=st.tuples(split_text(), split_text(), split_text()))
@settings(max_examples=150, deadline=None)
def test_entity_lookup_matches_list_index(tmp_path_factory, texts):
    """The same lookup rule on a parse, on the miss that writes the cache and on
    a hit, over names with characters ``str.splitlines`` splits at, a BOM and
    the empty name."""
    directory = tmp_path_factory.mktemp("splits")
    paths = [directory / f"{split}.tsv" for split in ("train", "valid", "test")]
    for path, text in zip(paths, texts):
        path.write_bytes(text.encode("utf-8"))
    if isinstance(oracle_load(paths), str):
        return
    cache = directory / "dataset.bin"
    for kg in (load_dataset(*paths), load_dataset(*paths, cache=cache)):
        assert_entity_lookups(kg)
    hit = kg_mod._read_cache(cache, [path.read_bytes() for path in paths])
    assert_entity_lookups(hit)
    assert graph_state(hit) == graph_state(load_dataset(*paths))


def test_entity_name_with_line_feed_rejected():
    with pytest.raises(DatasetError, match="line feed"):
        make_kg([("a\nb", "r", "c")])


@pytest.mark.parametrize(
    "train, valid, test",
    [
        # duplicates within a split and across splits
        ("a\tr\tb\na\tr\tb\nb\tr\ta\n", "a\tr\tb\n", "b\tr\ta\nb\tr\ta\n"),
        # an entity first seen as a tail, others only in valid/test, a relation only in test
        ("x\tr\ty\n", "z\tr\tx\n", "w\tq\tz\n"),
        # blank lines, CRLF, a lone CR and no final newline
        ("\na\tr\tb\r\n\r\nb\tr\tc\rc\tr\ta", "", "\r\n"),
        # names str.splitlines would split, and a BOM kept as part of the first name
        ("\ufeffa\x0bb\tr\x85\tc\x1cd\n\u2028\tr\x0c\t\n", "", ""),
        # field-count errors carry the line number, blank lines counted
        ("a\tr\tb\n\r\nonly\ttwo\n", "", ""),
        ("a\tr\tb\n", "x\ty\tz\tw\n", ""),
        ("\n\r\n", "a\tr\tb\n", ""),  # empty train
    ],
)
def test_interning_cases_match_oracle(tmp_path, train, valid, test):
    paths = [tmp_path / f"{split}.tsv" for split in ("train", "valid", "test")]
    for path, text in zip(paths, (train, valid, test)):
        path.write_bytes(text.encode("utf-8"))
    assert loaded(paths) == oracle_load(paths)


@pytest.mark.parametrize("workload", ["toy-train", "wide-eval", "hub-paths"])
def test_workload_interning_matches_oracle(tmp_path, workload):
    spec = workloads.WORKLOADS[workload]
    workloads.write_workload(spec, tmp_path)
    paths = [tmp_path / f"{split}.tsv" for split in ("train", "valid", "test")]
    expected = oracle_load(paths)
    assert loaded(paths) == expected
    assert load_dataset(*paths).dataset_hash() == reference_dataset_hash(
        *map(oracle_read_triple_file, paths)
    )


# --- the dataset cache ---

@pytest.fixture
def toy_files(tmp_path, toy_data):
    files = write_dataset(toy_data, tmp_path / "data")
    return [files[split] for split in ("train", "valid", "test")]


def _parses(monkeypatch):
    """A list that records every text parse ``load_dataset`` makes."""
    calls = []
    real = kg_mod._parse
    monkeypatch.setattr(kg_mod, "_parse", lambda *a: calls.append(1) or real(*a))
    return calls


def test_cache_hit_parses_no_text(tmp_path, toy_files, monkeypatch):
    cache = tmp_path / "out" / "dataset.bin"  # its directory is created on write
    written = graph_state(load_dataset(*toy_files, cache=cache))
    parses = _parses(monkeypatch)
    assert graph_state(load_dataset(*toy_files, cache=cache)) == written
    assert parses == []
    assert written == graph_state(load_dataset(*toy_files))


def stored_arrays(data):
    """The arrays of the cache ``data``, a bytearray, as writeable views: the id
    rows of every split as one (n, 3) array, the entity and relation name bytes,
    the train CSR and the stored train, valid and test files."""
    ids, entities, relations, *rest = DATASET_CACHE.arrays(data)[0]
    return ids.reshape(-1, 3), entities, relations, kg_mod.AdjacencyCSR(*rest[:5]), rest[5:]


def assert_rebuilt(cache, files, data, original, expected, monkeypatch):
    """``data`` at ``cache`` is a miss: one parse, then ``original`` rewritten."""
    cache.write_bytes(bytes(data))
    parses = _parses(monkeypatch)
    assert graph_state(load_dataset(*files, cache=cache)) == expected
    assert parses == [1]
    assert cache.read_bytes() == original


@pytest.mark.parametrize(
    "damage",
    ["truncated header", "truncated ids", "one byte short", "over-long", "magic", "version",
     "train head id", "valid relation id", "test tail id",
     "neighbour id", "negative neighbour id", "relation id", "negative relation id",
     "decreasing indptr", "group size 0", "indptr start", "indptr end", "reverse edge id",
     "entity name not UTF-8", "relation name not UTF-8", "one entity separator too many",
     "one relation separator too many", "last entity separator", "reserved relation suffix"],
)
def test_damaged_cache_is_rebuilt(tmp_path, toy_files, monkeypatch, damage):
    cache = tmp_path / "dataset.bin"
    kg = load_dataset(*toy_files, cache=cache)
    expected = graph_state(kg)
    original = cache.read_bytes()
    data = bytearray(original)
    version, *rest = DATASET_CACHE.fields(data)
    (ids, *_), (ids_start, *_) = DATASET_CACHE.arrays(data)
    rows, entities, relations, csr, _ = stored_arrays(data)
    n_train, n_valid, n_test = map(len, (kg.train_ids, kg.valid_ids, kg.test_ids))
    assert n_valid and n_test
    if damage == "truncated header":
        data = data[: len(DATASET_CACHE.magic) + DATASET_CACHE.header.size // 2]
    elif damage == "truncated ids":
        data = data[: ids_start + ids.nbytes // 2]
    elif damage == "one byte short":
        data = data[:-1]
    elif damage == "over-long":
        data = data + b"\0"
    elif damage == "magic":
        data[0] ^= 0xFF
    elif damage == "version":  # the previous format is a miss
        DATASET_CACHE.set_fields(data, [version - 1, *rest])
    elif damage == "train head id":  # an id out of range in each id column
        rows[n_train - 1, 0] = kg.n_entities
    elif damage == "valid relation id":
        rows[n_train, 1] = kg.n_base_relations
    elif damage == "test tail id":
        rows[-1, 2] = -1
    elif damage.endswith("not UTF-8"):
        (entities if damage.startswith("entity") else relations)[0] = 0xFF
    elif damage.endswith("separator too many"):
        names = entities if damage.startswith("one entity") else relations
        names[0] = ord("\n")  # the first name's first byte
    elif damage == "last entity separator":  # the count holds, the last name is cut off
        entities[-1] = ord("x")
        entities[0] = ord("\n")
    elif damage == "reserved relation suffix":  # the first relation name ends in ^-1
        end = bytes(relations).index(b"\n")
        relations[end - 3:end] = np.frombuffer(kg_mod.INVERSE_SUFFIX.encode(), "u1")
    else:  # a value out of range in the CSR
        indptr, relation, neighbour, group_size, reverse = csr
        if damage == "neighbour id":
            neighbour[-1] = kg.n_entities
        elif damage == "negative neighbour id":
            neighbour[0] = -1
        elif damage == "relation id":
            relation[0] = kg.n_relations
        elif damage == "negative relation id":
            relation[-1] = -1
        elif damage == "decreasing indptr":
            indptr[1] = indptr[2] + 1
        elif damage == "indptr start":
            indptr[0] = 1
        elif damage == "indptr end":
            indptr[-1] += 1
        elif damage == "reverse edge id":
            reverse[0] = len(reverse)
        else:
            group_size[len(group_size) // 2] = 0
    assert_rebuilt(cache, toy_files, data, original, expected, monkeypatch)


@pytest.fixture
def long_files(tmp_path):
    """Split files of more than 64 KiB each, so their cache is mapped."""
    files = []
    for split, rows in (("train", 3000), ("valid", 2500), ("test", 2500)):
        path = tmp_path / "data" / f"{split}.tsv"
        path.parent.mkdir(exist_ok=True)
        write_split(path, [(f"entity_{i % 1500}", f"relation_{i % 7}", f"entity_{(7 * i + 1) % 1500}")
                           for i in range(rows)])
        assert path.stat().st_size > 1 << 16
        files.append(path)
    return files


@pytest.mark.parametrize("split", [0, 1, 2])
@pytest.mark.parametrize("where", [0, 1 << 15, -1])
def test_cache_compares_every_stored_byte(tmp_path, long_files, monkeypatch, split, where):
    """One flipped byte anywhere in a stored split file, its last byte included,
    is a miss that parses once and rewrites the cache."""
    cache = tmp_path / "dataset.bin"
    expected = graph_state(load_dataset(*long_files, cache=cache))
    original = cache.read_bytes()
    assert len(original) >= artifacts._MAP_FROM
    data = bytearray(original)
    stored = stored_arrays(data)[-1][split]
    assert bytes(stored) == long_files[split].read_bytes()
    stored[where] ^= 0x01
    assert_rebuilt(cache, long_files, data, original, expected, monkeypatch)


@pytest.mark.parametrize("split", [0, 1, 2])
def test_cache_of_a_prefix_is_a_miss(tmp_path, long_files, monkeypatch, split):
    """A cache written for a split file one byte shorter, here one without its
    final line end, stores a prefix of the file: its length differs, so it is
    a miss, although it parses to the same graph."""
    cache = tmp_path / "dataset.bin"
    expected = graph_state(load_dataset(*long_files, cache=cache))
    original = cache.read_bytes()
    shorter = list(long_files)
    shorter[split] = tmp_path / "shorter.tsv"
    shorter[split].write_bytes(long_files[split].read_bytes()[:-1])
    prefix_cache = tmp_path / "prefix.bin"
    assert graph_state(load_dataset(*shorter, cache=prefix_cache)) == expected
    assert_rebuilt(cache, long_files, prefix_cache.read_bytes(), original, expected, monkeypatch)


def test_cache_follows_changed_sources(tmp_path, toy_files, toy_data):
    cache = tmp_path / "dataset.bin"
    before = graph_state(load_dataset(*toy_files, cache=cache))
    train = toy_files[0]
    with open(train, "rb") as fh:
        text = fh.read()
    at = text.index(b"\t") - 1
    with open(train, "wb") as fh:
        fh.write(text[:at] + b"#" + text[at + 1:])  # one byte of train.tsv
    after = graph_state(load_dataset(*toy_files, cache=cache))
    assert after != before
    assert after == graph_state(load_dataset(*toy_files))
    assert after == graph_state(load_dataset(*toy_files, cache=cache))

    # a cache written for another dataset is not used for this one
    other = write_dataset(generate(ToyConfig(seed=3)), tmp_path / "other")
    foreign = tmp_path / "foreign.bin"
    load_dataset(other["train"], other["valid"], other["test"], cache=foreign)
    cache.write_bytes(foreign.read_bytes())
    assert graph_state(load_dataset(*toy_files, cache=cache)) == after


def test_read_only_cache_use_writes_nothing(tmp_path, toy_files):
    cache = tmp_path / "out" / "dataset.bin"
    expected = graph_state(load_dataset(*toy_files))
    assert graph_state(load_dataset(*toy_files, cache=cache, write_cache=False)) == expected
    assert not cache.parent.exists()


@given(
    values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=60)
    | st.lists(st.integers(0, 5), max_size=60)
    | st.builds(lambda v, n: [v] * n, st.integers(-(2**63), 2**63 - 1), st.integers(0, 20))
)
@settings(max_examples=150, deadline=None)
def test_distinct_sorted_matches_unique(values):
    """The sort-and-change-mark distinct values equal ``np.unique``'s, for empty,
    all-equal and repeating int64 arrays."""
    array = np.array(values, dtype=np.int64)
    got = distinct_sorted(array)
    assert got.dtype == np.int64
    assert got.tolist() == np.unique(array).tolist()


int64s = st.integers(-(2**63), 2**63 - 1)


@given(
    values=st.lists(int64s, max_size=60)
    | st.lists(st.integers(0, 5), max_size=300)
    | st.lists(st.integers(-3, 3), max_size=60).map(sorted)
    | st.lists(st.integers(-3, 3), max_size=60).map(lambda v: sorted(v, reverse=True))
    | st.builds(lambda v, n: [v] * n, int64s, st.integers(0, 40))
)
@settings(max_examples=200, deadline=None)
def test_distinct_groups_match_unique(values):
    """The one-argsort grouping equals ``np.unique(..., return_index=True,
    return_inverse=True)`` for empty, single-value, all-equal, sorted, reversed and
    many-duplicate int64 arrays: the first position is the least of each value's,
    though the sort behind it is not stable."""
    array = np.array(values, dtype=np.int64)
    got = distinct_groups(array)
    expected = np.unique(array, return_index=True, return_inverse=True)
    assert [a.tolist() for a in got] == [a.tolist() for a in expected]
    assert got[0].dtype == np.int64


def lexsort_first_occurrences(ids):
    """The distinct rows of ``ids`` where each first appears, by a stable lexsort."""
    order = np.lexsort(ids.T[::-1])
    rows = ids[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return ids[np.sort(order[first])]


@given(
    rows=st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=80)
    | st.lists(st.tuples(*[st.sampled_from([0, 1, 2**31 - 1])] * 3), max_size=40)
)
@settings(max_examples=150, deadline=None)
def test_first_occurrences_match_lexsort(rows):
    """The distinct rows in first-appearance order equal the stable lexsort's, on
    rows that repeat and on ids at the int32 limit."""
    ids = np.array(rows, dtype=np.int32).reshape(-1, 3)
    got = kg_mod._first_occurrences(ids)
    assert got.dtype == np.int32
    assert got.tolist() == lexsort_first_occurrences(ids).tolist()

