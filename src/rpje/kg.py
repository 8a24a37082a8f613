"""Triple store: symbol interning, derived inverse relations, adjacency and membership indexes.

Relations are interned as dense base ids 0..B-1; the inverse of a base relation r
is served under the derived id r + B (no separate parameters, no separate symbol).
Ids follow first appearance: train, valid, then test, rows in file order, the
head before the tail. Each split is an (n, 3) int32 array of (head, relation,
tail) ids without repeated rows; that is the graph's primary form, and the
train and test tuple lists and the indexes are built from it on first use.

Adjacency is built over the train split only and always contains both directions
of every train triple, so there are exactly 2*|train| directed edges. It is one
CSR (``KnowledgeGraph.csr``) sorted by (entity, relation, neighbour), which also
holds the index of each edge's reverse (the edge from its neighbour back under
the inverse relation). The filter index behind ``known_tails``/``known_heads``/
``known_relations`` covers all three splits and answers a whole batch of
queries with one ``searchsorted`` pair.

The entity names are held as their UTF-8 bytes, each name ended by a line feed
(no name holds one): ``entity_id`` finds a name in those bytes, and
``entity_names`` decodes and splits them into a list only when a caller reads it.

``dataset_hash`` is a SHA-256 over the interned graph, so row order is part of a
dataset's identity; checkpoints and path caches are keyed on it.
``load_dataset(..., cache=path)`` keeps the interned graph in a binary file
(``dataset.bin``, in the ``artifacts`` layout) that also stores the three split
files' bytes: it is a hit only if those equal the files' bytes now, and a hit
rebuilds the graph from the stored names, id arrays, dataset hash and train CSR
without parsing or hashing any text or sorting any edge.
"""

from __future__ import annotations

import hashlib
import os
import struct
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .artifacts import decode_text, read_arrays, write_arrays

Triple = tuple[int, int, int]

INVERSE_SUFFIX = "^-1"  # names a derived inverse, so no relation in the data may end with it


def distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending, as ``np.unique`` gives them: a sort and a
    change mark (``np.unique``'s hash pass costs several times a sort)."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def distinct_groups(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values, ascending, each one's first position in ``values``, and
    each value's index among them: ``np.unique(values, return_index=True,
    return_inverse=True)``, from one default argsort and a change mark. That sort
    is not stable, so a value's first position is the least of its run in the sort
    order (``np.minimum.reduceat``), not the run's first element."""
    order = np.argsort(values)
    ordered = values[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[starts], np.minimum.reduceat(order, starts), inverse


class DatasetError(ValueError):
    """Unreadable or structurally invalid dataset input."""


Columns = tuple[list[str], list[str], list[str]]


def _columns(data: bytes, path) -> Columns:
    """Head, relation and tail columns of head<TAB>relation<TAB>tail lines; blank lines skipped."""
    lines = decode_text(data, path, DatasetError).split("\n")
    rows = list(filter(None, lines))
    if set(map(str.count, rows, repeat("\t"))) - {2}:
        for lineno, line in enumerate(lines, start=1):
            n_fields = line.count("\t") + 1
            if line and n_fields != 3:
                raise DatasetError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {n_fields}"
                )
    fields = "\t".join(rows).split("\t") if rows else []
    return fields[0::3], fields[1::3], fields[2::3]


def _first_occurrences(ids: np.ndarray) -> np.ndarray:
    """The distinct rows of ``ids``, (n, 3) non-negative int32, each where it first
    appears. A row's key is its (head, relation) group, then its tail, 32 bits each."""
    h, r, t = ids.astype(np.int64).T
    _, _, group = distinct_groups(h << 32 | r)
    _, first, _ = distinct_groups(group << 32 | t)
    return ids[np.sort(first)]


def _lines(names: list[str]) -> bytes:
    """``names`` as UTF-8 lines, each name ended by a line feed."""
    return "".join([f"{name}\n" for name in names]).encode()


def _split_lines(lines: bytes) -> list[str]:
    """The names of ``_lines`` bytes."""
    return lines.decode()[:-1].split("\n")


def _line_count(data, end: int = -1) -> int:
    """The line feeds in ``data``'s bytes, or in its first ``end`` bytes: one
    numpy pass, several times faster than ``bytes.count``."""
    return int(np.count_nonzero(np.frombuffer(data, "u1", end) == ord("\n")))


def _intern(columns: list[Columns]) -> tuple:
    """The entity names as ``_lines`` bytes and the relation names, each in
    first-appearance order, then each split's id array."""
    ends = []  # per split: head 0, tail 0, head 1, tail 1, ...
    for heads, _, tails in columns:
        interleaved = [None] * (2 * len(heads))
        interleaved[0::2], interleaved[1::2] = heads, tails
        ends.append(interleaved)
    entity_names = list(dict.fromkeys(chain.from_iterable(ends)))
    relation_names = list(dict.fromkeys(chain.from_iterable(rels for _, rels, _ in columns)))
    entity_id = dict(zip(entity_names, range(len(entity_names))))
    relation_id = dict(zip(relation_names, range(len(relation_names))))
    splits = []
    for split_ends, (_, rels, _) in zip(ends, columns):
        ids = np.empty((len(rels), 3), dtype=np.int32)
        end_ids = np.fromiter(map(entity_id.__getitem__, split_ends), np.int32, len(split_ends))
        ids[:, 0::2] = end_ids.reshape(-1, 2)
        ids[:, 1] = np.fromiter(map(relation_id.__getitem__, rels), np.int32, len(rels))
        splits.append(_first_occurrences(ids))
    entity_lines = _lines(entity_names)
    if _line_count(entity_lines) != len(entity_names):  # only a row given in memory can do this
        raise DatasetError("an entity name holds a line feed")
    return entity_lines, relation_names, *splits


def _graph_digest(entity_names: list[str], relation_names: list[str], splits) -> str:
    """SHA-256 of the names in id order, then of each split's id triples in order.

    A symbol table is its size, every name's UTF-8 byte length, then the names'
    bytes; a split is its row count, then its (head, relation, tail) ids. All
    numbers are little-endian 32-bit.
    """
    digest = hashlib.sha256()
    for names in (entity_names, relation_names):
        encoded = [name.encode() for name in names]
        digest.update(struct.pack("<I", len(encoded)))
        digest.update(np.fromiter(map(len, encoded), "<u4", len(encoded)).tobytes())
        digest.update(b"".join(encoded))
    for ids in splits:
        digest.update(struct.pack("<I", len(ids)))
        digest.update(ids.astype("<i4").tobytes())
    return digest.hexdigest()


class AdjacencyCSR(NamedTuple):
    """Directed train edges, inverse edges included, sorted by (entity, relation, neighbour)."""

    indptr: np.ndarray      # the edges of entity e are indptr[e]:indptr[e + 1]
    relation: np.ndarray
    neighbour: np.ndarray
    group_size: np.ndarray  # edges sharing this edge's (entity, relation)
    reverse: np.ndarray     # the edge (neighbour, inverse relation, entity)


def _adjacency_csr(train: np.ndarray, n_entities: int, n_base: int) -> AdjacencyCSR:
    h, r, t = train.astype(np.int64).T
    src = np.concatenate([h, t])
    rel = np.concatenate([r, r + n_base])
    nbr = np.concatenate([t, h])
    group = src * (2 * n_base) + rel
    order = np.argsort(group * n_entities + nbr)  # edges are distinct, so their keys are too
    group, rel, nbr = group[order], rel[order], nbr[order]
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    sizes = np.diff(starts, append=len(group))
    indptr = np.zeros(n_entities + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_entities), out=indptr[1:])
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    reverse = position[(order + len(h)) % len(order)]  # edge i and i ± |train| are reverses
    return AdjacencyCSR(indptr, rel, nbr, np.repeat(sizes, sizes), reverse)


class KnowledgeGraph:
    """Immutable triple store over three splits with inverse-closed train adjacency."""

    def __init__(
        self,
        entity_lines: bytes,
        relation_names: list[str],
        train: np.ndarray,
        valid: np.ndarray,
        test: np.ndarray,
        dataset_hash: str | None = None,
        csr: AdjacencyCSR | None = None,
    ):
        """``entity_lines`` holds the entity names in id order as UTF-8, each
        ended by a line feed; splits are (n, 3) int32 arrays of distinct (head, relation, tail)
        ids; ``dataset_hash`` and ``csr``, if given, must be what
        ``dataset_hash()`` computes and what ``csr`` builds."""
        if not len(train):
            raise DatasetError("train split is empty")
        if reserved := [name for name in relation_names if name.endswith(INVERSE_SUFFIX)]:
            raise DatasetError(f"relation {reserved[0]!r} ends in the reserved {INVERSE_SUFFIX}")
        self._entity_lines = entity_lines
        self.n_entities = _line_count(entity_lines)
        self.relation_names = relation_names  # base relations only
        self._relation_id = dict(zip(relation_names, range(len(relation_names))))
        self.train_ids, self.valid_ids, self.test_ids = train, valid, test
        self._filter_index: _FilterIndex | None = None
        self._dataset_hash = dataset_hash
        self._csr = csr

    @cached_property
    def entity_names(self) -> list[str]:
        """The entity names in id order."""
        return _split_lines(self._entity_lines)

    @cached_property
    def train(self) -> list[Triple]:
        return list(map(tuple, self.train_ids.tolist()))

    @cached_property
    def test(self) -> list[Triple]:
        return list(map(tuple, self.test_ids.tolist()))

    @property
    def csr(self) -> AdjacencyCSR:
        if self._csr is None:
            self._csr = _adjacency_csr(self.train_ids, self.n_entities, self.n_base_relations)
        return self._csr

    # --- sizes and id arithmetic ---

    @property
    def n_base_relations(self) -> int:
        return len(self.relation_names)

    @property
    def n_relations(self) -> int:
        """Base plus derived inverse relations."""
        return 2 * len(self.relation_names)

    def inverse(self, r: int) -> int:
        n = self.n_base_relations
        if not 0 <= r < 2 * n:
            raise LookupError(f"unknown relation id {r}")
        return r + n if r < n else r - n

    # --- symbol lookups ---

    def entity_id(self, name: str) -> int:
        """The id of an entity name: the number of its line in the names' bytes.
        Only ``explain`` looks names up, so no command builds a list or a dict
        over every entity. No name holds a line feed, so a string that does
        names none; nor does one with a lone surrogate, which is how Python
        decodes an argument that is not UTF-8, and which UTF-8 cannot encode."""
        lines = self._entity_lines
        try:
            key = b"\n%b\n" % name.encode()
        except UnicodeEncodeError:  # a lone surrogate
            key = b""
        if key.count(b"\n") == 2:  # the name holds no line feed
            if lines.startswith(key[1:]):
                return 0
            at = lines.find(key)
            if at >= 0:
                return _line_count(lines, at + 1)
        raise LookupError(f"unknown entity {name!r}")

    def relation_id(self, name: str) -> int:
        """Resolve a relation name; a trailing ^-1 yields the derived inverse id."""
        base = name
        inverted = False
        while base.endswith(INVERSE_SUFFIX):
            base = base[: -len(INVERSE_SUFFIX)]
            inverted = not inverted
        rid = self._relation_id.get(base)
        if rid is None:
            raise LookupError(f"unknown relation {name!r}")
        return self.inverse(rid) if inverted else rid

    def relation_name(self, r: int) -> str:
        if r >= self.n_base_relations:
            return self.relation_names[r - self.n_base_relations] + INVERSE_SUFFIX
        return self.relation_names[r]

    # --- queries ---

    def adjacency(self, e: int) -> list[tuple[int, int]]:
        """Outgoing (relation, neighbor) edges of e over train, inverse edges included."""
        if not 0 <= e < self.n_entities:
            raise LookupError(f"unknown entity id {e}")
        lo, hi = self.csr.indptr[e], self.csr.indptr[e + 1]
        return list(zip(self.csr.relation[lo:hi].tolist(), self.csr.neighbour[lo:hi].tolist()))

    def known_tails(self, h: np.ndarray, r: np.ndarray) -> KnownRanges:
        """Per query i, every c with (h[i], r[i], c) in the train, valid or test
        split, ascending; r may be an inverse id, where (h, r, c) stands for
        (c, base r, h)."""
        return self._index().ends(h, r)

    def known_heads(self, r: np.ndarray, t: np.ndarray) -> KnownRanges:
        """Per query i, every c with (c, r[i], t[i]) in the train, valid or test
        split, ascending; r may be an inverse id, where (c, r, t) stands for
        (t, base r, c). These are the known tails of (t, the inverse of r)."""
        n = self.n_base_relations
        return self._index().ends(t, (np.asarray(r) + n) % (2 * n))

    def known_relations(self, h: np.ndarray, t: np.ndarray) -> KnownRanges:
        """Per query i, every base relation c with (h[i], c, t[i]) in the train,
        valid or test split, ascending."""
        return self._index().relations(h, t)

    def _index(self) -> _FilterIndex:
        # Built on first use: only ranking needs it, not training or explain.
        if self._filter_index is None:
            self._filter_index = _FilterIndex(
                (self.train_ids, self.valid_ids, self.test_ids),
                self.n_entities, self.n_base_relations,
            )
        return self._filter_index

    # --- persistence ---

    def save_dictionaries(self, directory: str | os.PathLike) -> None:
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "entity2id.tsv"), "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.entity_names):
                fh.write(f"{name}\t{i}\n")
        with open(os.path.join(directory, "relation2id.tsv"), "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.relation_names):
                fh.write(f"{name}\t{i}\n")

    def dataset_hash(self) -> str:
        """SHA-256 of the interned graph (``_graph_digest``); computed once per graph."""
        if self._dataset_hash is None:
            self._dataset_hash = _graph_digest(
                self.entity_names,
                self.relation_names,
                (self.train_ids, self.valid_ids, self.test_ids),
            )
        return self._dataset_hash


class KnownRanges(NamedTuple):
    """The known ends of a batch of queries: those of query i are
    ``values[start[i]:stop[i]]``. ``values`` is the filter index's own array."""

    values: np.ndarray
    start: np.ndarray
    stop: np.ndarray


class _FilterIndex:
    """Known (base-relation) triples sorted twice: the other ends by (entity,
    signed relation) key, each triple read both ways, and the relations by
    (head, tail) key.

    A batch lookup is one ``searchsorted`` pair on the key array, which gives
    each query its range of the matching values, so memory stays linear in the
    number of known triples.
    """

    def __init__(self, splits, n_entities: int, n_base_relations: int):
        """``splits`` are id arrays; a triple in several of them is indexed once.

        Each order sorts one int64 key per triple and direction, (key, value)
        packed as ``key * n + value``; the triples are distinct, so the keys are
        too. (h, r, t) makes t an end of (h, r) and h an end of (t, r + B)."""
        n_ent, n_rel = self._n_ent, self._n_signed = n_entities, 2 * n_base_relations
        h, r, t = np.concatenate(splits).astype(np.int64).T
        ends = np.concatenate(((h * n_rel + r) * n_ent + t,
                               (t * n_rel + r + n_base_relations) * n_ent + h))
        self._end_keys, self._ends = np.divmod(distinct_sorted(ends), n_ent)
        hts = distinct_sorted((h * n_ent + t) * n_base_relations + r)
        self._pair_keys, self._relations = np.divmod(hts, n_base_relations)

    @staticmethod
    def _ranges(keys: np.ndarray, values: np.ndarray, key: np.ndarray) -> KnownRanges:
        return KnownRanges(values, keys.searchsorted(key), keys.searchsorted(key, "right"))

    def ends(self, e: np.ndarray, r: np.ndarray) -> KnownRanges:
        """The c of every known (e, r, c), r a signed relation id."""
        key = np.asarray(e, dtype=np.int64) * self._n_signed + r
        return self._ranges(self._end_keys, self._ends, key)

    def relations(self, h: np.ndarray, t: np.ndarray) -> KnownRanges:
        key = np.asarray(h, dtype=np.int64) * self._n_ent + t
        return self._ranges(self._pair_keys, self._relations, key)


_CACHE_MAGIC = b"RPJEDSET"
# 2: the train CSR follows the names; 3: with its reverse-edge index; 4: aligned
# arrays; 5: the split files' bytes in place of their SHA-256, names as lines
_CACHE_VERSION = 5
# version, dataset hash, entity and relation counts, train/valid/test rows,
# entity and relation name bytes, train/valid/test file bytes
_CACHE_HEADER = struct.Struct("<H32s5I5Q")


def _parse(sources: list[bytes], paths) -> KnowledgeGraph:
    return KnowledgeGraph(*_intern(list(map(_columns, sources, paths))))


def _write_cache(graph: KnowledgeGraph, sources: list[bytes], path) -> None:
    """The ``artifacts.write_arrays`` layout: the header, the train, valid and test
    ids as one int32 array, the entity then the relation names as ``_lines``
    bytes, the train CSR's ``indptr``, ``relation``, ``neighbour``,
    ``group_size`` and ``reverse`` as int64, then each split file's bytes."""
    splits = (graph.train_ids, graph.valid_ids, graph.test_ids)
    names = [graph._entity_lines, _lines(graph.relation_names)]
    fields = (
        _CACHE_VERSION, bytes.fromhex(graph.dataset_hash()), graph.n_entities,
        graph.n_base_relations, *map(len, splits), *map(len, names), *map(len, sources),
    )
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    write_arrays(path, _CACHE_MAGIC, _CACHE_HEADER, fields, [
        np.concatenate(splits, dtype="<i4"),
        *(np.frombuffer(lines, "u1") for lines in names),
        *(np.asarray(array, "<i8") for array in graph.csr),
        *(np.frombuffer(data, "u1") for data in sources),
    ])


def _cache_layout(fields) -> list[tuple[str, int]]:
    version, _, n_ent, _, *rows, entity_bytes, relation_bytes = fields[:9]
    # an empty train split is an error, which only a parse reports
    if version != _CACHE_VERSION or not rows[0]:
        raise DatasetError("not a dataset cache of this format")
    return [("<i4", 3 * sum(rows)), ("u1", entity_bytes), ("u1", relation_bytes),
            ("<i8", n_ent + 1), *[("<i8", 2 * rows[0])] * 4,
            *[("u1", size) for size in fields[9:]]]


def _stored_lines(data: np.ndarray, count: int) -> bytes | None:
    """The ``_lines`` bytes of ``count`` names stored as ``data``; None if they are
    not UTF-8 or not ``count`` lines."""
    lines = bytes(data)
    try:
        lines.decode()
    except UnicodeDecodeError:
        return None
    return lines if _line_count(lines) == count and lines.endswith(b"\n") else None


def _read_cache(path, sources: list[bytes]) -> KnowledgeGraph | None:
    """The graph cached at ``path`` for split files with the bytes ``sources``;
    None if the file is missing, stale, truncated, over-long or otherwise not a
    cache for them. Values in range are trusted: the stored split files are
    these, and this module wrote the rest from them."""
    try:
        fields, (ids, entities, relations, *arrays) = read_arrays(
            path, _CACHE_MAGIC, _CACHE_HEADER, _cache_layout, DatasetError
        )
    except (FileNotFoundError, DatasetError):
        return None
    # ``startswith`` compares the stored bytes in place: no copy, no temporary
    if any(len(stored) != len(data) or not data.startswith(stored)
           for stored, data in zip(arrays[5:], sources)):
        return None
    ds_hash, n_ent, n_rel, *rows = fields[1:7]
    indptr, relation, neighbour, group_size, reverse = csr = AdjacencyCSR(*arrays[:5])
    n_edges = len(relation)
    # Every id lies in [0, its bound): read unsigned, a negative id is past any
    # bound, so one maximum per id column and per CSR array checks both ends.
    unsigned = ids.view("<u4")
    bounds = [(unsigned[0::3], n_ent), (unsigned[1::3], n_rel), (unsigned[2::3], n_ent),
              (relation.view("<u8"), 2 * n_rel), (neighbour.view("<u8"), n_ent),
              (reverse.view("<u8"), n_edges)]
    if any(a.max() >= bound for a, bound in bounds) or group_size.min() < 1:
        return None
    if indptr[0] != 0 or indptr[-1] != n_edges or (indptr[1:] < indptr[:-1]).any():
        return None
    entity_lines, relation_lines = _stored_lines(entities, n_ent), _stored_lines(relations, n_rel)
    if entity_lines is None or relation_lines is None:
        return None
    splits = np.split(ids.reshape(-1, 3), np.cumsum(rows[:2]))
    try:  # a relation name may have been damaged into the reserved suffix
        return KnowledgeGraph(entity_lines, _split_lines(relation_lines), *splits, ds_hash.hex(), csr)
    except DatasetError:
        return None


def load_dataset(
    train_path: str | os.PathLike,
    valid_path: str | os.PathLike,
    test_path: str | os.PathLike,
    cache: str | os.PathLike | None = None,
    write_cache: bool = True,
) -> KnowledgeGraph:
    """Load tab-separated triple files into an interned, index-backed graph.

    With ``cache``, the graph is read from that file if it was written for split
    files with these exact bytes, which it stores and compares. Otherwise the
    files are parsed, and the cache is (re)written unless ``write_cache`` is false.
    """
    paths = (train_path, valid_path, test_path)
    sources = []
    for path in paths:
        with open(path, "rb") as fh:
            sources.append(fh.read())
    if cache is None:
        return _parse(sources, paths)
    graph = _read_cache(cache, sources)
    if graph is None:
        graph = _parse(sources, paths)
        if write_cache:
            _write_cache(graph, sources, cache)
    return graph
