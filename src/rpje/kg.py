"""Triple store: symbol interning, derived inverse relations, adjacency and membership indexes.

Relations are interned as dense base ids 0..B-1; the inverse of a base relation r
is served under the derived id r + B (no separate parameters, no separate symbol).
Adjacency is built over the train split only and always contains both directions
of every train triple, so there are exactly 2*|train| directed edges. It is one
CSR (``KnowledgeGraph.csr``) sorted by (entity, relation, neighbour). The filter
index behind ``known_tails``/``known_heads`` covers all three splits.
"""

from __future__ import annotations

import hashlib
import os
from itertools import chain
from typing import NamedTuple

import numpy as np

Triple = tuple[int, int, int]

INVERSE_SUFFIX = "^-1"


class DatasetError(ValueError):
    """Unreadable or structurally invalid dataset input."""


def read_triple_file(path: str | os.PathLike) -> list[tuple[str, str, str]]:
    """Read a head<TAB>relation<TAB>tail file, one triple per line."""
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


class AdjacencyCSR(NamedTuple):
    """Directed train edges, inverse edges included, sorted by (entity, relation, neighbour)."""

    indptr: np.ndarray      # the edges of entity e are indptr[e]:indptr[e + 1]
    relation: np.ndarray
    neighbour: np.ndarray
    group_size: np.ndarray  # edges sharing this edge's (entity, relation)


def _adjacency_csr(train: list[Triple], n_entities: int, n_base: int) -> AdjacencyCSR:
    h, r, t = np.fromiter(chain.from_iterable(train), np.int64, 3 * len(train)).reshape(-1, 3).T
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
    return AdjacencyCSR(indptr, rel, nbr, np.repeat(sizes, sizes))


class KnowledgeGraph:
    """Immutable triple store over three splits with inverse-closed train adjacency."""

    def __init__(
        self,
        train: list[tuple[str, str, str]],
        valid: list[tuple[str, str, str]],
        test: list[tuple[str, str, str]],
    ):
        if not train:
            raise DatasetError("train split is empty")

        self.entity_names: list[str] = []
        self.relation_names: list[str] = []  # base relations only
        self._entity_id: dict[str, int] = {}
        self._relation_id: dict[str, int] = {}

        def intern(rows):
            out = []
            seen = set()
            for h, r, t in rows:
                hid = self._entity_id.get(h)
                if hid is None:
                    hid = self._entity_id[h] = len(self.entity_names)
                    self.entity_names.append(h)
                tid = self._entity_id.get(t)
                if tid is None:
                    tid = self._entity_id[t] = len(self.entity_names)
                    self.entity_names.append(t)
                rid = self._relation_id.get(r)
                if rid is None:
                    rid = self._relation_id[r] = len(self.relation_names)
                    self.relation_names.append(r)
                trip = (hid, rid, tid)
                if trip not in seen:
                    seen.add(trip)
                    out.append(trip)
            return out

        self.train: list[Triple] = intern(train)
        self.valid: list[Triple] = intern(valid)
        self.test: list[Triple] = intern(test)

        self._known: set[Triple] = set(self.train) | set(self.valid) | set(self.test)
        self._train_set: set[Triple] = set(self.train)

        self.csr = _adjacency_csr(self.train, self.n_entities, self.n_base_relations)
        self._train_pairs = {(h, t) for h, _, t in self.train}
        self._filter_index: _FilterIndex | None = None
        self._dataset_hash: str | None = None

    # --- sizes and id arithmetic ---

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

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

    def is_inverse_id(self, r: int) -> bool:
        return r >= self.n_base_relations

    def base_relation(self, r: int) -> int:
        return r - self.n_base_relations if r >= self.n_base_relations else r

    # --- symbol lookups ---

    def entity_id(self, name: str) -> int:
        try:
            return self._entity_id[name]
        except KeyError:
            raise LookupError(f"unknown entity {name!r}") from None

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

    def has_relation(self, name: str) -> bool:
        base = name
        while base.endswith(INVERSE_SUFFIX):
            base = base[: -len(INVERSE_SUFFIX)]
        return base in self._relation_id

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

    def adjacency_by_relation(self, e: int) -> dict[int, list[int]]:
        """Outgoing neighbors of e grouped per relation (sorted edge order preserved)."""
        grouped: dict[int, list[int]] = {}
        for r, t in self.adjacency(e):
            grouped.setdefault(r, []).append(t)
        return grouped

    def _canonical(self, t: Triple) -> Triple:
        h, r, tail = t
        if r >= self.n_base_relations:
            return (tail, r - self.n_base_relations, h)
        return (h, r, tail)

    def is_known(self, t: Triple) -> bool:
        """Membership in train+valid+test; inverse views count via their base form."""
        return self._canonical(t) in self._known

    def known_tails(self, h: int, r: int) -> np.ndarray:
        """Every c with is_known((h, r, c)), ascending; r may be an inverse id."""
        if r >= self.n_base_relations:
            return self._index().heads(r - self.n_base_relations, h)
        return self._index().tails(h, r)

    def known_heads(self, r: int, t: int) -> np.ndarray:
        """Every c with is_known((c, r, t)), ascending; r may be an inverse id."""
        if r >= self.n_base_relations:
            return self._index().tails(t, r - self.n_base_relations)
        return self._index().heads(r, t)

    def _index(self) -> _FilterIndex:
        # Built on first use: only ranking needs it, not training or explain.
        if self._filter_index is None:
            self._filter_index = _FilterIndex(
                self._known, self.n_entities, self.n_base_relations
            )
        return self._filter_index

    def in_train(self, t: Triple) -> bool:
        return self._canonical(t) in self._train_set

    @property
    def train_pairs(self) -> set[tuple[int, int]]:
        return self._train_pairs

    # --- persistence ---

    def split_rows(self, split: str) -> list[tuple[str, str, str]]:
        triples = {"train": self.train, "valid": self.valid, "test": self.test}[split]
        return [
            (self.entity_names[h], self.relation_names[r], self.entity_names[t])
            for h, r, t in triples
        ]

    def dump_split(self, split: str, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for h, r, t in self.split_rows(split):
                fh.write(f"{h}\t{r}\t{t}\n")

    def save_dictionaries(self, directory: str | os.PathLike) -> None:
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "entity2id.tsv"), "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.entity_names):
                fh.write(f"{name}\t{i}\n")
        with open(os.path.join(directory, "relation2id.tsv"), "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.relation_names):
                fh.write(f"{name}\t{i}\n")

    def dataset_hash(self) -> str:
        """SHA-256 of the sorted splits; computed once, as the graph never changes."""
        if self._dataset_hash is None:
            digest = hashlib.sha256()
            for split in ("train", "valid", "test"):
                digest.update(split.encode())
                rows = sorted(self.split_rows(split))
                digest.update("".join([f"{h}\t{r}\t{t}\n" for h, r, t in rows]).encode())
            self._dataset_hash = digest.hexdigest()
        return self._dataset_hash


class _FilterIndex:
    """Known (base-relation) triples sorted twice: by (h, r) key and by (r, t) key.

    A lookup is one ``searchsorted`` pair on the key array and a slice of the
    matching other ends, so memory stays linear in the number of known triples.
    """

    def __init__(self, known: set[Triple], n_entities: int, n_base_relations: int):
        h, r, t = np.array(list(known), dtype=np.int64).reshape(-1, 3).T
        self._n_ent, self._n_rel = n_entities, n_base_relations
        by_hr = np.lexsort((t, r, h))
        self._hr_keys, self._tails = (h * n_base_relations + r)[by_hr], t[by_hr]
        by_rt = np.lexsort((h, t, r))
        self._rt_keys, self._heads = (r * n_entities + t)[by_rt], h[by_rt]

    @staticmethod
    def _slice(keys: np.ndarray, values: np.ndarray, key: int) -> np.ndarray:
        lo, hi = np.searchsorted(keys, (key, key + 1))
        return values[lo:hi]

    def tails(self, h: int, r: int) -> np.ndarray:
        return self._slice(self._hr_keys, self._tails, h * self._n_rel + r)

    def heads(self, r: int, t: int) -> np.ndarray:
        return self._slice(self._rt_keys, self._heads, r * self._n_ent + t)


def load_dataset(
    train_path: str | os.PathLike,
    valid_path: str | os.PathLike,
    test_path: str | os.PathLike,
) -> KnowledgeGraph:
    """Load tab-separated triple files into an interned, index-backed graph."""
    return KnowledgeGraph(
        read_triple_file(train_path),
        read_triple_file(valid_path),
        read_triple_file(test_path),
    )
