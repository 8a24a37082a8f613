"""Relation path enumeration with path-constraint resource allocation (PCRA).

A unit resource starts at the head entity; at every hop it is split uniformly
among the successors reachable under that hop's relation. A path's reliability
is the total resource arriving at the tail along that relation sequence,
summed over all intermediate routes. Paths are 2..max_steps hops over train
adjacency (inverse edges included) and kept only above the reliability cutoff;
a pair keeps at most ``per_pair_cap`` paths, by descending reliability, then
relation sequence.

One numpy kernel, ``_propagate``, walks a block of heads at once over the
graph's CSR adjacency (``KnowledgeGraph.csr``), and ``extract_paths``,
``PathFinder`` and ``walk_resources`` all run on it. A frontier entry is a
head, a relation sequence, an entity and its resource. Each hop gathers the
CSR edges of every entry, and an edge carries ``resource / group_size``, the
entry's resource split over the entity's edges under that relation. The shares
landing on one (head, sequence, entity) are summed with ``np.bincount``.

Summation order: ``np.bincount`` adds its weights in input order. Edges are
expanded in frontier order, each entity's in (relation, neighbour) order, and
the next frontier keeps each entry where its first share arrived. So every
reliability is the same left-to-right float sum as a walk over per-entity
dicts in first-insertion order (kept as the oracle in ``tests/test_paths.py``),
bit for bit. On the last hop, edges towards unwanted tails are dropped before
summing: ``extract_paths`` wants each head's train tails and
``PathFinder.paths_between`` one tail.

Heads are walked in consecutive blocks of about ``_BLOCK_EDGES`` expanded
edges, counted as walks of 1..max_steps hops (an upper bound on the edges a
head expands). That bounds the kernel's working set, except for a head whose
own walks exceed the limit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .artifacts import atomic_write, read_exact
from .kg import AdjacencyCSR, KnowledgeGraph

DEFAULT_MAX_STEPS = 2
DEFAULT_CUTOFF = 0.01
DEFAULT_PER_PAIR_CAP = 200

# Work of one block of heads, in expanded edges; each takes about 100 bytes.
_BLOCK_EDGES = 1 << 15


@dataclass(frozen=True, slots=True)
class Path:
    relations: tuple[int, ...]
    reliability: float


@dataclass
class PathStats:
    """Counts from one ``extract_paths`` run, over the train pairs it scores."""

    pairs: int = 0
    pairs_without_paths: int = 0
    paths: int = 0               # kept
    paths_below_cutoff: int = 0  # reliability <= cutoff
    paths_over_cap: int = 0      # above the cutoff, beyond per_pair_cap


class _Arrivals(NamedTuple):
    """PCRA arrivals as parallel arrays; ``relations`` is padded with -1 to max_steps columns."""

    heads: np.ndarray
    tails: np.ndarray
    relations: np.ndarray
    reliabilities: np.ndarray

    def take(self, index) -> _Arrivals:
        return _Arrivals(*(a[index] for a in self))


def _edges(csr: AdjacencyCSR, entities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position in ``entities``, CSR edge index) of every outgoing edge, in order."""
    first = csr.indptr[entities]
    degree = csr.indptr[entities + 1] - first
    source = np.repeat(np.arange(len(entities)), degree)
    offset = np.repeat(first - (np.cumsum(degree) - degree), degree)
    return source, np.arange(len(source)) + offset


class _Wanted(NamedTuple):
    """Wanted (head, tail) pairs of one block: sorted keys ``head * n_entities + tail``,
    and which entities are the tail of any of them."""

    keys: np.ndarray
    is_tail: np.ndarray

    @classmethod
    def of_block(cls, keys: np.ndarray, heads: np.ndarray, n_ent: int) -> _Wanted:
        lo, hi = np.searchsorted(keys, (heads[0] * n_ent, (heads[-1] + 1) * n_ent))
        is_tail = np.zeros(n_ent, dtype=bool)
        is_tail[keys[lo:hi] % n_ent] = True
        return cls(keys[lo:hi], is_tail)

    def select(self, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Indices i at which (heads[i], tails[i]) is wanted."""
        maybe = np.flatnonzero(self.is_tail[tails])
        pair = heads[maybe] * len(self.is_tail) + tails[maybe]
        at = np.minimum(np.searchsorted(self.keys, pair), len(self.keys) - 1)
        return maybe[self.keys[at] == pair]


def _propagate(
    kg: KnowledgeGraph, heads: np.ndarray, max_steps: int, wanted: _Wanted | None
) -> _Arrivals:
    """PCRA from every head: the arrivals after 2..max_steps hops at wanted pairs,
    or at every pair when ``wanted`` is None."""
    csr, n_ent, n_rel = kg.csr, kg.n_entities, kg.n_relations
    # A group is one (head, relation sequence); the frontier is in first-arrival order.
    group, entity, resource = np.arange(len(heads)), heads, np.ones(len(heads))
    group_head, group_rels = heads, np.full((len(heads), max_steps), -1)
    found = []
    for hop in range(1, max_steps + 1):
        source, edge = _edges(csr, entity)
        last = hop == max_steps
        if last and wanted is not None:
            keep = wanted.select(group_head[group[source]], csr.neighbour[edge])
            source, edge = source[keep], edge[keep]
        share = resource[source] / csr.group_size[edge]
        key = (group[source] * n_rel + csr.relation[edge]) * n_ent + csr.neighbour[edge]
        if last:
            key, slot = np.unique(key, return_inverse=True)
        else:
            key, first, slot = np.unique(key, return_index=True, return_inverse=True)
        resource = np.bincount(slot, weights=share, minlength=len(key))
        if not last:
            order = np.argsort(first)
            key, resource = key[order], resource[order]
        sequences, group = np.unique(key // n_ent, return_inverse=True)
        entity = key % n_ent
        parent = sequences // n_rel
        group_head = group_head[parent]
        group_rels = group_rels[parent]
        group_rels[:, hop - 1] = sequences % n_rel
        if hop >= 2:
            arrived = _Arrivals(group_head[group], entity, group_rels[group], resource)
            if not last and wanted is not None:
                arrived = arrived.take(wanted.select(arrived.heads, entity))
            found.append(arrived)
    return _Arrivals(*map(np.concatenate, zip(*found)))


def _blocks(kg: KnowledgeGraph, heads: np.ndarray, max_steps: int) -> list[np.ndarray]:
    """``heads`` cut into consecutive blocks of about ``_BLOCK_EDGES`` work each.

    A head's work is its number of walks of 1..max_steps hops, which bounds the
    edges it expands.
    """
    if len(heads) <= 1:
        return [heads]
    csr = kg.csr
    source = np.repeat(np.arange(kg.n_entities), np.diff(csr.indptr))
    walks = np.diff(csr.indptr).astype(np.float64)
    work = walks.copy()
    for _ in range(max_steps - 1):
        walks = np.bincount(source, weights=walks[csr.neighbour], minlength=kg.n_entities)
        work += walks
    done = np.cumsum(work[heads]) - work[heads]
    return np.split(heads, np.flatnonzero(np.diff(done // _BLOCK_EDGES)) + 1)


def _pair_starts(found: _Arrivals) -> np.ndarray:
    """Where each (head, tail) run of ``found`` begins; ``found`` is sorted by pair."""
    new_pair = np.ones(len(found.heads), dtype=bool)
    new_pair[1:] = (np.diff(found.heads) != 0) | (np.diff(found.tails) != 0)
    return np.flatnonzero(new_pair)


def _select(found: _Arrivals, cutoff: float, cap: int) -> tuple[_Arrivals, int, int]:
    """Arrivals above the cutoff, sorted by (head, tail, -reliability, relations),
    at most ``cap`` per pair; also the counts cut by the cutoff and by the cap."""
    above = found.take(found.reliabilities > cutoff)
    order = np.lexsort(
        (*above.relations.T[::-1], -above.reliabilities, above.tails, above.heads)
    )
    above = above.take(order)
    starts = _pair_starts(above)
    rank = np.arange(len(order)) - np.repeat(starts, np.diff(np.append(starts, len(order))))
    kept = above.take(rank < cap)
    n_found, n_above, n_kept = len(found.heads), len(order), len(kept.heads)
    return kept, n_found - n_above, n_above - n_kept


def _paths_by_pair(found: _Arrivals) -> dict[tuple[int, int], tuple[Path, ...]]:
    """Paths grouped per (head, tail), in the order of ``found`` (sorted by pair)."""
    lengths = np.count_nonzero(found.relations >= 0, axis=1).tolist()
    rows = zip(*found.relations.T.tolist())
    paths = [
        Path(rels[:n], w) for rels, n, w in zip(rows, lengths, found.reliabilities.tolist())
    ]
    starts = _pair_starts(found)
    bounds = [*starts.tolist(), len(paths)]
    return {
        (h, t): tuple(paths[lo:hi])
        for h, t, lo, hi in zip(
            found.heads[starts].tolist(), found.tails[starts].tolist(), bounds, bounds[1:]
        )
    }


def _search(
    kg: KnowledgeGraph,
    heads: np.ndarray,
    max_steps: int,
    cutoff: float,
    cap: int,
    wanted: np.ndarray | None = None,
) -> tuple[dict[tuple[int, int], tuple[Path, ...]], int, int]:
    """Paths from ``heads`` (sorted, non-empty), one block at a time, and the
    counts cut by the cutoff and by the cap. ``wanted`` holds sorted keys
    ``head * n_entities + tail``, or is None to want every pair."""
    pairs, below, over = {}, 0, 0
    for block in _blocks(kg, heads, max_steps):
        want = None if wanted is None else _Wanted.of_block(wanted, block, kg.n_entities)
        found, cut, capped = _select(_propagate(kg, block, max_steps, want), cutoff, cap)
        pairs.update(_paths_by_pair(found))
        below, over = below + cut, over + capped
    return pairs, below, over


def walk_resources(
    kg: KnowledgeGraph, head: int, max_steps: int
) -> dict[int, dict[tuple[int, ...], float]]:
    """Resource arriving at each entity per relation sequence of length 2..max_steps."""
    found = _propagate(kg, np.array([head], dtype=np.int64), max_steps, None)
    arrivals: dict[int, dict[tuple[int, ...], float]] = {}
    for t, rels, w in zip(
        found.tails.tolist(), found.relations.tolist(), found.reliabilities.tolist()
    ):
        arrivals.setdefault(t, {})[tuple(r for r in rels if r >= 0)] = w
    return arrivals


@dataclass
class PathSet:
    """Paths per entity pair with PCRA reliabilities; immutable after construction."""

    max_steps: int
    cutoff: float
    per_pair_cap: int = DEFAULT_PER_PAIR_CAP
    pairs: dict[tuple[int, int], tuple[Path, ...]] = field(default_factory=dict)

    def __post_init__(self):
        self._by_head, self._by_tail = {}, {}
        for (h, t), paths in self.pairs.items():
            self._by_head.setdefault(h, {})[t] = paths
            self._by_tail.setdefault(t, {})[h] = paths

    def paths_between(self, h: int, t: int) -> tuple[Path, ...]:
        return self.pairs.get((h, t), ())

    def arrivals(self, h: int) -> dict[int, tuple[Path, ...]]:
        """Paths from h, keyed by tail."""
        return self._by_head.get(h, {})

    def origins(self, t: int) -> dict[int, tuple[Path, ...]]:
        """Paths to t, keyed by head."""
        return self._by_tail.get(t, {})

    @property
    def n_paths(self) -> int:
        return sum(len(v) for v in self.pairs.values())


def extract_paths(
    kg: KnowledgeGraph,
    max_steps: int = DEFAULT_MAX_STEPS,
    cutoff: float = DEFAULT_CUTOFF,
    per_pair_cap: int = DEFAULT_PER_PAIR_CAP,
    stats: PathStats | None = None,
) -> PathSet:
    """Enumerate and score paths for every train entity pair."""
    if max_steps not in (2, 3):
        raise ValueError("max_steps must be 2 or 3")
    if not 0.0 <= cutoff < 1.0:
        raise ValueError("cutoff must lie in [0,1)")
    pairs = np.array(sorted(kg.train_pairs), dtype=np.int64)
    wanted = pairs[:, 0] * kg.n_entities + pairs[:, 1]
    found, below, over = _search(
        kg, np.unique(pairs[:, 0]), max_steps, cutoff, per_pair_cap, wanted
    )
    ps = PathSet(max_steps, cutoff, per_pair_cap, found)
    if stats is not None:
        stats.pairs = len(pairs)
        stats.pairs_without_paths = len(pairs) - len(ps.pairs)
        stats.paths = ps.n_paths
        stats.paths_below_cutoff = below
        stats.paths_over_cap = over
    return ps


class PathFinder:
    """On-demand path lookup for arbitrary pairs, memoized per head entity and per pair.

    Used at evaluation time, where candidate pairs are not restricted to train
    pairs; results agree with extract_paths on train pairs by construction.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        max_steps: int = DEFAULT_MAX_STEPS,
        cutoff: float = DEFAULT_CUTOFF,
        per_pair_cap: int = DEFAULT_PER_PAIR_CAP,
    ):
        self.kg = kg
        self.max_steps = max_steps
        self.cutoff = cutoff
        self.per_pair_cap = per_pair_cap
        self._by_head: dict[int, dict[int, tuple[Path, ...]]] = {}
        self._by_pair: dict[tuple[int, int], tuple[Path, ...]] = {}

    def _find(self, heads, wanted) -> dict[tuple[int, int], tuple[Path, ...]]:
        heads = np.asarray(heads, dtype=np.int64)
        return _search(self.kg, heads, self.max_steps, self.cutoff, self.per_pair_cap, wanted)[0]

    def arrivals(self, h: int) -> dict[int, tuple[Path, ...]]:
        cached = self._by_head.get(h)
        if cached is None:
            cached = {t: paths for (_, t), paths in self._find([h], None).items()}
            self._by_head[h] = cached
        return cached

    def paths_between(self, h: int, t: int) -> tuple[Path, ...]:
        if h in self._by_head:
            return self._by_head[h].get(t, ())
        cached = self._by_pair.get((h, t))
        if cached is None:
            wanted = np.array([h * self.kg.n_entities + t], dtype=np.int64)
            cached = self._find([h], wanted).get((h, t), ())
            self._by_pair[(h, t)] = cached
        return cached

    def origins(self, t: int) -> dict[int, tuple[Path, ...]]:
        """Paths to t, keyed by head; one walk from every entity within max_steps of t.

        The adjacency is inverse-closed, so the entities t reaches are those that reach t.
        """
        csr = self.kg.csr
        frontier, reached = np.array([t], dtype=np.int64), []
        for _ in range(self.max_steps):
            frontier = np.unique(csr.neighbour[_edges(csr, frontier)[1]])
            reached.append(frontier)
        heads = np.unique(np.concatenate(reached))
        if not len(heads):
            return {}
        found = self._find(heads, heads * self.kg.n_entities + t)
        return {h: paths for (h, _), paths in found.items()}


_MAGIC = b"RPJEPATH"
_VERSION = 3
_LOAD_PAIRS = 1024


def save_path_set(ps: PathSet, dataset_hash: str, path) -> None:
    """Binary cache: a 64-byte header, then fixed-width little-endian arrays.

    The header holds the magic, version, max_steps, cutoff, per_pair_cap,
    dataset hash and pair count. Then come (head, tail, path count) per pair as
    uint32, sorted by pair, and for every path in pair order its reliability
    (float64), its relations (uint32, zero-padded to max_steps) and its length
    (uint8), one array each.
    """
    pairs = sorted(ps.pairs.items())
    n_paths, width = sum(len(group) for _, group in pairs), ps.max_steps

    def each_path():
        return (p for _, group in pairs for p in group)

    # One array at a time, each straight from the paths, keeps the write's memory small.
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HH", _VERSION, ps.max_steps))
        fh.write(struct.pack("<dI", ps.cutoff, ps.per_pair_cap))
        fh.write(bytes.fromhex(dataset_hash))
        fh.write(struct.pack("<Q", len(pairs)))
        counts = [(h, t, len(group)) for (h, t), group in pairs]
        np.array(counts, dtype="<u4").reshape(-1, 3).tofile(fh)
        np.fromiter((p.reliability for p in each_path()), "<f8", n_paths).tofile(fh)
        padded = (p.relations + (0,) * (width - len(p.relations)) for p in each_path())
        np.fromiter((r for rels in padded for r in rels), "<u4", n_paths * width).tofile(fh)
        np.fromiter((len(p.relations) for p in each_path()), np.uint8, n_paths).tofile(fh)


class PathCacheError(ValueError):
    """Corrupt or incompatible path cache file."""


def load_path_set(path, expected_dataset_hash: str | None = None) -> PathSet:
    with open(path, "rb") as fh:
        read = partial(read_exact, fh, error=PathCacheError)
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise PathCacheError(f"{path}: not a path cache file")
        version, max_steps = struct.unpack("<HH", read(4))
        if version != _VERSION:
            raise PathCacheError(f"{path}: unsupported cache version {version}")
        cutoff, per_pair_cap = struct.unpack("<dI", read(12))
        ds_hash = read(32).hex()
        if expected_dataset_hash is not None and ds_hash != expected_dataset_hash:
            raise PathCacheError(f"{path}: cache built for a different dataset")
        (n_pairs,) = struct.unpack("<Q", read(8))
        body = fh.read()
    pair_bytes = 12 * n_pairs
    if len(body) < pair_bytes:
        raise PathCacheError(f"{path}: truncated file")
    pairs = np.frombuffer(body, dtype="<u4", count=3 * n_pairs).reshape(-1, 3).astype(np.int64)
    n_paths = int(pairs[:, 2].sum())
    if len(body) != pair_bytes + n_paths * (8 + 4 * max_steps + 1):
        raise PathCacheError(f"{path}: truncated file")
    first_path = np.zeros(n_pairs + 1, dtype=np.int64)
    np.cumsum(pairs[:, 2], out=first_path[1:])
    reliabilities = np.frombuffer(body, dtype="<f8", count=n_paths, offset=pair_bytes)
    offset = pair_bytes + 8 * n_paths
    relations = np.frombuffer(body, dtype="<u4", count=n_paths * max_steps, offset=offset)
    relations = relations.reshape(n_paths, max_steps)
    lengths = np.frombuffer(body, dtype=np.uint8, count=n_paths, offset=offset + relations.nbytes)
    loaded = {}
    for lo in range(0, n_pairs, _LOAD_PAIRS):  # in chunks, so the transient lists stay small
        chunk = pairs[lo : lo + _LOAD_PAIRS]
        a, b = first_path[lo], first_path[lo + len(chunk)]
        rels = relations[a:b].astype(np.int64)
        rels[np.arange(max_steps) >= lengths[a:b, None]] = -1
        heads, tails = (np.repeat(chunk[:, i], chunk[:, 2]) for i in (0, 1))
        loaded.update(_paths_by_pair(_Arrivals(heads, tails, rels, reliabilities[a:b])))
    return PathSet(max_steps, cutoff, per_pair_cap, loaded)
