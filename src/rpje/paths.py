"""Relation path enumeration with path-constraint resource allocation (PCRA).

A unit resource starts at the head entity; at every hop it is split uniformly
among the successors reachable under that hop's relation. A path's reliability
is the total resource arriving at the tail along that relation sequence,
summed over all intermediate routes. Paths are 2..max_steps hops over train
adjacency (inverse edges included) and kept only above the reliability cutoff.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial

from .artifacts import atomic_write, read_exact
from .kg import KnowledgeGraph

DEFAULT_MAX_STEPS = 2
DEFAULT_CUTOFF = 0.01
DEFAULT_PER_PAIR_CAP = 200


@dataclass(frozen=True)
class Path:
    relations: tuple[int, ...]
    reliability: float


def _sort_key(p: Path):
    return (-p.reliability, p.relations)


def walk_resources(
    kg: KnowledgeGraph, head: int, max_steps: int
) -> dict[int, dict[tuple[int, ...], float]]:
    """Resource arriving at each entity per relation sequence of length 2..max_steps."""
    arrivals: dict[int, dict[tuple[int, ...], float]] = {}
    current: dict[tuple[int, ...], dict[int, float]] = {(): {head: 1.0}}
    for step in range(max_steps):
        nxt: dict[tuple[int, ...], dict[int, float]] = {}
        for seq, dist in current.items():
            for e, resource in dist.items():
                for rel, nbrs in kg.adjacency_by_relation(e).items():
                    share = resource / len(nbrs)
                    bucket = nxt.setdefault(seq + (rel,), {})
                    for nb in nbrs:
                        bucket[nb] = bucket.get(nb, 0.0) + share
        if step + 1 >= 2:
            for seq, dist in nxt.items():
                for target, resource in dist.items():
                    arrivals.setdefault(target, {})[seq] = resource
        current = nxt
    return arrivals


def _paths_from_arrivals(
    arrivals: dict[tuple[int, ...], float], cutoff: float, cap: int
) -> tuple[Path, ...]:
    paths = [
        Path(seq, reliability)
        for seq, reliability in arrivals.items()
        if reliability > cutoff
    ]
    paths.sort(key=_sort_key)
    return tuple(paths[:cap])


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
) -> PathSet:
    """Enumerate and score paths for every train entity pair."""
    if max_steps not in (2, 3):
        raise ValueError("max_steps must be 2 or 3")
    if not 0.0 <= cutoff < 1.0:
        raise ValueError("cutoff must lie in [0,1)")
    pairs = {}
    heads = sorted({h for h, _ in kg.train_pairs})
    tails_of = {}
    for h, t in kg.train_pairs:
        tails_of.setdefault(h, []).append(t)
    for h in heads:
        arrivals = walk_resources(kg, h, max_steps)
        for t in sorted(tails_of[h]):
            found = arrivals.get(t)
            if not found:
                continue
            paths = _paths_from_arrivals(found, cutoff, per_pair_cap)
            if paths:
                pairs[(h, t)] = paths
    return PathSet(max_steps, cutoff, per_pair_cap, pairs)


class PathFinder:
    """On-demand path lookup for arbitrary pairs, memoized per head entity.

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

    def arrivals(self, h: int) -> dict[int, tuple[Path, ...]]:
        cached = self._by_head.get(h)
        if cached is None:
            raw = walk_resources(self.kg, h, self.max_steps)
            cached = {}
            for target, seqs in raw.items():
                paths = _paths_from_arrivals(seqs, self.cutoff, self.per_pair_cap)
                if paths:
                    cached[target] = paths
            self._by_head[h] = cached
        return cached

    def paths_between(self, h: int, t: int) -> tuple[Path, ...]:
        return self.arrivals(h).get(t, ())

    def origins(self, t: int) -> dict[int, tuple[Path, ...]]:
        """Paths to t, keyed by head; heads are found by a reverse BFS from t."""
        frontier = {t}
        reached: set[int] = set()
        for _ in range(self.max_steps):
            frontier = {nb for e in frontier for _, nb in self.kg.adjacency(e)}
            reached |= frontier
        return {h: paths for h in reached if (paths := self.paths_between(h, t))}


_MAGIC = b"RPJEPATH"
_VERSION = 2


def save_path_set(ps: PathSet, dataset_hash: str, path) -> None:
    """Binary cache: header (dataset hash, max_steps, cutoff, per_pair_cap) + per-pair records."""
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HH", _VERSION, ps.max_steps))
        fh.write(struct.pack("<dI", ps.cutoff, ps.per_pair_cap))
        fh.write(bytes.fromhex(dataset_hash))
        fh.write(struct.pack("<Q", len(ps.pairs)))
        for (h, t), paths in sorted(ps.pairs.items()):
            fh.write(struct.pack("<IIH", h, t, len(paths)))
            for p in paths:
                fh.write(struct.pack("<H", len(p.relations)))
                fh.write(struct.pack(f"<{len(p.relations)}I", *p.relations))
                fh.write(struct.pack("<d", p.reliability))


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
        pairs = {}
        (n_pairs,) = struct.unpack("<Q", read(8))
        for _ in range(n_pairs):
            h, t, n_paths = struct.unpack("<IIH", read(10))
            paths = []
            for _ in range(n_paths):
                (length,) = struct.unpack("<H", read(2))
                rels = struct.unpack(f"<{length}I", read(4 * length))
                (reliability,) = struct.unpack("<d", read(8))
                paths.append(Path(tuple(rels), reliability))
            pairs[(h, t)] = tuple(paths)
    return PathSet(max_steps, cutoff, per_pair_cap, pairs)
