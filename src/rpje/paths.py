"""Relation path enumeration with path-constraint resource allocation (PCRA).

A unit resource starts at the head entity; at every hop it is split uniformly
among the successors reachable under that hop's relation. A path's reliability
is the total resource arriving at the tail along that relation sequence,
summed over all intermediate routes. Paths are 2..max_steps hops over train
adjacency (inverse edges included) and kept only above the reliability cutoff;
a pair keeps at most ``per_pair_cap`` paths, by descending reliability, then
relation sequence.

One numpy kernel, ``_propagate``, walks a block of heads at once over the
graph's CSR adjacency (``KnowledgeGraph.csr``), and ``extract_paths`` runs it;
``PathFinder`` and ``walk_resources`` are views of ``extract_paths``. Every
walk has wanted pairs, the (head, tail) pairs it is given, and keeps only the
arrivals at them: ``extract_paths`` wants the train pairs unless told
otherwise, and ``walk_resources`` and ``PathFinder.arrivals`` want every pair
of their head.

A frontier entry is a head, a relation sequence, an entity and its resource.
Each hop gathers the CSR edges of every entry, and an edge carries
``resource / group_size``, the entry's resource split over the entity's edges
under that relation. The shares landing on one (head, sequence, entity) are
summed with ``np.bincount``.

Summation order: ``np.bincount`` adds its weights in input order. Edges are
expanded in frontier order, each entity's in (relation, neighbour) order, and
the next frontier keeps each entry where its first share arrived. A hop sorts
its keys once (``kg.distinct_groups``), which also gives each key's first
edge; marking those edges and reading the marks in edge order gives the next
frontier's first-arrival order, with no second sort. So every reliability is
the same left-to-right float sum as a walk over per-entity dicts in
first-insertion order (kept as the oracle in ``tests/test_paths.py``), bit for
bit. On the last hop only edges towards wanted tails count, and before it only
the entries at wanted pairs are gathered into arrivals.

That last hop runs in the cheaper of two forms, chosen per block (``_joins``).
Expanded, it gathers every edge of every frontier entry and drops those
towards unwanted tails. Joined, it gathers the edges e -> t into the tail t
of each wanted (head, t) pair, as the reverses of t's own edges
(``AdjacencyCSR.reverse``), so each keeps the ``group_size`` of e's edges
under its relation. Keyed by ``head * n_entities + e`` and sorted, each
distinct key owns one run of them (``_Join``); each entry (head, e), in
frontier order, is searched once among the distinct keys and takes its key's
run, or nothing if the key is absent. Both forms keep the same (entry, edge)
set, and the shares landing on one (group, relation, tail) come from distinct
entries, so they reach ``np.bincount`` in frontier order either way: the sums
keep their bits. The join costs about ``_JOIN_COST`` expanded edges per edge
into a wanted tail, plus ``_JOIN_SETUP`` per block, and wins when the
frontier's edges mostly miss the wanted tails, as on walks out of hubs.

A block whose join already costs less than expanding the hop before the last
(``_joins`` on that hop's edges) builds the join's table before that hop and
prunes it (``_prune``): an edge is dropped when its (head, neighbour) key is
not in the table, so its neighbour has no edge into a wanted tail of its
head, unless on a 3-step walk it lands on a wanted pair, whose 2-step arrival
is kept. The last hop then joins on the same table; any other block chooses
its last hop's form as above. The edges of one key share its head and
neighbour, so a key keeps all its edges or none: every kept key receives the
same shares in the same order, the next frontier is the unpruned one less
the dropped keys, in the same order, and every reliability keeps its bits. On
hub-paths' test walk the pruned hop keeps 2,637 of 58,694 edges; its train
walk, whose 3-step frontier mostly reaches a wanted tail, does not prune.

Heads are walked in consecutive blocks, cut by the one cut rule of every run
of work (``forked.runs``): each block takes the most heads whose work sums to
at most ``_BLOCK_EDGES``, or one head. A head's work (``_work``) is its walks
of 1..max_steps - 1 hops (an upper bound on the edges it expands before the
last hop) plus the cheaper form of its last hop, its walks of max_steps hops
or ``_JOIN_COST`` per edge into its wanted tails. So every block of two or
more heads has at most ``_BLOCK_EDGES`` work, which bounds the kernel's
working set, and a head whose own work exceeds the limit is a block alone. A
walk of one head (``explain``'s) is one block and of none no block, with no
work computed.
``extract_paths`` counts each walk's blocks and last-hop edges in ``PathStats``.

Blocks share nothing, so a large walk runs on every CPU the process may run
on, less those its open children hold (``forked.idle_cpus``: beside
``evaluate``'s entity ranking, its children's), by the one split rule of
entity ranking (``forked.run_blocks``), with no fewer than ``_SHARE_BLOCKS``
blocks per process. A walk of fewer than 2 * ``_SHARE_BLOCKS`` blocks stays in
this process, with no pipe and no fork: so ``explain``'s one-pair walk (one
block) never splits, and ``eval``'s test-pair walk splits only when it is
large. A larger walk's blocks are claimed one at a time (a walk of more than
256 blocks, in runs of consecutive blocks) by this process and each forked
child until none is left, so the processes balance by what each block costs,
not by an estimate. A child sends back its kept arrivals and counts as one
message, and the blocks are merged in block order, so a split walk gives the
store, the counts and the bits of one in a single process. ``PathStats``
also keeps each process's walk seconds, this process's first.

The kept paths form a ``PathStore``, the one path provider: arrays laid out
like the ``paths.bin`` body, pairs sorted by (head, tail) with an ``indptr``
over their paths. ``extract_paths`` builds one for the train pairs, which
``train`` caches in ``paths.bin``, or for any given pairs: ``eval`` walks its
test pairs and ``explain`` its one pair through ``PathFinder.find``, so a
relation is always ranked on the pair's own paths. A pair's paths are one
range of the store (``between``). No object is built per path: scoring,
training and ``explain`` read the store's arrays, and ``pairs`` is the (head,
tail) rows as one array.
``paths.bin`` holds the store's arrays in the ``artifacts.write_arrays``
layout; ``load_path_set`` takes them as views of the file's bytes and checks
every value, so a corrupt cache raises ``PathCacheError`` like a truncated one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import forked
from .artifacts import read_arrays, write_arrays
from .kg import AdjacencyCSR, KnowledgeGraph, distinct_groups, distinct_sorted

DEFAULT_MAX_STEPS = 2
DEFAULT_CUTOFF = 0.01
DEFAULT_PER_PAIR_CAP = 200

# Work of one block of heads, in expanded edges; each takes about 100 bytes.
_BLOCK_EDGES = 1 << 15
# The cost of a join, in expanded edges: per edge into a wanted tail, and once
# per block for its extra numpy calls.
_JOIN_COST = 4
_JOIN_SETUP = 1 << 10
# A split walk's blocks per process, at least: a walk of fewer than twice this
# many blocks stays in one process. A child costs its fork, its copy-on-write
# faults and its message. On hub-paths' 3-step train walk cut to its first k
# blocks (2 vCPUs; the median over 6 processes of each one's median of 15
# calls), one process against two claiming blocks read 10.6 vs 11.2 ms at
# k = 4, 14.4 vs 14.3 at k = 6 and 18.1 vs 15.8 at k = 8.
_SHARE_BLOCKS = 4


@dataclass
class PathStats:
    """Counts from one ``extract_paths`` run, over the pairs it walks."""

    pairs: int = 0
    pairs_without_paths: int = 0
    paths: int = 0               # kept
    paths_below_cutoff: int = 0  # reliability <= cutoff
    paths_over_cap: int = 0      # above the cutoff, beyond per_pair_cap
    blocks: int = 0              # blocks of heads walked
    blocks_joined: int = 0       # of them, those whose last hop ran as a join
    last_hop_gathered: int = 0   # edges the last hops gathered
    last_hop_kept: int = 0       # of them, those that carried a share to a wanted tail
    # per process of the walk, this process first, its seconds walking: not a count
    seconds: list[float] = field(default_factory=list, compare=False)


class _Arrivals(NamedTuple):
    """PCRA arrivals as parallel arrays; ``relations`` is padded with -1 to max_steps columns."""

    heads: np.ndarray
    tails: np.ndarray
    relations: np.ndarray
    reliabilities: np.ndarray

    def take(self, index) -> _Arrivals:
        return _Arrivals(*(a[index] for a in self))

    @classmethod
    def empty(cls, max_steps: int) -> _Arrivals:
        none = np.zeros(0, dtype=np.int64)
        return cls(none, none, np.zeros((0, max_steps), dtype=np.int64), np.zeros(0))


def _ranges(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, index) of every index in ``first[i]:first[i] + count[i]``, in order."""
    source = np.repeat(np.arange(len(first)), count)
    offset = np.repeat(first - (np.cumsum(count) - count), count)
    return source, np.arange(len(source)) + offset


def _edges(csr: AdjacencyCSR, entities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position in ``entities``, CSR edge index) of every outgoing edge, in order."""
    first = csr.indptr[entities]
    return _ranges(first, csr.indptr[entities + 1] - first)


class _Wanted(NamedTuple):
    """Wanted (head, tail) pairs of one block: sorted keys ``head * n_entities + tail``,
    which entities are the tail of any of them, and ``inward``, the edges into
    those tails (with repeats, as the pairs count them)."""

    keys: np.ndarray
    is_tail: np.ndarray
    inward: int

    @classmethod
    def of_block(cls, keys: np.ndarray, heads: np.ndarray, csr: AdjacencyCSR) -> _Wanted:
        n_ent = len(csr.indptr) - 1
        lo, hi = np.searchsorted(keys, (heads[0] * n_ent, (heads[-1] + 1) * n_ent))
        tails = keys[lo:hi] % n_ent
        is_tail = np.zeros(n_ent, dtype=bool)
        is_tail[tails] = True
        # a tail's edges, reversed, are the edges into it
        inward = int((csr.indptr[tails + 1] - csr.indptr[tails]).sum())
        return cls(keys[lo:hi], is_tail, inward)

    def select(self, heads: np.ndarray, owner: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Indices i at which (heads[owner[i]], tails[i]) is wanted."""
        maybe = np.flatnonzero(self.is_tail[tails])
        pair = heads[owner[maybe]] * len(self.is_tail) + tails[maybe]
        at = np.minimum(np.searchsorted(self.keys, pair), len(self.keys) - 1)
        return maybe[self.keys[at] == pair]


class _Join(NamedTuple):
    """The edges into one block's wanted tails, for the join: the reverses of
    the tails' own edges, each keyed by ``head * n_entities + source`` of its
    wanted pair's head and its source, and sorted by key, so each distinct key
    (``keys``) owns one run of ``edges`` (``start``, ``length``). ``is_source``
    marks the sources."""

    keys: np.ndarray
    start: np.ndarray
    length: np.ndarray
    edges: np.ndarray
    is_source: np.ndarray

    @classmethod
    def of(cls, csr: AdjacencyCSR, wanted: _Wanted) -> _Join:
        tails = wanted.keys % len(wanted.is_tail)
        pair, inward = _edges(csr, tails)
        source = csr.neighbour[inward]
        key = wanted.keys[pair] - tails[pair] + source
        order = np.argsort(key)
        key, edges = key[order], csr.reverse[inward[order]]
        new_run = np.ones(len(key), dtype=bool)
        new_run[1:] = key[1:] != key[:-1]
        start = np.flatnonzero(new_run)
        is_source = np.zeros(len(wanted.is_tail), dtype=bool)
        is_source[source] = True
        return cls(key[start], start, np.diff(start, append=len(edges)), edges, is_source)

    def find(
        self, heads: np.ndarray, owner: np.ndarray, entities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(i, run) of each i, ascending, whose key (heads[owner[i]], entities[i])
        owns a run of edges, and that run."""
        maybe = np.flatnonzero(self.is_source[entities])
        probe = heads[owner[maybe]] * len(self.is_source) + entities[maybe]
        run = np.minimum(np.searchsorted(self.keys, probe), len(self.keys) - 1)
        found = self.keys[run] == probe
        return maybe[found], run[found]

    def edges_from(
        self, heads: np.ndarray, owner: np.ndarray, entities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """(i, CSR edge) of every edge from entities[i] to a wanted tail of
        heads[owner[i]], i ascending, and how many of the edges into the wanted
        tails that takes. Each entry is searched once among the distinct keys
        and takes its key's run, or no edge if its key is absent."""
        i, run = self.find(heads, owner, entities)
        entry, at = _ranges(self.start[run], self.length[run])
        taken = np.zeros(len(self.keys), dtype=bool)
        taken[run] = True
        return i[entry], self.edges[at], int(self.length[taken].sum())


def _joins(inward: int, outward: int) -> bool:
    """Whether a block joins on the ``inward`` edges into its wanted tails,
    rather than expanding the ``outward`` edges of a hop's frontier."""
    return _JOIN_COST * inward + _JOIN_SETUP < outward


def _prune(
    csr: AdjacencyCSR, wanted: _Wanted, heads: np.ndarray, owner: np.ndarray,
    source: np.ndarray, edge: np.ndarray, keep_pairs: bool,
) -> tuple[np.ndarray, np.ndarray, _Join]:
    """The hop before the last, (source, edge) with heads[owner[source]] the
    head of each, less every edge whose neighbour has no edge into a wanted tail
    of that head; with ``keep_pairs``, also kept is each edge landing on a
    wanted pair, whose arrival is kept. Also the join table that decides it,
    which the last hop joins on."""
    join = _Join.of(csr, wanted)
    group, neighbour = owner[source], csr.neighbour[edge]
    keep = np.zeros(len(edge), dtype=bool)
    keep[join.find(heads, group, neighbour)[0]] = True
    if keep_pairs:
        keep[wanted.select(heads, group, neighbour)] = True
    return source[keep], edge[keep], join


def _last_hop(
    csr: AdjacencyCSR, wanted: _Wanted, join: _Join | None, heads: np.ndarray,
    owner: np.ndarray, entities: np.ndarray, stats: PathStats,
) -> tuple[np.ndarray, np.ndarray]:
    """(i, CSR edge) of every edge from entities[i] to a wanted tail of
    heads[owner[i]], i ascending: a join on ``join``, the table the hop before
    was pruned on, or else on the edges into the wanted tails when that costs
    less than expanding every edge of ``entities``. Its work goes to ``stats``."""
    if join is None:
        first = csr.indptr[entities]
        degree = csr.indptr[entities + 1] - first
        if not _joins(wanted.inward, int(degree.sum())):
            source, edge = _ranges(first, degree)
            keep = wanted.select(heads[owner], source, csr.neighbour[edge])
            stats.last_hop_gathered += len(edge)
            stats.last_hop_kept += len(keep)
            return source[keep], edge[keep]
        join = _Join.of(csr, wanted)
    source, edge, kept = join.edges_from(heads, owner, entities)
    stats.blocks_joined += 1
    stats.last_hop_gathered += wanted.inward
    stats.last_hop_kept += kept
    return source, edge


def _propagate(
    kg: KnowledgeGraph,
    heads: np.ndarray,
    max_steps: int,
    wanted: _Wanted,
    stats: PathStats,
) -> _Arrivals:
    """PCRA from every head: the arrivals after 2..max_steps hops at wanted pairs;
    the hop before the last is pruned where the join pays there already, and
    the last hop adds its work to ``stats``."""
    csr, n_ent, n_rel = kg.csr, kg.n_entities, kg.n_relations
    # A group is one (head, relation sequence); the frontier is in first-arrival order.
    group, entity, resource = np.arange(len(heads)), heads, np.ones(len(heads))
    group_head, group_rels = heads, np.full((len(heads), max_steps), -1)
    join = None  # the block's join table, once the hop before the last prunes on it
    found = []
    for hop in range(1, max_steps + 1):
        last = hop == max_steps
        if last:
            source, edge = _last_hop(csr, wanted, join, group_head, group, entity, stats)
        else:
            source, edge = _edges(csr, entity)
            if hop == max_steps - 1 and _joins(wanted.inward, len(edge)):
                source, edge, join = _prune(
                    csr, wanted, group_head, group, source, edge, keep_pairs=hop >= 2)
        share = resource[source] / csr.group_size[edge]
        key = (group[source] * n_rel + csr.relation[edge]) * n_ent + csr.neighbour[edge]
        if last:
            key, slot = np.unique(key, return_inverse=True)
        else:
            key, first, slot = distinct_groups(key)
        resource = np.bincount(slot, weights=share, minlength=len(key))
        # the keys are sorted, so each sequence (key // n_ent) is one run of them
        sequence = key // n_ent
        new_run = np.ones(len(key), dtype=bool)
        new_run[1:] = sequence[1:] != sequence[:-1]
        sequences, group = sequence[new_run], np.cumsum(new_run) - 1
        if not last:
            # the keys in the order of their first edges: one mark per key's first edge
            is_first = np.zeros(len(slot), dtype=bool)
            is_first[first] = True
            order = slot[np.flatnonzero(is_first)]
            key, resource, group = key[order], resource[order], group[order]
        entity = key % n_ent
        parent = sequences // n_rel
        group_head = group_head[parent]
        group_rels = group_rels[parent]
        group_rels[:, hop - 1] = sequences % n_rel
        if hop >= 2:
            at = slice(None) if last else wanted.select(group_head, group, entity)
            kept = group[at]
            found.append(_Arrivals(group_head[kept], entity[at], group_rels[kept], resource[at]))
    return _Arrivals(*map(np.concatenate, zip(*found)))


def _work(
    kg: KnowledgeGraph, heads: np.ndarray, max_steps: int, wanted: np.ndarray
) -> np.ndarray:
    """The work of each of ``heads``: its number of walks of 1..max_steps - 1
    hops, which bounds the edges it expands before the last hop, plus its last
    hop: its walks of max_steps hops, or, if less, ``_JOIN_COST`` per edge into
    the tails it wants (``wanted`` holds sorted keys ``head * n_entities + tail``).
    """
    csr, n_ent = kg.csr, kg.n_entities
    degree = np.diff(csr.indptr)
    source = np.repeat(np.arange(n_ent), degree)
    walks, work = degree.astype(np.float64), np.zeros(n_ent)
    for _ in range(max_steps - 1):
        work += walks
        walks = np.bincount(source, weights=walks[csr.neighbour], minlength=n_ent)
    inward = np.bincount(
        np.searchsorted(heads, wanted // n_ent), weights=degree[wanted % n_ent],
        minlength=len(heads),
    )
    return work[heads] + np.minimum(walks[heads], _JOIN_COST * inward)


def _pair_starts(found: _Arrivals) -> np.ndarray:
    """Where each (head, tail) run of ``found`` begins; ``found`` is sorted by pair."""
    new_pair = np.ones(len(found.heads), dtype=bool)
    new_pair[1:] = (np.diff(found.heads) != 0) | (np.diff(found.tails) != 0)
    return np.flatnonzero(new_pair)


def relation_row_keys(relations: np.ndarray) -> np.ndarray:
    """One int64 key per row of ``relations``, relation ids padded with -1: the
    row's ids + 1 as digits in base max + 2, so -1 padding sorts first and the
    keys order as the rows' columns would. A key holds while (2 * n_relations
    + 1) ** max_steps < 2**63."""
    digits = relations + 1
    radix = int(digits.max(initial=0)) + 1
    keys = np.zeros(len(digits), dtype=np.int64)
    for column in digits.T:
        keys = keys * radix + column
    return keys


def _select(found: _Arrivals, cutoff: float, cap: int) -> tuple[_Arrivals, int, int]:
    """Arrivals above the cutoff, sorted by (head, tail, -reliability, relations),
    at most ``cap`` per pair; also the counts cut by the cutoff and by the cap."""
    above = found.take(found.reliabilities > cutoff)
    # One int64 key per pair (entity ids fit in 32 bits) and one per relation
    # row: three sort keys that order as the six columns would.
    row = relation_row_keys(above.relations)
    order = np.lexsort((row, -above.reliabilities, above.heads << 32 | above.tails))
    above = above.take(order)
    starts = _pair_starts(above)
    rank = np.arange(len(order)) - np.repeat(starts, np.diff(np.append(starts, len(order))))
    kept = above.take(rank < cap)
    n_found, n_above, n_kept = len(found.heads), len(order), len(kept.heads)
    return kept, n_found - n_above, n_above - n_kept


@dataclass(frozen=True, eq=False)
class PathStore:
    """Paths per entity pair with PCRA reliabilities, as arrays laid out like the
    ``paths.bin`` body; immutable.

    Pairs are sorted by (head, tail), and pair i owns paths ``indptr[i]`` to
    ``indptr[i + 1]``, by descending reliability, then relation sequence.
    ``relations`` is padded with -1 to ``max_steps`` columns. Scoring and
    training read the range of the arrays each pair owns (``between``, for a
    batch of pairs).
    """

    max_steps: int
    cutoff: float
    per_pair_cap: int
    heads: np.ndarray
    tails: np.ndarray
    indptr: np.ndarray
    relations: np.ndarray
    reliabilities: np.ndarray

    @classmethod
    def of(cls, found: _Arrivals, max_steps: int, cutoff: float, cap: int) -> PathStore:
        """The store of ``found``, which is sorted by pair."""
        starts = _pair_starts(found)
        return cls(
            max_steps, cutoff, cap, found.heads[starts], found.tails[starts],
            np.append(starts, len(found.heads)), found.relations, found.reliabilities,
        )

    @property
    def n_paths(self) -> int:
        return int(self.indptr[-1])

    @property
    def pairs(self) -> np.ndarray:
        """The (head, tail) rows of the store's pairs, an (n, 2) int64 array in pair order."""
        return np.stack((self.heads, self.tails), axis=1)

    @cached_property
    def keys(self) -> np.ndarray:
        """Sorted pair keys ``head << 32 | tail``; entity ids fit in 32 bits (``paths.bin``)."""
        return self.heads << 32 | self.tails

    def between(self, h: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the paths of each pair (h[i], t[i]): ``start[i]`` to
        ``stop[i]``, an empty range when the store has none for it."""
        key = np.asarray(h, dtype=np.int64) << 32 | t
        keys = self.keys
        return self.indptr[keys.searchsorted(key)], self.indptr[keys.searchsorted(key, "right")]


def extract_paths(
    kg: KnowledgeGraph,
    max_steps: int = DEFAULT_MAX_STEPS,
    cutoff: float = DEFAULT_CUTOFF,
    per_pair_cap: int = DEFAULT_PER_PAIR_CAP,
    stats: PathStats | None = None,
    pairs=None,
) -> PathStore:
    """Enumerate and score the paths of ``pairs``, (head, tail) rows that may
    repeat, in one blocked walk over their heads; by default the train pairs.
    ``stats``, if given, receives the run's counts."""
    if max_steps not in (2, 3):
        raise ValueError("max_steps must be 2 or 3")
    if not 0.0 <= cutoff < 1.0:
        raise ValueError("cutoff must lie in [0,1)")
    pairs = kg.train_ids[:, [0, 2]] if pairs is None else pairs
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    wanted = distinct_sorted(pairs[:, 0] * kg.n_entities + pairs[:, 1])
    heads = distinct_sorted(wanted // kg.n_entities)
    # a walk of one head (explain's) or none is one block or none, with no estimate
    cuts = (forked.runs(len(heads), _work(kg, heads, max_steps, wanted), _BLOCK_EDGES)
            if len(heads) > 1 else [(0, 1)][: len(heads)])
    blocks = [heads[a:b] for a, b in cuts]
    parts, processes = forked.run_blocks(
        "path walk", len(blocks), _SHARE_BLOCKS,
        lambda a, b: _walk(kg, max_steps, cutoff, per_pair_cap, wanted, blocks[a:b]))
    found = _Arrivals(*map(np.concatenate, zip(*(block for kept, _ in parts for block in kept))))
    counts = PathStats()
    for _, claimed in parts:
        for f in fields(PathStats):
            setattr(counts, f.name, getattr(counts, f.name) + getattr(claimed, f.name))
    counts.seconds = [seconds for _, seconds in processes]
    store = PathStore.of(found, max_steps, cutoff, per_pair_cap)
    counts.pairs = len(wanted)
    counts.pairs_without_paths = len(wanted) - len(store.heads)
    counts.paths = store.n_paths
    if stats is not None:
        vars(stats).update(vars(counts))
    return store


def _walk(
    kg: KnowledgeGraph, max_steps: int, cutoff: float, cap: int, wanted: np.ndarray,
    blocks: list[np.ndarray],
) -> tuple[list[_Arrivals], PathStats]:
    """The kept arrivals of each of ``blocks``, in block order, and their counts."""
    counts, found = PathStats(), [_Arrivals.empty(max_steps)]
    for block in blocks:
        want = _Wanted.of_block(wanted, block, kg.csr)
        arrived = _propagate(kg, block, max_steps, want, counts)
        kept, cut, capped = _select(arrived, cutoff, cap)
        found.append(kept)
        counts.paths_below_cutoff += cut
        counts.paths_over_cap += capped
        counts.blocks += 1
    return found, counts


def walk_resources(kg: KnowledgeGraph, head: int, max_steps: int) -> PathStore:
    """The store of every pair from ``head``, with no cutoff and a cap no pair
    reaches: the resource arriving at each entity per relation sequence of length
    2..max_steps."""
    sequences = sum(kg.n_relations**k for k in range(2, max_steps + 1))
    everywhere = [(head, t) for t in range(kg.n_entities)]
    return extract_paths(kg, max_steps, 0.0, sequences, pairs=everywhere)


class PathFinder:
    """Path walks of one graph under one set of options, on demand.

    ``find`` returns the store of exactly the pairs asked for, so whoever scores
    with it reads each pair's own paths; ``arrivals`` finds every pair of one
    head. Both are ``extract_paths`` of their pairs.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        max_steps: int = DEFAULT_MAX_STEPS,
        cutoff: float = DEFAULT_CUTOFF,
        per_pair_cap: int = DEFAULT_PER_PAIR_CAP,
    ):
        self.kg = kg
        self._options = (max_steps, cutoff, per_pair_cap)

    def find(self, pairs, stats: PathStats | None = None) -> PathStore:
        """The store of ``pairs``, (head, tail) rows: ``extract_paths`` of them."""
        return extract_paths(self.kg, *self._options, stats, pairs)

    def arrivals(self, h: int) -> PathStore:
        """Paths from h: ``find`` of every pair from h."""
        return self.find([(h, t) for t in range(self.kg.n_entities)])


_MAGIC = b"RPJEPATH"
_VERSION = 4  # 4: the header holds the path count, and the arrays are aligned
# version, max_steps, cutoff, per_pair_cap, dataset hash, pair and path counts
_HEADER = struct.Struct("<HHdI32sQQ")


def save_path_set(store: PathStore, dataset_hash: str, path) -> None:
    """Binary cache in the ``artifacts.write_arrays`` layout: after ``_HEADER``,
    (head, tail, path count) per pair as uint32, sorted by pair, and for every path
    in pair order its reliability (float64), its relations (uint32, zero-padded to
    max_steps) and its length (uint8), one array each: the store's arrays as they are.
    """
    rels = store.relations
    fields = (_VERSION, store.max_steps, store.cutoff, store.per_pair_cap,
              bytes.fromhex(dataset_hash), len(store.heads), store.n_paths)
    pairs = np.stack((store.heads, store.tails, np.diff(store.indptr)), axis=1)
    write_arrays(path, _MAGIC, _HEADER, fields, (
        pairs.astype("<u4"),
        np.asarray(store.reliabilities, "<f8"),
        np.where(rels >= 0, rels, 0).astype("<u4"),
        np.count_nonzero(rels >= 0, axis=1).astype(np.uint8),
    ))


class PathCacheError(ValueError):
    """Corrupt or incompatible path cache file."""


def _check(ok, path, what: str) -> None:
    if not np.all(ok):
        raise PathCacheError(f"{path}: {what}")


def _layout(fields) -> list[tuple[str, int]]:
    version, max_steps, _, _, _, n_pairs, n_paths = fields
    if version != _VERSION:
        raise PathCacheError(f"unsupported cache version {version}")
    if max_steps not in (2, 3):
        raise PathCacheError(f"max_steps {max_steps} is not 2 or 3")
    return [("<u4", 3 * n_pairs), ("<f8", n_paths), ("<u4", max_steps * n_paths),
            ("u1", n_paths)]


def load_path_set(
    path, expected_dataset_hash: str | None = None, graph: KnowledgeGraph | None = None
) -> PathStore:
    """The store a ``save_path_set`` file holds, as views of its bytes where the
    layout allows. Every value is checked, so a corrupt file raises
    ``PathCacheError``; with ``graph``, entity and relation ids are checked too."""
    fields, (pairs, reliabilities, relations, lengths) = read_arrays(
        path, _MAGIC, _HEADER, _layout, PathCacheError
    )
    _, max_steps, cutoff, per_pair_cap, ds_hash, _, n_paths = fields
    if expected_dataset_hash is not None and ds_hash.hex() != expected_dataset_hash:
        raise PathCacheError(f"{path}: cache built for a different dataset")
    heads, tails, counts = (pairs[i::3].astype(np.int64) for i in range(3))
    _check((counts >= 1) & (counts <= per_pair_cap), path,
           "a pair's path count is outside [1, per_pair_cap]")
    indptr = np.append(0, np.cumsum(counts))
    _check(indptr[-1] == n_paths, path, "the pairs' path counts do not sum to the path count")
    relations = relations.reshape(n_paths, max_steps)
    store = PathStore(
        max_steps, cutoff, per_pair_cap, heads, tails, indptr,
        np.where(np.arange(max_steps) < lengths[:, None], relations.astype(np.int64), -1),
        reliabilities,
    )
    _check(np.diff(store.keys) > 0, path, "pairs are not strictly ascending")
    _check((lengths >= 2) & (lengths <= max_steps), path,
           "a path length is outside [2, max_steps]")
    _check(np.isfinite(reliabilities) & (reliabilities > cutoff), path,
           "a reliability is not finite or not above the cutoff")
    if graph is not None:
        _check(np.concatenate((heads, tails)) < graph.n_entities, path,
               "an entity id is out of range")
        _check(store.relations < graph.n_relations, path, "a relation id is out of range")
    return store
