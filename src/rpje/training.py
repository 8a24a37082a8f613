"""Joint margin-based training: triple, path and relation-pair losses under SGD.

Per positive triple (h,r,t) the batch loss is
    L1(h,r,t) + alpha_1 * sum_{p in P(h,t)} L2(p,r) + alpha_2 * sum_{r_e in D(r)} L3(r,r_e)
with one negative per corruption slot (h', t', r') for L1 and one negative
relation per L2/L3 term. Every hinge of a batch sees the embeddings as they
were at its start; the summed subgradients are applied once per batch, in one
indexed subtraction on the hinge table, and entity vectors are then projected
back to the unit ball. The first batch of a run projects every row; each later
one only the rows it updated and the rows the previous batch scaled (a row of
both is checked twice, to the same bits), which gives the full pass's result
bit for bit.

Planning. ``TrainPlan`` tabulates once per run each train triple's paths (a
range of the ``PathStore``, composed once by ``Composer.compile``) and D(r). An
epoch's batches are planned a span at a time: a span is a run of consecutive
batches holding at most ``_SPAN_DRAWS`` negative draws (a batch holding more is
a span of its own). Each span takes the most batches whose draws fit the bound,
cut by ``forked.runs``, the one cut rule of every run of work. The span's draws
are laid out in numpy in the sampler's stream order, triple by triple: head,
tail and relation corruption; one relation per stored path of (h, t), in store
order; one relation per (r_e, beta) of D(r). ``NegativeSampler.draws`` makes
them all in one exact loop, testing each value by one lookup in one set of
excluded keys; the plan first makes its D(r) the sampler's relation-pair
exclusions. A give-up (-1) drops its hinge. The rows of every hinge then come
from gathers, into one int32 table of the span. ``HingeLayout.of`` lays that
table out once as the span's gather index, (W + 1, H, 2) intp, which each batch
slices, and derives from the table each batch's subgradient slots: the row each
slot adds to, an int8 code naming which of its hinge's values it takes, and its
hinge. Only rows of -relations go through the negation map. The planner does no
other work for the kernel.

The planner process. None of this depends on the embeddings, so ``train``
forks one child process per call (``SpanPlanner``, a ``forked.Child``), which
runs ``TrainPlan.spans``: the epoch shuffles, the ``NegativeSampler`` (built
only there), the draw loop and the span's ``HingeLayout`` arrays. Each span
crosses the child's pipe as one pickled message of arrays, and
``loss_and_gradients`` slices each batch's hinges and slots out of the span's
``HingeLayout`` by their bounds, so no per-batch object crosses. The pipe is
asked for ``_PIPE_BYTES`` right after the fork (Linux ``F_SETPIPE_SZ``), so
two spans' messages wait whole in it; where that is refused, the default pipe
carries them in several turns, to the same bits. The child plans spans k + 1
and k + 2 while ``train`` runs the batches of span k, and starts span k + 2
only once span k has been received, which a byte on a second pipe (the go
pipe) tells it; one byte is written there before the fork. So it is never more
than two spans ahead, and a short span at an epoch's end leaves the batch loop
no wait for the next epoch's first span, which the child planned beside it.
``train`` closes both pipes and waits for it before it returns or raises; an
exception while planning is raised by ``train``. The child inherits the plan
from the fork and sends only spans, so the bits are those of planning
in-process.

The fused pass. Every hinge is
    scale * [margin + w+ ||sum x+ - y+|| - w- ||sum x- - y-||]_+
over the rows of [entities; relations; -relations; 0] (``HingeLayout``), where
an inverse relation is its base row negated and the zero row pads the sums:
h + r - t on each side of a triple hinge; C(p) - r and C(p) - r' for a path,
weighted R(p|h,t) * prod(mu) on both sides; r - r_e and r - r' for a relation
pair, weighted (beta, 1). ``loss_and_gradients`` gathers a batch's rows in
one ``take`` of its slice of the span's gather index, then takes one norm and
one hinge over all its hinges. The rest follows the active hinges (a positive
or NaN loss) alone: their differences are gathered, and each gets six
subgradient candidates, g+ and g- of its sides, their negations, g+ - g- and
its negation. Each slot of an active hinge takes one of them: g+ (an x+ row),
-g+ (y+), -g- (an x- row) and g- (y-); the rows both sides sum, C(p)'s and the
pair's r, take g+ - g- once. A row of -relations adds the negation to its base
row. One scatter sums the slots in
hinge order. A batch without an active hinge returns one shared empty
``GradientUpdate`` and touches no row, though ``train`` still projects the
rows the batch before it scaled. ``train`` keeps the embeddings as views of
one such table and negates the relation rows each batch changed, read from
the update's own rows, so no batch copies the table. The pass calls ndarray
methods and ``np.add.reduce`` rather than numpy's Python-level wrappers
(``np.flatnonzero``, ``np.cumsum``, ``ndarray.sum``): at a few hinges a batch,
as on the toy graph, its cost is the number of numpy calls, not arithmetic.

Summation order. Each side sums left to right, x0 + x1 + x2 - y. The scatter
adds each row's subgradients in the order a per-hinge loop would (the triple's
L1 hinges, its L2 hinges, its L3 hinges, then the next triple), starting from
0.0, so the sign of a zero term never shows. Each loss part sums its hinges
left to right too: once per span, one ``np.bincount`` over (batch, term) sums
each batch's part in hinge order, and a ``cumsum`` adds them to the epoch's
totals batch by batch. So the result is bit for bit that of the per-hinge loop
kept in the tests.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import os
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import forked
from .compose import CompiledPaths, Composer
from .energy import dissimilarity
from .kg import KnowledgeGraph, Triple
from .model import EmbeddingTable, TrainingConfig, init_embeddings
from .paths import PathStore
from .rules import RuleIndex

# Negative draws planned at once: the bound on a span of batches. Planning holds
# about 800 bytes per draw, so 8,192 draws raised the peak RSS of a one-epoch
# wide-eval training run by 5 MB over 2,048, which trains as fast (measured with
# planning in-process). A span's message is 197-209 bytes per draw on the
# benchmark workloads and on uncomposed 3-step paths, its gather index 48-64
# bytes of each hinge, so a pipe of _PIPE_BYTES (1 MiB, Linux's default
# pipe-max-size) holds two spans of any several batches whole: the planner, two
# spans ahead, never blocks part-way through a write.
_SPAN_DRAWS = 2048
_PIPE_BYTES = 512 * _SPAN_DRAWS

TERMS = ("triple", "path", "relpair")  # the hinge kinds 0, 1 and 2
TRIPLE, PATH, RELPAIR = range(3)

# A subgradient slot takes one of six values of its hinge, numbered 2 * block +
# side as ``loss_and_gradients`` lays them out: g+, g-, -g+, -g-, g+ - g- and
# -(g+ - g-). _NEGATION maps each to its negation.
_G_PLUS, _G_MINUS, _NEG_G_PLUS, _NEG_G_MINUS, _SHARED = range(5)
_NEGATION = np.array([2, 3, 0, 1, 5, 4], dtype=np.int8)
# The value a row takes, by its hinge's kind, its side and whether it is the
# subtracted row. Path and relation-pair hinges sum the same rows on both sides,
# and those rows take g+ - g- once, on side 0.
_SHARED_CODES = [[_SHARED, _NEG_G_PLUS], [-1, _G_MINUS]]
_SLOT_CODES = np.array(
    [[[_G_PLUS, _NEG_G_PLUS], [_NEG_G_MINUS, _G_MINUS]], _SHARED_CODES, _SHARED_CODES],
    dtype=np.int8,
)


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


def _lemire(words: np.ndarray, n: int) -> list[int]:
    """Per word, the value it gives in range(n), or -1 where Lemire draws again."""
    m = words.astype(np.uint64) * np.uint64(n)
    v = (m >> np.uint64(32)).astype(np.int64)
    v[(m & np.uint64(0xFFFFFFFF)) < (2**32 - n) % n] = -1
    return v.tolist()


class NegativeSampler:
    """Uniform corruption sampling that never emits a triple present in train.

    Each draw is the value a scalar ``default_rng(seed).integers(n)`` call would
    return at that point of the stream. ``uint32`` words are prefetched in blocks
    and mapped by numpy's 32-bit Lemire rule: m = u * n, drawn again while
    (m mod 2^32) < (2^32 - n) mod n, value m >> 32; n = 1 takes no word. A value
    that is excluded is drawn again, ``max_attempts`` draws in all before the
    sampler gives up. ``draws`` makes a whole plan of draws in one loop; the
    ``corrupt_*`` and ``relation_not_deduced`` calls are plans of one draw.
    Triples carry base relation ids, as in ``kg.train_ids``.

    Every exclusion is one integer key in one set. Triple (h, r, t) is the key
    (h * n_rel + r) * n_ent + t. Past every triple key, at base = n_ent * n_rel *
    n_ent, value d of relation r's relation-pair draws is the key base + r * n_rel
    + d; ``exclude_deduced`` puts r and the base ids of D(r) there. An inverse id
    d >= n_rel can never be drawn, and its key would name relation r + 1's
    value d - n_rel, so it gets none.
    """

    BLOCK = 1024  # uint32 words per prefetch

    def __init__(self, kg: KnowledgeGraph, seed: int = 0, max_attempts: int = 100):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, not {max_attempts}")
        self._rng = np.random.default_rng(seed)  # read only through the prefetched blocks
        self.max_attempts = max_attempts
        self._n_ent, self._n_rel = kg.n_entities, kg.n_base_relations
        h, r, t = kg.train_ids.astype(np.int64).T
        self._excluded = set(((h * self._n_rel + r) * self._n_ent + t).tolist())
        self._pair_base = self._n_ent * self._n_rel * self._n_ent
        self._deduced, self._pair_keys = None, set()  # the relation-pair exclusions held
        self._words = np.empty(0, dtype=np.uint32)
        self._pos = self.BLOCK  # the first draw fetches a block
        self._values: dict[int, list[int]] = {}

    def corruption_keys(self, h, r, t):
        """(key, stride) of corrupting the head, the tail and the relation of
        (h, r, t): the train key of value x is key + x * stride. Takes ints or
        arrays; int64 arrays hold every key while n_ent^2 * n_rel < 2^63."""
        n_ent, n_rel = self._n_ent, self._n_rel
        return (
            (r * n_ent + t, n_rel * n_ent),
            ((h * n_rel + r) * n_ent, 1),
            (h * n_rel * n_ent + t, n_ent),
        )

    def pair_keys(self, r):
        """(key, stride) of a relation-pair draw against r (an int or an array):
        value x is excluded when key + x * stride is."""
        return self._pair_base + r * self._n_rel, 1

    def exclude_deduced(self, deduced) -> None:
        """Exclude r and the base ids of ``deduced[r]`` from relation r's
        relation-pair draws, for every base relation r, in place of the
        exclusions set before; nothing to do when ``deduced`` is the object set
        last."""
        if deduced is self._deduced:
            return
        n, base = self._n_rel, self._pair_base
        keys = {base + r * n + d for r, ds in enumerate(deduced) for d in (r, *ds) if d < n}
        self._excluded -= self._pair_keys
        self._excluded |= keys
        self._deduced, self._pair_keys = deduced, keys

    def draws(self, ranges, keys, strides) -> list[int]:
        """Per planned draw i, the first value x drawn from range(ranges[i]) whose
        key keys[i] + x * strides[i] is not excluded; -1 when ``max_attempts``
        values in a row are. Each value costs one set lookup, and a free first
        value ends its draw at once. A word that Lemire's rule rejects is no
        attempt and an excluded value is one, as in a loop of scalar draws."""
        excluded, attempts, block = self._excluded, self.max_attempts, self.BLOCK
        pos, cache = self._pos, self._values
        out = []
        append = out.append
        for n, key, stride in zip(ranges, keys, strides):
            tries = attempts
            while True:
                if n > 1:
                    if pos == block:
                        pos, cache = 0, self._refill()
                    values = cache.get(n)
                    if values is None:
                        values = cache[n] = _lemire(self._words, n)
                    x = values[pos]
                    pos += 1
                    if x < 0:  # a rejected word is no attempt
                        continue
                else:
                    x = 0
                if key + x * stride not in excluded:
                    break
                tries -= 1
                if not tries:
                    x = -1
                    break
            append(x)
        self._pos, self._values = pos, cache
        return out

    def _refill(self) -> dict[int, list[int]]:
        """The next block of words; returns its (empty) cache of values per range."""
        self._words = self._rng.integers(0, 2**32, size=self.BLOCK, dtype=np.uint32)
        self._pos, self._values = 0, {}
        return self._values

    def _draw(self, n: int, key: int, stride: int) -> int | None:
        x = self.draws((n,), (key,), (stride,))[0]
        return None if x < 0 else x

    def corrupt_head(self, triple: Triple) -> Triple | None:
        h, r, t = triple
        h2 = self._draw(self._n_ent, *self.corruption_keys(h, r, t)[0])
        return None if h2 is None else (h2, r, t)

    def corrupt_tail(self, triple: Triple) -> Triple | None:
        h, r, t = triple
        t2 = self._draw(self._n_ent, *self.corruption_keys(h, r, t)[1])
        return None if t2 is None else (h, r, t2)

    def corrupt_relation(self, triple: Triple) -> Triple | None:
        h, r, t = triple
        r2 = self._draw(self._n_rel, *self.corruption_keys(h, r, t)[2])
        return None if r2 is None else (h, r2, t)

    def relation_not_deduced(self, r: int, deduced: frozenset[int]) -> int | None:
        """A relation drawn against r that is neither r nor in ``deduced``; it
        replaces the sampler's relation-pair exclusions by these."""
        excluded = [()] * self._n_rel
        excluded[r] = deduced
        self.exclude_deduced(tuple(excluded))
        return self._draw(self._n_rel, *self.pair_keys(r))


class LossParts(NamedTuple):
    triple: float = 0.0
    path: float = 0.0
    relpair: float = 0.0

    @property
    def total(self) -> float:
        return self.triple + self.path + self.relpair


@dataclass(eq=False)
class HingeLayout:
    """The hinges of consecutive batches, in hinge order, laid out for
    ``loss_and_gradients``: batch b holds hinges ``bounds[b]`` to ``bounds[b +
    1]`` and subgradient slots ``slot_bounds[b]`` to ``slot_bounds[b + 1]``.

    Hinge k sums rows of [entities; relations; -relations; 0]: entity e is row
    e, relation id s (inverse ids included) row n_entities + s, and the zero row
    pads. ``kind[k]`` is TRIPLE, PATH or RELPAIR. Side 0 (positive) and side 1
    (negative) sum rows ``index[:-1, k, side]`` less row ``index[-1, k, side]``,
    in the per-hinge loop's order (the x+ rows, y+, the x- rows, y-), weighted
    ``weight[k, side]``; a path or relation-pair hinge sums the same rows on
    both sides. ``index`` is the gather index of the whole span, (W + 1, H, 2)
    intp, so a batch's rows are one ``take`` of its hinges' slice. Slot i adds
    value ``slot_code[i]`` of hinge ``slot_hinge[i]`` (numbered within its
    batch) to row ``slot_row[i]`` of [entities; base relations]. The slots run
    hinge by hinge, each hinge's in the per-hinge loop's order.
    """

    norm: str
    n_entities: int
    n_base: int
    kind: np.ndarray        # (H,)
    index: np.ndarray       # (W + 1, H, 2)
    margin: np.ndarray
    scale: np.ndarray
    weight: np.ndarray      # (H, 2)
    side_scale: np.ndarray  # scale * weight, shaped (H, 2, 1)
    slot_row: np.ndarray
    slot_code: np.ndarray
    slot_hinge: np.ndarray
    bounds: list[int]
    slot_bounds: list[int]

    @classmethod
    def of(cls, kind: np.ndarray, rows: np.ndarray, weight: np.ndarray, cfg: TrainingConfig,
           n_entities: int, n_base: int, ends) -> HingeLayout:
        """The batches of hinges [0, ends[0]), [ends[0], ends[1]) and so on, of
        ``kind`` and ``weight`` as the fields hold them and ``rows`` (H, 2, W +
        1), side by side each hinge's rows as ``index`` holds them. W is at
        least 2 (``TrainPlan.width``): the sums start as x0 + x1."""
        zero = n_entities + 2 * n_base
        width = rows.shape[2] - 1
        assert width >= 2, "rows narrower than 3 would add x1 and subtract it again"
        # every step indexes with the gather index and the slot rows and hinges:
        # intp, which numpy need not cast
        index = np.ascontiguousarray(rows.transpose(2, 0, 1), dtype=np.intp)
        used = rows != zero
        used[kind != TRIPLE, 1, :width] = False  # rows both sides sum take g+ - g- once
        slot = np.flatnonzero(used)
        hinge = slot // (2 * width + 2)
        slot_row = rows.reshape(-1)[slot].astype(np.intp)
        codes = _SLOT_CODES[..., [0] * width + [1]].take(kind, axis=0)  # by kind, side, place
        slot_code = codes.reshape(-1)[slot]
        # a row of -relations adds the negated value to its base row
        negated = np.flatnonzero(slot_row >= n_entities + n_base)
        slot_row[negated] -= n_base
        slot_code[negated] = _NEGATION[slot_code[negated]]
        bounds = np.concatenate(([0], ends))
        slot_bounds = np.searchsorted(hinge, bounds)
        local = hinge - np.repeat(bounds[:-1], slot_bounds[1:] - slot_bounds[:-1])
        scale = np.array([1.0, cfg.alpha_paths, cfg.alpha_relpairs])[kind]
        margin = np.array([cfg.margin_triple, cfg.margin_path, cfg.margin_relpair])[kind]
        side_scale = (scale[:, None] * weight)[..., None]
        return cls(cfg.norm, n_entities, n_base, kind, index, margin, scale, weight, side_scale,
                   slot_row, slot_code, local, bounds.tolist(), slot_bounds.tolist())


def hinge_table(emb: EmbeddingTable) -> np.ndarray:
    """[entities; relations; -relations; 0], the rows that hinges sum."""
    return np.concatenate((emb.entities, emb.relations, -emb.relations, np.zeros((1, emb.dim))))


def _row_sums(rows: np.ndarray, values: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of range(n_rows) in ``rows``, ascending, and per row its
    vectors summed in input order. A mask over the table's rows finds the
    distinct rows, at a cost that grows with the table: at FB15K's 14,951 +
    1,345 rows, 56 us for 1,000 slots, where a sort of the slots' rows takes
    21 us, and 165 us for 50,000, where it takes 1.6 ms (``timeit``, 2 vCPUs,
    numpy 2.4)."""
    dim = values.shape[1]
    present = np.zeros(n_rows, dtype=bool)
    present[rows] = True
    distinct = present.nonzero()[0]
    # each input row's place among the distinct rows, from 1. bincount adds its
    # weights in input order, as a loop of += over the rows would
    slot = present.cumsum()[rows]
    flat = (slot[:, None] * dim + np.arange(-dim, 0)).ravel()
    return distinct, np.bincount(flat, weights=values.ravel()).reshape(-1, dim)


@dataclass
class GradientUpdate:
    """One batch's subgradient, summed per row of [entities; base relations] it
    touches: ``rows`` ascending, the first ``n_entity_rows`` of them entities,
    and ``sums`` theirs."""

    rows: np.ndarray
    sums: np.ndarray
    n_entity_rows: int

    @classmethod
    @functools.cache
    def empty(cls, dim: int) -> GradientUpdate:
        """The update of a batch without an active hinge, one object shared by
        every such batch of a ``dim``; its arrays are read-only."""
        rows, sums = np.empty(0, dtype=np.intp), np.empty((0, dim))
        rows.flags.writeable = sums.flags.writeable = False
        return cls(rows, sums, 0)

    @classmethod
    def scattered(cls, rows: np.ndarray, values: np.ndarray, n_entities: int,
                  n_base: int) -> GradientUpdate:
        """``values`` summed per row in input order."""
        distinct, sums = _row_sums(rows, values, n_entities + n_base)
        return cls(distinct, sums, int(distinct.searchsorted(n_entities)))

    def apply(self, table: np.ndarray, lr: float) -> None:
        """One SGD step on ``table``, whose rows start [entities; base relations]
        (a ``hinge_table``)."""
        table[self.rows] -= lr * self.sums


def loss_and_gradients(layout: HingeLayout, b: int,
                       table: np.ndarray) -> tuple[np.ndarray, GradientUpdate]:
    """Every loss of batch ``b`` of ``layout``, in hinge order, and the batch's
    summed subgradient; ``table`` is the ``hinge_table`` of the embeddings."""
    lo, hi = layout.bounds[b], layout.bounds[b + 1]
    terms = table.take(layout.index[:, lo:hi], axis=0)  # (W + 1, B, 2, dim)
    d = terms[0] + terms[1]
    for more in terms[2:-1]:
        d += more
    d -= terms[-1]
    # the batch's largest array, freed before the rest of the pass allocates: a
    # fresh wide-eval train call took 13,550 minor faults with it kept to the end
    # of the pass and 3,020 without (2 vCPUs)
    del terms
    norm = layout.norm
    norms = dissimilarity(d, norm)
    weighted = layout.weight[lo:hi] * norms
    loss = layout.margin[lo:hi] + weighted[:, 0] - weighted[:, 1]
    inactive = loss <= 0.0  # a NaN stays active
    losses = layout.scale[lo:hi] * loss
    losses[inactive] = 0.0
    active = ~inactive
    ranks = active.cumsum()  # per hinge, the active hinges up to it
    dim = table.shape[1]
    if hi == lo or not ranks[-1]:
        return losses, GradientUpdate.empty(dim)

    # candidates (A, 3, 2) of the A active hinges: per side g and -g, then g+ - g-
    # and its negation, so value c of the a-th active hinge is candidate 6a + c
    d = d[active]
    values = (np.empty if norm == "L1" else np.zeros)((ranks[-1], 3, 2, dim))
    g = values[:, 0]
    if norm == "L1":
        np.sign(d, out=g)
    else:
        n = norms[active][..., None]
        np.divide(d, n, out=g, where=n != 0.0)
    g *= layout.side_scale[lo:hi][active]
    np.negative(g, out=values[:, 1])
    np.subtract(g[:, 0], g[:, 1], out=values[:, 2, 0])
    np.negative(values[:, 2, 0], out=values[:, 2, 1])
    batch_slots = slice(layout.slot_bounds[b], layout.slot_bounds[b + 1])
    slot_hinge = layout.slot_hinge[batch_slots]
    slots = active[slot_hinge]
    candidate = (ranks[slot_hinge[slots]] - 1) * 6 + layout.slot_code[batch_slots][slots]
    update = GradientUpdate.scattered(
        layout.slot_row[batch_slots][slots], values.reshape(-1, dim).take(candidate, axis=0),
        layout.n_entities, layout.n_base,
    )
    return losses, update


class Span(NamedTuple):
    """Planned batches; per hinge its loss part, 3 * batch + kind; per term the
    draws planned and the give-ups; and whether the span ends its epoch."""

    layout: HingeLayout
    part: np.ndarray
    draws: np.ndarray
    giveups: np.ndarray
    last: bool = False


class TrainPlan:
    """A run's per-triple tables (its paths and D(r)) and the span planner."""

    def __init__(self, kg: KnowledgeGraph, ps: PathStore, index: RuleIndex, cfg: TrainingConfig):
        self.cfg = cfg
        self.n_ent, self.n_base = kg.n_entities, kg.n_base_relations
        self.triples = kg.train_ids.astype(np.int64)
        h, r, t = self.triples.T
        self.paths = Composer(index).compile(ps)
        self.path_start = np.zeros(len(h), dtype=np.int64)
        self.n_paths = np.zeros(len(h), dtype=np.int64)
        if cfg.alpha_paths > 0:
            self.path_start, stop = ps.between(h, t)
            self.n_paths = stop - self.path_start
        use_relpairs = cfg.alpha_relpairs > 0
        deduced = [
            index.deduced_from(b) if use_relpairs else () for b in range(self.n_base)
        ]
        sizes = np.array([len(ds) for ds in deduced], dtype=np.int64)
        self.deduced_start = np.cumsum(sizes) - sizes
        self.deduced = np.array([d for ds in deduced for d, _ in ds], dtype=np.int64)
        self.beta = np.array([beta for ds in deduced for _, beta in ds])
        # D(r)'s ids per base relation r, for the sampler's relation-pair exclusions
        self.deduced_ids = tuple(tuple(d for d, _ in ds) for ds in deduced)
        self.n_deduced = sizes[r]
        self.draw_counts = 3 + self.n_paths + self.n_deduced
        # the range of a head, tail, relation (and path) and relation-pair draw
        self.ranges = np.array([self.n_ent, self.n_ent, self.n_base, self.n_base])
        # per distinct residual, its rows of the hinge table, padded with the zero row
        residuals = self.paths.residuals
        self.width = max(2, residuals.shape[1])
        zero = self.n_ent + 2 * self.n_base
        self.residual_rows = np.full((len(residuals), self.width), zero, dtype=np.int32)
        self.residual_rows[:, : residuals.shape[1]] = np.where(
            residuals >= 0, self.n_ent + residuals, zero
        )

    def spans(self, kg: KnowledgeGraph) -> Iterator[Span]:
        """Every span of the run, epoch by epoch: each epoch's shuffle cut into
        ``n_batches`` batches, planned with one ``NegativeSampler`` for the run."""
        sampler = NegativeSampler(kg, seed=self.cfg.seed + 1)
        shuffle_rng = np.random.default_rng(self.cfg.seed + 2)
        for _ in range(self.cfg.epochs):
            perm = shuffle_rng.permutation(len(self.triples))
            batches = [b for b in np.array_split(perm, self.cfg.n_batches) if len(b)]
            yield from self.epoch_spans(sampler, batches)

    def epoch_spans(self, sampler: NegativeSampler, batches: list[np.ndarray]) -> Iterator[Span]:
        """The batches (non-empty arrays of train triple indices, at least one)
        planned span by span; the last span is marked."""
        starts = np.cumsum([0] + [len(b) for b in batches[:-1]])
        counts = np.add.reduceat(self.draw_counts[np.concatenate(batches)], starts)
        for lo, hi in forked.runs(len(batches), counts, _SPAN_DRAWS):
            yield self.span(sampler, batches[lo:hi])._replace(last=hi == len(batches))

    def span(self, sampler: NegativeSampler, batches: list[np.ndarray]) -> Span:
        """The hinges of consecutive batches, their negatives drawn in stream order."""
        idx = np.concatenate(batches)
        h, r, t = self.triples[idx].T
        n_paths, count = self.n_paths[idx], self.draw_counts[idx]
        j = np.repeat(np.arange(len(idx)), count)  # each draw's triple
        k = np.arange(len(j)) - (np.cumsum(count) - count)[j]  # and its place there
        kind = (k >= 3).astype(np.int8) + (k >= 3 + n_paths[j])
        relpair = kind == RELPAIR
        # the head, tail, relation (and path) and relation-pair draws
        slot = np.minimum(k, 2) + relpair
        (hk, hs), (tk, ts), (rk, rs) = sampler.corruption_keys(h, r, t)
        pk, pst = sampler.pair_keys(r)
        keys = np.stack((hk, tk, rk, pk), axis=1)[j, slot]
        sampler.exclude_deduced(self.deduced_ids)
        values = np.fromiter(sampler.draws(
            self.ranges[slot].tolist(), keys.tolist(), np.array([hs, ts, rs, pst])[slot].tolist()
        ), dtype=np.int64, count=len(j))
        draws = np.bincount(kind, minlength=3)
        giveups = np.zeros(3, dtype=np.int64)
        drawn = values >= 0
        if not drawn.all():
            giveups = np.bincount(kind[~drawn], minlength=3)
            j, k, kind, values = j[drawn], k[drawn], kind[drawn], values[drawn]
        rows, weight = self._hinges(j, k, kind, values, h, r, t, n_paths, self.path_start[idx])
        sizes = [len(b) for b in batches]
        ends = np.searchsorted(j, np.cumsum(sizes))
        layout = HingeLayout.of(kind, rows, weight, self.cfg, self.n_ent, self.n_base, ends)
        part = 3 * np.repeat(np.arange(len(batches)), sizes)[j] + kind
        return Span(layout, part, draws, giveups)

    def _hinges(self, j, k, kind, v, h, r, t, n_paths, path_start):
        """The ``HingeLayout`` rows and weights of the hinges of drawn negatives
        ``v``: ``j`` is each draw's triple, which indexes ``h``, ``r``, ``t``,
        ``n_paths`` and ``path_start``, ``k`` its place there and ``kind`` its
        hinge's kind."""
        n_ent, width = self.n_ent, self.width
        rows = np.full((len(kind), 2, width + 1), n_ent + 2 * self.n_base, dtype=np.int32)
        weight = np.ones((len(kind), 2))

        i = np.flatnonzero(kind == TRIPLE)  # h + r - t, then h', r' or t' drawn
        ji, ki, vi = j[i], k[i], v[i]
        hi, ri, ti = h[ji], r[ji], t[ji]
        rows[i, 0, 0], rows[i, 0, 1], rows[i, 0, width] = hi, n_ent + ri, ti
        rows[i, 1, 0] = np.where(ki == 0, vi, hi)
        rows[i, 1, 1] = n_ent + np.where(ki == 2, vi, ri)
        rows[i, 1, width] = np.where(ki == 1, vi, ti)

        i = np.flatnonzero(kind == PATH)  # C(p) - r and C(p) - r'
        ji = j[i]
        q = path_start[ji] + k[i] - 3
        rows[i, 0, :width] = rows[i, 1, :width] = self.residual_rows[self.paths.residual_id[q]]
        rows[i, 0, width], rows[i, 1, width] = n_ent + r[ji], n_ent + v[i]
        weight[i, 0] = weight[i, 1] = self.paths.weight[q]

        i = np.flatnonzero(kind == RELPAIR)  # r - r_e and r - r'
        ji = j[i]
        e = self.deduced_start[r[ji]] + k[i] - 3 - n_paths[ji]
        rows[i, :, 0] = (n_ent + r[ji])[:, None]
        rows[i, 0, width], rows[i, 1, width] = n_ent + self.deduced[e], n_ent + v[i]
        weight[i, 0] = self.beta[e]
        return rows, weight


def project_entities(emb: EmbeddingTable, rows: np.ndarray | None = None) -> np.ndarray:
    """Scale entity vectors with norm > 1 back onto the unit sphere: every row, or
    only ``rows``, which may repeat a row. Returns the distinct rows it scaled.

    Each row's norm and scaling depend on that row alone, so a pass over the rows
    that can have left the ball since the last pass gives what a full pass gives:
    the rows changed since, and the rows it scaled, whose norm may round to just
    above 1.
    """
    vectors = emb.entities if rows is None else emb.entities[rows]
    norms = np.sqrt(np.add.reduce(vectors * vectors, axis=1))  # np.linalg.norm's sum
    over = norms > 1.0
    scaled = over.nonzero()[0] if rows is None else rows[over]
    if scaled.size:
        emb.entities[scaled] /= norms[over, None]  # a repeated row takes the same bits
        if rows is not None and scaled.size > 1:  # distinct, in any order
            scaled = np.fromiter(set(scaled.tolist()), dtype=np.intp)
    return scaled


@dataclass
class EpochCounts:
    """Per term: draws planned, give-ups and hinges with a positive loss; and the
    entity rows the projections scaled."""

    draws: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.int64))
    giveups: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.int64))
    active: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.int64))
    projected: int = 0

    def metrics(self, epoch: int) -> dict:
        terms = {}
        for term, draws, giveups, active in zip(
            TERMS, self.draws.tolist(), self.giveups.tolist(), self.active.tolist()
        ):
            hinges = draws - giveups
            terms[term] = {
                "draws": draws, "giveups": giveups, "hinges": hinges, "active": active,
                "giveup_frac": giveups / draws if draws else 0.0,
                "active_frac": active / hinges if hinges else 0.0,
            }
        return {"epoch": epoch, **terms, "entity_rows_projected": self.projected}


class SpanPlanner:
    """The run's spans, planned by ``TrainPlan.spans`` in a ``forked.Child``.

    The child sends each span as one message, a (span, planning seconds so
    far) pair, and reads one byte of the go pipe before it plans the next. One
    byte is written there before the fork, where no closed pipe can refuse it,
    and one each time this side receives a span: the child plans span k + 2
    only once span k has been received, so it stays at most two spans ahead of
    the batch loop. An exception while planning is sent in place of a span and
    raised by ``receive``. ``close`` closes both pipes, which ends a child still
    planning, and waits for it.
    """

    def __init__(self, kg: KnowledgeGraph, plan: TrainPlan):
        go, self._go = os.pipe()
        try:
            os.write(self._go, b"\0")  # the second span's go, so the child runs two ahead
            self._child = forked.Child(
                "span planner", functools.partial(_plan_spans, kg, plan, go), (self._go,)
            )
        except BaseException:  # no child to end: the go pipe is closed whole
            os.close(self._go)
            raise
        finally:
            os.close(go)
        # two spans wait whole in the pipe, not in the child's blocked write; a
        # refused size (or a platform without the call) keeps the default pipe
        with contextlib.suppress(AttributeError, OSError):
            fcntl.fcntl(self._child.inbox.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        self.planning = 0.0  # the child's seconds in TrainPlan.spans, to the last span received
        self.waits: list[float] = []  # per span received, the seconds ``receive`` waited

    def receive(self) -> Span:
        """The next span."""
        start = time.perf_counter()
        span, self.planning = self._child.receive()
        self.waits.append(time.perf_counter() - start)
        with contextlib.suppress(BrokenPipeError):  # a child that was killed has ended
            os.write(self._go, b"\0")
        return span

    def close(self) -> None:
        os.close(self._go)  # first: a child waiting for the go byte ends
        self._child.close()


def _plan_spans(kg, plan, go, send) -> None:
    """The planner process's job (``forked.Child``): sends each span of
    ``plan.spans(kg)``, then waits for a byte on ``go`` before planning the
    next; a closed ``go`` ends it."""
    spans, planning = plan.spans(kg), 0.0
    while True:
        start = time.perf_counter()
        span = next(spans, None)
        planning += time.perf_counter() - start
        if span is None:
            return
        send((span, planning))
        del span
        if not os.read(go, 1):
            return


@dataclass
class TrainResult:
    table: EmbeddingTable
    # rows of (epoch, total, triple part, path part, relpair part)
    history: list[tuple[int, float, float, float, float]]
    paths: CompiledPaths  # the path store as the run's rule index composes it
    epochs: list[dict]  # per epoch, ``EpochCounts.metrics``
    # the planner's seconds planning, the batch loop's waiting for spans, its
    # waiting for the first span (the child's start and first plan) and the
    # batch loop's in all, its waiting included
    seconds: dict[str, float]


# A diverging run overflows to inf and nan, which the epoch loss reports.
@np.errstate(over="ignore", invalid="ignore")
def train(
    kg: KnowledgeGraph,
    ps: PathStore,
    index: RuleIndex,
    cfg: TrainingConfig,
    emb: EmbeddingTable | None = None,
    log_every: int | None = None,
) -> TrainResult:
    """Train ``emb`` (by default ``init_embeddings``) in place; its arrays become
    views of the run's hinge table. A ``SpanPlanner`` plans the spans."""
    cfg.validate()
    plan = TrainPlan(kg, ps, index, cfg)
    planner = SpanPlanner(kg, plan)
    try:
        if emb is None:
            emb = init_embeddings(kg, cfg)
        # The run updates the embeddings as views of one hinge table, so the table
        # stays current once each batch also negates the relation rows it changed.
        table = hinge_table(emb)
        n_ent, n_base = emb.n_entities, emb.n_base_relations
        emb.entities, emb.relations = table[:n_ent], table[n_ent : n_ent + n_base]
        history: list[tuple[int, float, float, float, float]] = []
        epochs: list[dict] = []
        scaled = None  # rows the last projection scaled; None before the first (full) pass
        start = time.perf_counter()
        for epoch in range(cfg.epochs):
            totals = np.zeros(3)
            counts = EpochCounts()
            last = False
            while not last:
                span = planner.receive()
                counts.draws += span.draws
                counts.giveups += span.giveups
                n_batches = len(span.layout.bounds) - 1
                span_losses = []
                for b in range(n_batches):
                    losses, grads = loss_and_gradients(span.layout, b, table)
                    span_losses.append(losses)
                    updated, split = grads.rows, grads.n_entity_rows
                    if updated.size:
                        grads.apply(table, cfg.lr)
                        moved = updated[split:]  # relation rows of the table
                        table[moved + n_base] = -table[moved]
                    if scaled is None:
                        rows = None
                    elif scaled.size:  # a row of both is checked twice
                        rows = np.concatenate((updated[:split], scaled))
                    else:
                        rows = updated[:split]
                    if rows is None or rows.size:  # no row moved, none can leave the ball
                        scaled = project_entities(emb, rows)
                    counts.projected += scaled.size
                losses = np.concatenate(span_losses)
                # per batch each part summed left to right, then added to the totals in turn
                parts = np.bincount(span.part, weights=losses, minlength=3 * n_batches)
                totals = np.cumsum(np.vstack((totals, parts.reshape(-1, 3))), axis=0)[-1]
                counts.active += np.bincount(span.part[losses > 0.0] % 3, minlength=3)
                last = span.last
                del span, span_losses  # free the span before the next arrives
            totals = LossParts(*totals.tolist())
            if not np.isfinite(totals.total):
                raise DivergenceError(f"non-finite loss at epoch {epoch}: {totals.total}")
            history.append((epoch, totals.total, *totals))
            epochs.append(counts.metrics(epoch))
            if log_every and (epoch + 1) % log_every == 0:
                print(
                    f"epoch {epoch + 1}/{cfg.epochs} loss={totals.total:.4f} "
                    f"(triple={totals.triple:.4f} path={totals.path:.4f} "
                    f"relpair={totals.relpair:.4f})"
                )
        waits = planner.waits
        seconds = {"planning": planner.planning, "span_wait": sum(waits),
                   "first_span_wait": waits[0] if waits else 0.0,
                   "batch_loop": time.perf_counter() - start}
    finally:
        planner.close()
    return TrainResult(emb, history, plan.paths, epochs, seconds)


def write_loss_history(history, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,total,triple,path,relpair\n")
        for epoch, total, l1, l2, l3 in history:
            fh.write(f"{epoch},{total:.10g},{l1:.10g},{l2:.10g},{l3:.10g}\n")
