import contextlib
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpje import forked, paths as paths_mod
from rpje.paths import (
    PathCacheError,
    PathFinder,
    PathStats,
    extract_paths,
    load_path_set,
    save_path_set,
    walk_resources,
)

from conftest import (
    PATH_CACHE, adjacency_by_relation, fail_in_child, failed_share, make_kg, train_pairs,
)
from oracles import Path, PathSet, packed_cuts, resources

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workloads  # noqa: E402


# --- oracle: PCRA as a dict walk over the adjacency lists ---

def oracle_walk(kg, head, max_steps):
    """Resource per (target, relation sequence), summed in first-insertion order."""
    arrivals = {}
    current = {(): {head: 1.0}}
    for step in range(max_steps):
        nxt = {}
        for seq, dist in current.items():
            for e, resource in dist.items():
                for rel, nbrs in adjacency_by_relation(kg, e).items():
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


def oracle_paths(found, cutoff, cap):
    paths = [Path(seq, w) for seq, w in found.items() if w > cutoff]
    paths.sort(key=lambda p: (-p.reliability, p.relations))
    return tuple(paths[:cap])


def oracle_extract(kg, max_steps, cutoff, cap):
    """(pairs, paths at or below the cutoff, paths above it beyond the cap)."""
    pairs, below, over = {}, 0, 0
    for h, t in train_pairs(kg):
        found = oracle_walk(kg, h, max_steps).get(t, {})
        above = sum(w > cutoff for w in found.values())
        below += len(found) - above
        over += max(0, above - cap)
        if paths := oracle_paths(found, cutoff, cap):
            pairs[(h, t)] = paths
    return pairs, below, over


def exact(pairs):
    """Pairs in order, with each reliability as its exact float bits."""
    return [
        (pair, [(p.relations, p.reliability.hex()) for p in paths])
        for pair, paths in pairs.items()
    ]


def test_unbranched_chain_has_reliability_one():
    kg = make_kg([("a", "r", "b"), ("b", "s", "c"), ("a", "q", "c")])
    ps = extract_paths(kg, max_steps=2)
    a, c = kg.entity_id("a"), kg.entity_id("c")
    r, s = kg.relation_id("r"), kg.relation_id("s")
    paths = {p.relations: p.reliability for p in PathSet.of(ps).paths_between(a, c)}
    assert paths[(r, s)] == pytest.approx(1.0)


def test_branching_splits_resource():
    # a -r-> {b1, b2}, only b1 -s-> c; direct edge makes (a,c) a train pair
    kg = make_kg([("a", "r", "b1"), ("a", "r", "b2"), ("b1", "s", "c"), ("a", "q", "c")])
    ps = extract_paths(kg, max_steps=2)
    a, c = kg.entity_id("a"), kg.entity_id("c")
    r, s = kg.relation_id("r"), kg.relation_id("s")
    paths = {p.relations: p.reliability for p in PathSet.of(ps).paths_between(a, c)}
    assert paths[(r, s)] == pytest.approx(0.5)


def test_cutoff_drops_weak_paths():
    # 200-way branching gives reliability 0.005 < 0.01
    triples = [("a", "r", f"b{i}") for i in range(200)]
    triples += [("b0", "s", "c"), ("a", "q", "c")]
    kg = make_kg(triples)
    ps = extract_paths(kg, max_steps=2, cutoff=0.01)
    a, c = kg.entity_id("a"), kg.entity_id("c")
    assert all(p.relations != (kg.relation_id("r"), kg.relation_id("s"))
               for p in PathSet.of(ps).paths_between(a, c))
    ps_low = extract_paths(kg, max_steps=2, cutoff=0.0)
    paths = {p.relations: p.reliability for p in PathSet.of(ps_low).paths_between(a, c)}
    assert paths[(kg.relation_id("r"), kg.relation_id("s"))] == pytest.approx(0.005)


def test_paths_only_for_train_pairs():
    kg = make_kg([("a", "r", "b"), ("b", "s", "c")])
    ps = extract_paths(kg, max_steps=2)
    # (a,c) is connected but not a train pair
    assert PathSet.of(ps).paths_between(kg.entity_id("a"), kg.entity_id("c")) == ()


def test_unconnected_pair_empty():
    kg = make_kg([("a", "r", "b")])
    ps = extract_paths(kg, max_steps=2)
    assert PathSet.of(ps).paths_between(kg.entity_id("a"), kg.entity_id("b")) == ()


def test_ordering_descending_reliability_then_lexicographic():
    kg = make_kg(
        [
            ("a", "r", "m1"), ("a", "r", "m2"), ("m1", "s", "c"),
            ("a", "u", "n"), ("n", "v", "c"),
            ("a", "q", "c"),
        ]
    )
    ps = extract_paths(kg, max_steps=2)
    paths = PathSet.of(ps).paths_between(kg.entity_id("a"), kg.entity_id("c"))
    rels = [(p.relations, p.reliability) for p in paths]
    assert rels == sorted(rels, key=lambda x: (-x[1], x[0]))
    assert paths[0].reliability >= paths[-1].reliability


def test_max_steps_three_superset_of_two():
    kg = make_kg(
        [("a", "r", "b"), ("b", "s", "c"), ("c", "t", "d"), ("a", "q", "d"), ("a", "q2", "c")]
    )
    ps2 = extract_paths(kg, max_steps=2, cutoff=0.0)
    ps3 = extract_paths(kg, max_steps=3, cutoff=0.0)
    pairs3 = PathSet.of(ps3).pairs
    for pair, paths in PathSet.of(ps2).pairs.items():
        seqs3 = {p.relations for p in pairs3.get(pair, ())}
        assert {p.relations for p in paths} <= seqs3


def test_invalid_parameters():
    kg = make_kg([("a", "r", "b")])
    with pytest.raises(ValueError):
        extract_paths(kg, max_steps=4)
    with pytest.raises(ValueError):
        extract_paths(kg, max_steps=2, cutoff=1.0)


def test_per_pair_cap():
    triples = [("a", f"r{i}", "m") for i in range(5)]
    triples += [("m", f"s{i}", "c") for i in range(5)]
    triples += [("a", "q", "c")]
    kg = make_kg(triples)
    ps = extract_paths(kg, max_steps=2, cutoff=0.0, per_pair_cap=7)
    assert len(PathSet.of(ps).paths_between(kg.entity_id("a"), kg.entity_id("c"))) == 7


symbol = st.sampled_from([f"n{i}" for i in range(8)])
rel = st.sampled_from(["p", "q", "r"])
graphs = st.lists(st.tuples(symbol, rel, symbol), min_size=1, max_size=25)


@given(edges=graphs)
@settings(max_examples=60, deadline=None)
def test_resource_conservation(edges):
    kg = make_kg(edges)
    head = 0
    # every 2-step relation sequence carries a resource in (0, 1] to each target
    arrivals = resources(walk_resources(kg, head, 2))
    for target, seqs in arrivals.items():
        for seq, resource in seqs.items():
            assert 0.0 < resource <= 1.0 + 1e-12


def frontier_conservation_holds(kg) -> bool:
    """Simulate per-sequence resource flow hop by hop and compare against the
    invariants: frontier totals never grow, and are conserved when every
    frontier entity continues under the hop relation."""
    arrivals = resources(walk_resources(kg, 0, 2))
    sequences = {seq for per_target in arrivals.values() for seq in per_target}
    for seq in sequences:
        frontier = {0: 1.0}
        for hop in seq:
            nxt = {}
            all_continue = True
            for entity, resource in frontier.items():
                neighbours = adjacency_by_relation(kg, entity).get(hop)
                if not neighbours:
                    all_continue = False
                    continue
                share = resource / len(neighbours)
                for nb in neighbours:
                    nxt[nb] = nxt.get(nb, 0.0) + share
            before, after = sum(frontier.values()), sum(nxt.values())
            if after > before + 1e-9:
                return False
            if all_continue and abs(after - before) > 1e-9:
                return False
            frontier = nxt
        if sum(frontier.values()) > 1.0 + 1e-9:
            return False
    return True


@given(edges=graphs)
@settings(max_examples=40, deadline=None)
def test_per_sequence_frontier_sums(edges):
    """For any fixed relation sequence, frontier resource is <= 1 at each hop,
    with equality when every frontier entity continues under the hop relation."""
    assert frontier_conservation_holds(make_kg(edges))


@given(edges=graphs)
@settings(max_examples=40, deadline=None)
def test_symmetric_coverage(edges):
    kg = make_kg(edges)
    ps = PathSet.of(extract_paths(kg, max_steps=2, cutoff=0.0))
    reversed_ps = PathSet.of(
        PathFinder(kg, max_steps=2, cutoff=0.0).find([(t, h) for h, t in ps.pairs]))
    for (h, t), paths in ps.pairs.items():
        reverse = {p.relations for p in reversed_ps.paths_between(t, h)}
        for p in paths:
            mirrored = tuple(kg.inverse(r) for r in reversed(p.relations))
            assert mirrored in reverse


def test_finder_agrees_with_extraction(toy_kg):
    """One walk of 50 train pairs, and a one-pair walk of each, keep the paths
    that the walk of every train pair keeps."""
    ps = PathSet.of(extract_paths(toy_kg, max_steps=2))
    finder = PathFinder(toy_kg, max_steps=2)
    some = list(ps.pairs.items())[:50]
    assert exact(PathSet.of(finder.find([pair for pair, _ in some])).pairs) == exact(dict(some))
    for (h, t), paths in some:
        assert PathSet.of(finder.find([(h, t)])).paths_between(h, t) == paths


def test_small_walk_asks_for_no_idle_cpus(toy_kg):
    """A walk of fewer than 2 * ``_SHARE_BLOCKS`` blocks, ``explain``'s one-pair
    walk among them, is walked in this process without ``forked.idle_cpus``,
    and so is an empty walk. Each store holds the oracle's paths of its pairs."""
    def refuse():
        raise AssertionError("a small walk asked for idle CPUs")

    def oracle(pairs):
        found = {(h, t): oracle_paths(oracle_walk(toy_kg, h, 3).get(t, {}),
                                      paths_mod.DEFAULT_CUTOFF, paths_mod.DEFAULT_PER_PAIR_CAP)
                 for h, t in pairs}
        return exact({pair: paths for pair, paths in found.items() if paths})

    pairs = train_pairs(toy_kg)[:5] + [(0, 0)]
    most = 2 * paths_mod._SHARE_BLOCKS - 1
    heads = sorted({h for h, _ in train_pairs(toy_kg)})[:most]
    widest = [(h, t) for h, t in train_pairs(toy_kg) if h in heads]  # one block per head
    with mock.patch.object(forked, "idle_cpus", refuse):
        finder = PathFinder(toy_kg, max_steps=3)
        for h, t in pairs:
            assert exact(PathSet.of(finder.find([(h, t)])).pairs) == oracle([(h, t)])
        stats = PathStats()
        with mock.patch.object(paths_mod, "_BLOCK_EDGES", 1):
            assert exact(PathSet.of(finder.find(widest, stats)).pairs) == oracle(widest)
        assert (stats.blocks, len(stats.seconds)) == (most, 1)
        empty = finder.find(np.zeros((0, 2), dtype=np.int64))
    assert empty.n_paths == 0 and not len(empty.heads)


def test_cache_round_trip(tmp_path, toy_kg):
    ps = extract_paths(toy_kg, max_steps=2)
    cache = tmp_path / "paths.bin"
    save_path_set(ps, toy_kg.dataset_hash(), cache)
    loaded = load_path_set(cache, expected_dataset_hash=toy_kg.dataset_hash())
    assert loaded.max_steps == ps.max_steps
    assert loaded.cutoff == ps.cutoff
    assert PathSet.of(loaded).pairs == PathSet.of(ps).pairs


def test_cache_rejects_other_dataset(tmp_path, toy_kg):
    ps = extract_paths(toy_kg, max_steps=2)
    cache = tmp_path / "paths.bin"
    save_path_set(ps, toy_kg.dataset_hash(), cache)
    with pytest.raises(PathCacheError):
        load_path_set(cache, expected_dataset_hash="0" * 64)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.bin"
    path.write_bytes(b"not a cache")
    with pytest.raises(PathCacheError):
        load_path_set(path)


multigraphs = st.lists(
    st.tuples(st.sampled_from([f"n{i}" for i in range(7)]), rel, st.sampled_from([f"n{i}" for i in range(7)])),
    min_size=1,
    max_size=30,
)


@st.composite
def hub_multigraphs(draw):
    """A multigraph around a hub: many in-edges under one relation, self-loops,
    and pairs joined by two relations."""
    node = st.sampled_from([f"n{i}" for i in range(7)])
    rows = [(f"n{i}", "p", "hub") for i in range(draw(st.integers(2, 7)))]
    loops = draw(st.lists(st.tuples(node | st.just("hub"), rel), max_size=3))
    rows += [(x, r, x) for x, r in loops]
    parallel = draw(st.lists(st.tuples(node, node), max_size=3))
    rows += [(a, r, b) for a, b in parallel for r in "qr"]
    return rows + draw(st.lists(st.tuples(node, rel, node), max_size=12))


# Forces one form of the last hop on every block.
LAST_HOP_FORMS = {"join": lambda inward, outward: True, "expand": lambda inward, outward: False}


def oracle_last_hops(kg, blocks, wanted, max_steps, joins) -> tuple[int, int, int]:
    """(blocks joined, edges gathered, edges kept) of the last hops of a walk of
    ``blocks`` of heads towards the ``wanted`` (head, tail) pairs, from the
    distinct (head, sequence, entity) entries of each hop's frontier. A block
    joins where ``joins`` holds on the edges into its wanted tails against the
    edges out of its frontier before the hop before the last (that hop is then
    pruned), or against those out of the last hop's frontier, unpruned. Joined,
    it gathers every edge into a wanted tail and keeps those whose source the
    tail's head reaches; expanded, it gathers every edge out of the frontier
    and keeps each that lands on a wanted tail of its entry's head."""
    n_joined = gathered = kept = 0
    for block in blocks:
        frontiers = [{(h, (), h) for h in block}]
        for _ in range(max_steps - 1):
            frontiers.append({(h, seq + (r,), x) for h, seq, e in frontiers[-1]
                              for r, x in kg.adjacency(e)})
        outward = [sum(len(kg.adjacency(e)) for _, _, e in frontier) for frontier in frontiers]
        pairs = [(h, t) for h, t in sorted(wanted) if h in set(block)]
        inward = sum(len(kg.adjacency(t)) for _, t in pairs)
        if joins(inward, outward[-2]) or joins(inward, outward[-1]):
            reached = {(h, e) for h, _, e in frontiers[-1]}
            n_joined += 1
            gathered += inward
            kept += sum((h, e) in reached for h, t in pairs for _, e in kg.adjacency(t))
        else:
            gathered += outward[-1]
            kept += sum((h, x) in wanted for h, _, e in frontiers[-1] for _, x in kg.adjacency(e))
    return n_joined, gathered, kept


@given(
    edges=multigraphs | hub_multigraphs(),
    max_steps=st.sampled_from([2, 3]),
    cutoff=st.sampled_from([0.0, 0.05, 0.25, 0.5]),
    cap=st.sampled_from([0, 1, 2, 3, 200]),
    block_edges=st.sampled_from([1, 6, 1 << 17]),
    cpus=st.sampled_from([1, 2, 3]),
    join_cost=st.sampled_from([0, 4, 2**30]),
    join_setup=st.sampled_from([0, 4, 2**30]),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_dict_walk_oracle(
    edges, max_steps, cutoff, cap, block_edges, cpus, join_cost, join_setup
):
    """Every walk equals the dict walk bit for bit, with either form of the last
    hop forced or chosen by the join's cost rule: same pairs, same order, same
    float.hex. That is the train-pair walk, each head's arrivals, each pair's
    one-pair walk and one walk of every pair, asked for in shuffled order with
    repeats; one entity, only in the test split, has no edges, and every pair
    includes head == tail. Cutoffs 0.25 and 0.5 are reliabilities the walk hits
    exactly; a block limit of 1 or 6 edges gives blocks smaller than one head's
    work. A join cost and set-up drawn from 0, 4 and 2**30 make the rule join,
    and prune the hop before the last, on some blocks and not on others. A walk
    of several blocks is split over up to ``cpus`` processes, which claim its
    blocks one at a time, so 2 and 3 CPUs walk it in forked children; each walk
    counts every block once, and its last hops' work is the oracle's."""
    kg = make_kg(edges, test=[("n0", "p", "lonely")])
    expected, below, over = oracle_extract(kg, max_steps, cutoff, cap)
    everywhere, reached_from = {}, {}
    for h in range(kg.n_entities):
        walked = oracle_walk(kg, h, max_steps)
        reached_from[h] = {}
        for t in sorted(walked):
            if paths := oracle_paths(walked[t], cutoff, cap):
                reached_from[h][t] = everywhere[(h, t)] = paths
    pairs = [(h, t) for h in range(kg.n_entities) for t in range(kg.n_entities)]
    asked = [pairs[i] for i in np.random.default_rng(len(edges)).permutation(len(pairs))]
    heads = np.unique(kg.train_ids[:, 0])
    wanted = np.unique(kg.train_ids[:, 0] * kg.n_entities + kg.train_ids[:, 2])
    rule = lambda inward, outward: join_cost * inward + join_setup < outward  # noqa: E731
    for form, joins in {**LAST_HOP_FORMS, "rule": paths_mod._joins}.items():
        with mock.patch.object(paths_mod, "_BLOCK_EDGES", block_edges), \
                mock.patch.object(paths_mod, "_joins", joins), \
                mock.patch.object(paths_mod, "_JOIN_COST", join_cost), \
                mock.patch.object(paths_mod, "_JOIN_SETUP", join_setup), \
                mock.patch.object(paths_mod, "_SHARE_BLOCKS", 1), \
                mock.patch.object(forked, "cpus", lambda: cpus):
            joins = rule if form == "rule" else joins
            stats = PathStats()
            ps = extract_paths(kg, max_steps, cutoff, cap, stats)
            finder = PathFinder(kg, max_steps, cutoff, cap)
            assert exact(PathSet.of(ps).pairs) == exact(expected), form
            assert (stats.pairs, stats.pairs_without_paths) == (
                len(train_pairs(kg)), len(train_pairs(kg)) - len(expected)
            )
            assert (stats.paths, stats.paths_below_cutoff, stats.paths_over_cap) == (
                ps.n_paths, below, over
            )
            blocks = packed_blocks(kg, heads, max_steps, wanted)
            assert stats.blocks == len(blocks)
            assert 1 <= len(stats.seconds) <= min(cpus, len(blocks))
            assert (stats.blocks_joined, stats.last_hop_gathered, stats.last_hop_kept) == (
                oracle_last_hops(kg, [b.tolist() for b in blocks], set(train_pairs(kg)),
                                 max_steps, joins)
            ), form
            for h in range(kg.n_entities):
                assert exact(PathSet.of(finder.arrivals(h)).pairs) == exact(
                    {(h, t): paths for t, paths in reached_from[h].items()})
                for t in range(kg.n_entities):
                    one = PathSet.of(finder.find([(h, t)]))
                    assert exact({t: one.paths_between(h, t)}) == exact(
                        {t: reached_from[h].get(t, ())}
                    ), form
            stats = PathStats()
            assert exact(PathSet.of(finder.find(asked + asked[::2], stats)).pairs) == exact(
                everywhere)
            assert (stats.pairs, stats.pairs_without_paths) == (
                len(pairs), len(pairs) - len(everywhere)
            )
            assert stats.blocks_joined == (stats.blocks if form == "join" else 0) or form == "rule"
            every = np.arange(kg.n_entities)
            blocks = packed_blocks(kg, every, max_steps, np.arange(kg.n_entities**2))
            assert (stats.blocks_joined, stats.last_hop_gathered, stats.last_hop_kept) == (
                oracle_last_hops(kg, [b.tolist() for b in blocks], set(pairs), max_steps, joins)
            ), form


@given(edges=multigraphs | hub_multigraphs(), keep_pairs=st.booleans())
@settings(max_examples=60, deadline=None)
def test_prune_keeps_edges_towards_wanted_tails_of_their_head(edges, keep_pairs):
    """The pruned hop keeps, in order, exactly the edges whose neighbour has an
    edge into a wanted tail of the edge's own head, and with ``keep_pairs``
    also those landing on a wanted pair; here on the first hop out of every
    head of the train pairs, one block."""
    kg = make_kg(edges)
    wanted = set(train_pairs(kg))
    keys = np.array(sorted(h * kg.n_entities + t for h, t in wanted))
    heads = np.unique(kg.train_ids[:, 0])
    csr = kg.csr
    source, edge = paths_mod._edges(csr, heads)
    want = paths_mod._Wanted.of_block(keys, heads, csr)
    kept_source, kept_edge, _ = paths_mod._prune(
        csr, want, heads, np.arange(len(heads)), source, edge, keep_pairs)
    expected = [
        (i, e) for i, e in zip(source.tolist(), edge.tolist())
        if any((heads[i], t) in wanted for _, t in kg.adjacency(int(csr.neighbour[e])))
        or (keep_pairs and (heads[i], csr.neighbour[e]) in wanted)
    ]
    assert list(zip(kept_source.tolist(), kept_edge.tolist())) == expected


@pytest.mark.parametrize("failure", ["exception", "SIGKILL"])
def test_failed_share_leaves_no_process_or_pipe(toy_kg, failure):
    """A block that fails in the child that claimed it fails the walk
    (``failed_share``): an exception reaches the caller with its type and
    message, and a child killed by SIGKILL gives a one-line RuntimeError. The
    walk is split in three; the first child fails on its first block, and the
    last child, still walking its first block, is killed, so the walk ends at
    once. This process walks its first block once the last child has claimed
    one. Every child is joined and every pipe closed."""
    parent, real_walk, real_child = os.getpid(), paths_mod._walk, forked.Child
    forked_so_far = []  # a child finds its own place in the fork order here

    class Child(real_child):
        def __init__(self, *args):
            forked_so_far.append(None)
            super().__init__(*args)

    claimed, tell = os.pipe()  # the last child tells this process it claimed a block
    waited = []

    def walk(*args):
        last = len(forked_so_far) == 2
        if os.getpid() == parent and not waited:
            waited.append(os.read(claimed, 1))
        elif os.getpid() != parent and last:
            os.write(tell, b"!")
        fail_in_child(parent, failure, last)
        return real_walk(*args)

    try:
        with mock.patch.object(paths_mod, "_walk", walk), \
                mock.patch.object(forked, "Child", Child), \
                mock.patch.object(paths_mod, "_BLOCK_EDGES", 256), \
                mock.patch.object(paths_mod, "_SHARE_BLOCKS", 1), \
                mock.patch.object(forked, "cpus", lambda: 3), failed_share(failure, "path walk"):
            extract_paths(toy_kg, 2)
    finally:
        os.close(claimed)
        os.close(tell)
    assert waited == [b"!"]


def test_walk_counts_last_hop_work(toy_kg):
    """A forced form of the 2-step walk of the train pairs counts its last hop's
    edges: every edge out of the frontier when expanded, every edge into a wanted
    tail when joined; kept are those that reach a wanted tail of their head."""
    kg, n = toy_kg, toy_kg.n_entities
    pairs = train_pairs(kg)
    wanted = set(pairs)
    heads = sorted({h for h, _ in pairs})
    step = {h: {e for _, e in kg.adjacency(h)} for h in range(n)}
    expanded = sum(len(kg.adjacency(e)) for h in heads for _, e in kg.adjacency(h))
    expanded_kept = sum(
        (h, x) in wanted for h in heads for _, e in kg.adjacency(h) for _, x in kg.adjacency(e)
    )
    joined = sum(len(kg.adjacency(t)) for _, t in pairs)
    joined_kept = sum(e in step[h] for h, t in pairs for _, e in kg.adjacency(t))
    stores = []
    for form, joins in LAST_HOP_FORMS.items():
        stats = PathStats()
        with mock.patch.object(paths_mod, "_joins", joins):
            stores.append(exact(PathSet.of(extract_paths(kg, 2, stats=stats)).pairs))
        assert stats.blocks >= 1
        if form == "join":
            assert stats.blocks_joined == stats.blocks
            assert (stats.last_hop_gathered, stats.last_hop_kept) == (joined, joined_kept)
        else:
            assert stats.blocks_joined == 0
            assert (stats.last_hop_gathered, stats.last_hop_kept) == (expanded, expanded_kept)
    assert stores[0] == stores[1]
    assert joined_kept <= joined < expanded


def test_walk_resources_matches_oracle(toy_kg):
    """Every arrival, uncut: a self-loop reaches its head by all 2**2 + 2**3
    sequences over one relation and its inverse, more than n_relations ** 3."""
    loop = make_kg([("a", "p", "a")])
    assert len(oracle_walk(loop, 0, 3)[0]) == 2**2 + 2**3
    for kg, head in [(loop, 0)] + [(toy_kg, h) for h in range(0, toy_kg.n_entities, 7)]:
        got = resources(walk_resources(kg, head, 3))
        want = oracle_walk(kg, head, 3)
        assert got.keys() == want.keys()
        for t, seqs in want.items():
            assert {s: w.hex() for s, w in got[t].items()} == {s: w.hex() for s, w in seqs.items()}


def test_reliability_exactly_at_cutoff_is_dropped():
    kg = make_kg([("a", "r", "b1"), ("a", "r", "b2"), ("b1", "s", "c"), ("a", "q", "c")])
    a, c = kg.entity_id("a"), kg.entity_id("c")
    (r, s) = kg.relation_id("r"), kg.relation_id("s")
    def relations(store):
        return {p.relations for p in PathSet.of(store).paths_between(a, c)}

    assert (r, s) in relations(extract_paths(kg, 2, 0.4999))
    assert (r, s) not in relations(extract_paths(kg, 2, 0.5))
    assert (r, s) not in relations(PathFinder(kg, 2, 0.5).find([(a, c)]))


def test_cap_breaks_reliability_ties_by_relations_across_lengths():
    # Unbranched routes a -> c of reliability 1, such as (p, s), (q, t, u) and (r, s)
    kg = make_kg(
        [
            ("a", "p", "m"), ("m", "s", "c"),
            ("a", "q", "x"), ("x", "t", "y"), ("y", "u", "c"),
            ("a", "r", "n"), ("n", "s", "c"),
            ("a", "direct", "c"),
        ]
    )
    a, c = kg.entity_id("a"), kg.entity_id("c")
    found = oracle_walk(kg, a, 3)[c]
    ties = sorted(seq for seq, w in found.items() if w == 1.0)
    assert len(ties) > 2 and {len(seq) for seq in ties[:2]} == {2, 3}
    kept = PathSet.of(extract_paths(kg, 3, 0.0, per_pair_cap=2)).paths_between(a, c)
    assert kept == oracle_paths(found, 0.0, 2)
    assert [p.relations for p in kept] == ties[:2]


def lexsort_select(found, cutoff, cap):
    """``paths._select`` as a stable lexsort over every column: the arrivals above
    the cutoff by (head, tail, -reliability, relations), at most ``cap`` per pair."""
    above = found.take(found.reliabilities > cutoff)
    order = np.lexsort(
        (*above.relations.T[::-1], -above.reliabilities, above.tails, above.heads)
    )
    above = above.take(order)
    pair = list(zip(above.heads.tolist(), above.tails.tolist()))
    rank = [sum(p == q for q in pair[:i]) for i, p in enumerate(pair)]
    kept = above.take(np.array(rank, dtype=np.int64) < cap)
    return kept, len(found.heads) - len(above.heads), len(above.heads) - len(kept.heads)


@st.composite
def arrivals(draw):
    """Arrivals of 1..max_steps relations, padded with -1, over few pairs and
    few reliabilities, so pairs, reliabilities and relation rows all tie."""
    max_steps = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, 40))
    ints = lambda hi: st.lists(st.integers(0, hi), min_size=n, max_size=n)  # noqa: E731
    heads, tails = np.array(draw(ints(3)), dtype=np.int64), np.array(draw(ints(3)), dtype=np.int64)
    relations = np.full((n, max_steps), -1, dtype=np.int64)
    for i, length in enumerate(draw(st.lists(st.integers(1, max_steps), min_size=n, max_size=n))):
        relations[i, :length] = draw(st.lists(st.integers(0, 13), min_size=length, max_size=length))
    weights = np.array(draw(st.lists(st.sampled_from([0.1, 0.25, 0.5, 1.0]), min_size=n,
                                     max_size=n)))
    return paths_mod._Arrivals(heads, tails, relations, weights)


@given(found=arrivals(), cutoff=st.sampled_from([0.0, 0.25, 0.5]), cap=st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_select_matches_lexsort_over_every_column(found, cutoff, cap):
    """Three sort keys, one per pair and one per relation row, keep and order
    the arrivals as the lexsort over all six columns does, ties included."""
    got, cut, capped = paths_mod._select(found, cutoff, cap)
    want, want_cut, want_capped = lexsort_select(found, cutoff, cap)
    assert (cut, capped) == (want_cut, want_capped)
    for a, b in zip(got, want):
        assert a.tolist() == b.tolist()


def oracle_work(kg, head, max_steps, tails):
    """A head's block work: its walks of 1..max_steps - 1 hops plus the cheaper
    last hop, its walks of max_steps hops or the join's cost of the edges into
    ``tails`` (every walk when ``tails`` is None, the work without the join)."""
    ends, walks = {head: 1}, []
    for _ in range(max_steps):
        nxt = {}
        for e, count in ends.items():
            for _, nb in kg.adjacency(e):
                nxt[nb] = nxt.get(nb, 0) + count
        ends = nxt
        walks.append(sum(ends.values()))
    last = walks[-1]
    if tails is not None:
        last = min(last, paths_mod._JOIN_COST * sum(len(kg.adjacency(t)) for t in tails))
    return sum(walks[:-1]) + last


def packed_blocks(kg, heads, max_steps, wanted):
    """``heads`` cut as ``packed_cuts`` packs their ``_work`` under ``_BLOCK_EDGES``."""
    cuts = packed_cuts(paths_mod._work(kg, heads, max_steps, wanted).tolist(),
                       paths_mod._BLOCK_EDGES)
    return [heads[a:b] for a, b in zip(cuts, cuts[1:])]


@contextlib.contextmanager
def walked_blocks():
    """The heads of each block ``extract_paths`` walks, as lists in walk order,
    on one CPU, so every block is walked in this process."""
    walked, real = [], paths_mod._walk

    def walk(kg, max_steps, cutoff, cap, wanted, blocks):
        walked.extend(block.tolist() for block in blocks)
        return real(kg, max_steps, cutoff, cap, wanted, blocks)

    with mock.patch.object(paths_mod, "_walk", walk), mock.patch.object(forked, "cpus", lambda: 1):
        yield walked


def test_blocks_split_heads_by_work(toy_kg):
    """Blocks are consecutive runs of heads, each taking the most heads whose
    work fits the limit, or one head (``packed_cuts``); a head's last hop counts
    in its cheaper form, which lowers the total below the work without the join.
    Each head's work is the oracle's."""
    n = toy_kg.n_entities
    pairs = train_pairs(toy_kg)
    heads = np.unique([h for h, _ in pairs])
    tails = {h: [t for g, t in pairs if g == h] for h in heads.tolist()}
    keys = np.array([h * n + t for h, t in pairs])
    for max_steps in (2, 3):
        work = [oracle_work(toy_kg, h, max_steps, tails[h]) for h in heads.tolist()]
        limit = sum(work) // 7
        cuts = packed_cuts(work, limit)
        with mock.patch.object(paths_mod, "_BLOCK_EDGES", limit), walked_blocks() as blocks:
            small = extract_paths(toy_kg, max_steps)
        assert blocks == [heads[a:b].tolist() for a, b in zip(cuts, cuts[1:])]
        assert paths_mod._work(toy_kg, heads, max_steps, keys).tolist() == work
        assert len(blocks) > 1
        assert sum(blocks, []) == heads.tolist()
        assert exact(PathSet.of(small).pairs) == exact(
            PathSet.of(extract_paths(toy_kg, max_steps)).pairs)
        assert sum(work) < sum(oracle_work(toy_kg, h, max_steps, None) for h in heads.tolist())


def test_every_block_of_heads_fits_the_work_limit():
    """Each block of two or more heads that ``extract_paths`` walks has at most
    ``_BLOCK_EDGES`` work, as the module docstring says; here on the hub-paths
    recipe's 3-step train walk at the toy's size, with the limit patched to
    2,048, under which most of its blocks hold several heads."""
    data = workloads.make_data(workloads.Workload("hub", scale=1, hub_out_degree=4))
    kg = make_kg(data.train, data.valid, data.test)
    pairs = kg.train_ids[:, [0, 2]]
    wanted = np.unique(pairs[:, 0] * kg.n_entities + pairs[:, 1])
    heads = np.unique(pairs[:, 0])
    work = dict(zip(heads.tolist(), paths_mod._work(kg, heads, 3, wanted).tolist()))
    limit = 1 << 11
    with mock.patch.object(paths_mod, "_BLOCK_EDGES", limit), walked_blocks() as blocks:
        extract_paths(kg, 3)
    shared = [block for block in blocks if len(block) > 1]
    assert sum(blocks, []) == heads.tolist() and len(shared) > len(blocks) // 2
    assert max(sum(work[h] for h in block) for block in shared) <= limit


def test_cache_round_trip_mixed_lengths(tmp_path, toy_kg):
    ps = extract_paths(toy_kg, max_steps=3, cutoff=0.0, per_pair_cap=5)
    pairs = PathSet.of(ps).pairs
    assert {len(p.relations) for paths in pairs.values() for p in paths} == {2, 3}
    cache = tmp_path / "paths.bin"
    save_path_set(ps, toy_kg.dataset_hash(), cache)
    loaded = load_path_set(cache, expected_dataset_hash=toy_kg.dataset_hash())
    assert (loaded.max_steps, loaded.cutoff, loaded.per_pair_cap) == (3, 0.0, 5)
    assert exact(PathSet.of(loaded).pairs) == exact(pairs)


def test_cache_round_trip_empty(tmp_path, toy_kg):
    cache = tmp_path / "paths.bin"
    save_path_set(extract_paths(toy_kg, 2, per_pair_cap=0), toy_kg.dataset_hash(), cache)
    assert PathSet.of(load_path_set(cache)).pairs == {}


def test_cache_rejects_version_2(tmp_path, toy_kg):
    cache = tmp_path / "paths.bin"
    save_path_set(extract_paths(toy_kg, 2), toy_kg.dataset_hash(), cache)
    data = bytearray(cache.read_bytes())
    PATH_CACHE.set_fields(data, [2, *PATH_CACHE.fields(data)[1:]])
    cache.write_bytes(bytes(data))
    with pytest.raises(PathCacheError, match="version 2"):
        load_path_set(cache)


def test_cache_rejects_trailing_bytes(tmp_path, toy_kg):
    cache = tmp_path / "paths.bin"
    save_path_set(extract_paths(toy_kg, 2), toy_kg.dataset_hash(), cache)
    cache.write_bytes(cache.read_bytes() + b"\0")
    with pytest.raises(PathCacheError):
        load_path_set(cache)


def _corrupt(data: bytearray, what: str) -> None:
    """Overwrite one value of a saved cache with a bad one of the right width."""
    fields = PATH_CACHE.fields(data)
    _, max_steps, cutoff, _, _, n_pairs, _ = fields
    (pairs, reliabilities, relations, lengths), _ = PATH_CACHE.arrays(data)
    pairs = pairs.reshape(n_pairs, 3)  # head, tail, path count
    if what == "length 0":
        lengths[0] = 0
    elif what == "length above max_steps":
        lengths[0] = max_steps + 1
    elif what == "relation id 999":
        relations[0] = 999
    elif what == "entity id out of range":  # the last pair's tail, so pairs stay in order
        pairs[-1, 1] = 10**6
    elif what == "pairs out of order":
        pairs[[0, 1]] = pairs[[1, 0]]
    elif what == "NaN reliability":
        reliabilities[0] = np.nan
    elif what == "reliability at the cutoff":
        reliabilities[0] = cutoff
    elif what == "zero path count":  # the next pair takes its paths
        pairs[:2, 2] = 0, pairs[0, 2] + pairs[1, 2]
    elif what == "count above the cap":
        fields[3] = 1  # per_pair_cap
    elif what == "max_steps 0":
        fields[1] = 0
    else:
        raise AssertionError(what)
    PATH_CACHE.set_fields(data, fields)


CORRUPTIONS = [
    "length 0", "length above max_steps", "relation id 999", "entity id out of range",
    "pairs out of order", "NaN reliability", "reliability at the cutoff", "zero path count",
    "count above the cap", "max_steps 0",
]
NEEDS_GRAPH = {"relation id 999", "entity id out of range"}


@pytest.mark.parametrize("what", CORRUPTIONS)
def test_cache_rejects_bad_values(tmp_path, toy_kg, what):
    """A cache of the right length with one bad value raises PathCacheError, as a
    truncated one does; ids are checked against the graph when one is given."""
    cache = tmp_path / "paths.bin"
    save_path_set(extract_paths(toy_kg, 2), toy_kg.dataset_hash(), cache)
    data = bytearray(cache.read_bytes())
    _corrupt(data, what)
    cache.write_bytes(bytes(data))
    with pytest.raises(PathCacheError):
        load_path_set(cache, graph=toy_kg)
    if what in NEEDS_GRAPH:
        load_path_set(cache)  # the layout itself is sound
    else:
        with pytest.raises(PathCacheError):
            load_path_set(cache)


def test_cache_bytes_round_trip(tmp_path, toy_kg):
    """Saving a loaded store writes the bytes it was loaded from."""
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_path_set(extract_paths(toy_kg, 3, 0.0, 5), toy_kg.dataset_hash(), first)
    save_path_set(load_path_set(first, graph=toy_kg), toy_kg.dataset_hash(), second)
    assert first.read_bytes() == second.read_bytes()
