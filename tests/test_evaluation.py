import contextlib
import dataclasses
import os
import signal
import sys
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from rpje import energy, evaluation, forked, paths as paths_mod
from rpje.compose import Composer
from rpje.energy import SCAN_MAX_DIM, triple_energy
from rpje.evaluation import (
    EntityScorer,
    EvalStats,
    Scorer,
    evaluate,
    explain,
    explanation_lines,
    metrics_from_ranks,
    rank_entities,
    rank_relations,
    relation_categories,
    report_csv_rows,
    report_lines,
    _ranks,
)
from hypothesis import given, settings, strategies as st

from rpje.kg import KnowledgeGraph, KnownRanges
from rpje.model import EmbeddingTable, TrainingConfig, init_embeddings
from rpje.paths import PathFinder, PathStats, extract_paths
from rpje.rules import ChainRule, build_index
from rpje.synthetic import GOOD_RULES
from rpje.training import train

from conftest import assert_no_child, fail_in_child, failed_share, make_kg, parse_rule_lines
import oracles
from oracles import OracleScorer, Path, PathSet, brute_rank, known_triples, store_from_pairs
from test_paths import exact

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workloads  # noqa: E402


def test_metrics_hand_values():
    mr, mrr, hits = metrics_from_ranks([1, 2, 4])
    assert mr == pytest.approx(7 / 3)
    assert mrr == pytest.approx((1.0 + 0.5 + 0.25) / 3)
    assert hits[1] == pytest.approx(1 / 3)
    assert hits[3] == pytest.approx(2 / 3)
    assert hits[10] == pytest.approx(1.0)


def _ids(*ids):
    return np.array(ids, dtype=np.intp)


def _rank(scores, true_idx, excluded):
    """``_ranks`` of one row of scores."""
    known = KnownRanges(excluded, np.array([0]), np.array([len(excluded)]))
    raw, filtered = _ranks(scores[None], np.array([true_idx]), known)
    return int(raw[0]), int(filtered[0])


def rank_one(scorer, kg, triple, slot):
    """(raw, filtered) entity ranks of one triple's ``slot``, from a one-row array."""
    return tuple(int(ranks[0]) for ranks in rank_entities(scorer, kg, [triple]).ranks[slot])


def known_ends(lookup, a, b) -> list[int]:
    """The known ends of one query of a filter lookup, from one-row arrays."""
    values, start, stop = lookup(np.array([a]), np.array([b]))
    return values[start[0]:stop[0]].tolist()


def test_rank_pessimistic_on_ties():
    scores = np.array([0.5, 0.5, 1.0])
    assert _rank(scores, true_idx=0, excluded=_ids()) == (2, 2)
    assert _rank(scores, true_idx=1, excluded=_ids()) == (2, 2)
    assert _rank(scores, true_idx=2, excluded=_ids()) == (3, 3)
    assert _rank(scores, true_idx=0, excluded=_ids(1)) == (2, 1)


def test_rank_respects_exclusions():
    scores = np.array([0.1, 0.2, 0.3, 0.4])
    assert _rank(scores, true_idx=3, excluded=_ids()) == (4, 4)
    assert _rank(scores, true_idx=3, excluded=_ids(0, 1)) == (4, 2)
    assert _rank(scores, true_idx=3, excluded=_ids(0, 1, 2)) == (4, 1)
    # excluded candidates scoring worse than the true one change nothing
    assert _rank(scores, true_idx=1, excluded=_ids(2, 3)) == (2, 2)


def test_rank_exclusions_may_contain_true_index():
    scores = np.array([0.1, 0.2, 0.2, 0.4])
    assert _rank(scores, true_idx=2, excluded=_ids(2)) == (3, 3)
    assert _rank(scores, true_idx=2, excluded=_ids(0, 2)) == (3, 2)
    assert _rank(scores, true_idx=2, excluded=_ids(0, 1, 2, 3)) == (3, 1)


def test_rank_nan_true_score_ranks_first():
    scores = np.array([0.1, np.nan, 0.3])
    assert _rank(scores, true_idx=1, excluded=_ids(0)) == (1, 1)


def _hand_setup():
    # 3 entities, 2 base relations, one path (0 -> 2) with sequence (0, 0)
    entities = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    relations = np.array([[0.0, 1.0], [1.0, 1.0]])
    emb = EmbeddingTable(entities, relations)
    ps = store_from_pairs(
        max_steps=2,
        cutoff=0.01,
        pairs={(0, 2): (Path(relations=(0, 0), reliability=0.5),)},
    )
    index = build_index([ChainRule(head=1, body=(0, 0), confidence=0.81)], 0.0)
    return emb, ps, index


def test_score_hand_value_with_path_term():
    emb, ps, index = _hand_setup()
    scorer = Scorer(emb, ps, index, alpha_paths=1.0, norm="L1")
    # base: ||e0 + r0 - e2||_1 = ||(1,1)-(0,1)||_1 = 1
    # path: R * mu * ||C - r0||_1 = 0.5 * 0.81 * ||(1,1)-(0,1)||_1 = 0.405
    assert scorer.relation_scores([(0, 2)])[0, 0] == pytest.approx(1.0 + 0.5 * 0.81 * 1.0)
    # pair without paths: triple term only
    assert scorer.relation_scores([(1, 2)])[0, 0] == pytest.approx(0.0)
    # entity candidates are ranked by the triple term alone, paths or not
    assert scorer.tail_scores(0, 0)[2] == scorer.head_scores(0, 2)[0] == pytest.approx(1.0)


def test_score_alpha_zero_ignores_paths():
    emb, ps, index = _hand_setup()
    scorer = Scorer(emb, ps, index, alpha_paths=0.0, norm="L1")
    assert scorer.relation_scores([(0, 2)])[0, 0] == pytest.approx(1.0)


def _finder_setup():
    # a cycle a -> b -> c -> a plus shortcuts, so most pairs have 2-step paths
    kg = make_kg(
        [("a", "r", "b"), ("b", "s", "c"), ("c", "r", "a"), ("a", "q", "c"), ("b", "q", "a")]
    )
    rid = kg.relation_id
    emb = init_embeddings(kg, TrainingConfig(dim=4, seed=2))
    index = build_index([ChainRule(head=rid("q"), body=(rid("r"), rid("s")), confidence=0.9)], 0.0)
    pairs = [(h, t) for h in range(kg.n_entities) for t in range(kg.n_entities)]
    return emb, PathFinder(kg, max_steps=2, cutoff=0.0).find(pairs), index


@pytest.mark.parametrize("setup", [_hand_setup, _finder_setup], ids=["PathStore", "PathFinder"])
def test_vectorized_scores_match_pointwise(setup):
    """Tail and head scores equal ``triple_energy`` of each candidate, and relation
    scores the per-path oracle's Q of each candidate relation."""
    emb, store, index = setup()
    scorer = Scorer(emb, store, index, alpha_paths=1.0, norm="L1")
    paths = PathSet.of(store)
    oracle = OracleScorer(emb, paths, Composer(index), 1.0, "L1")
    n_ent, n_rel = emb.n_entities, emb.n_base_relations
    ent = emb.entities
    assert any(paths.paths_between(h, t) for h in range(n_ent) for t in range(n_ent))
    for r in range(n_rel):
        rvec = emb.relation_vec(r)
        for h in range(n_ent):
            tails = scorer.tail_scores(h, r)
            for t in range(n_ent):
                assert tails[t] == pytest.approx(triple_energy(ent[h], rvec, ent[t], "L1"))
        for t in range(n_ent):
            heads = scorer.head_scores(r, t)
            for h in range(n_ent):
                assert heads[h] == pytest.approx(triple_energy(ent[h], rvec, ent[t], "L1"))
    for h in range(n_ent):
        for t in range(n_ent):
            rels = scorer.relation_scores([(h, t)])[0]
            for r in range(n_rel):
                assert rels[r] == pytest.approx(oracle.score(h, r, t))


@pytest.fixture
def small_eval_kg():
    return make_kg(
        train=[
            ("a", "r", "b"),
            ("b", "s", "c"),
            ("a", "q", "c"),
            ("d", "r", "b"),
            ("d", "q", "c"),
            ("e", "r", "b"),
        ],
        valid=[("e", "q", "c")],
        test=[("a", "q", "c"), ("d", "q", "c")],
    )


def _trained_like(kg, seed=5):
    return init_embeddings(kg, TrainingConfig(dim=8, seed=seed))


def test_rank_entities_matches_brute_force(small_eval_kg):
    kg = small_eval_kg
    emb = _trained_like(kg)
    scorer = EntityScorer(emb, "L1")
    triples = kg.test + kg.train
    expected = {slot: [tuple(brute_rank(scorer, kg, triple, slot, setting)
                             for setting in ("raw", "filtered")) for triple in triples]
                for slot in ("head", "tail")}
    for triple, *by_slot in zip(triples, expected["head"], expected["tail"]):
        for slot, ranks in zip(("head", "tail"), by_slot):
            assert rank_one(scorer, kg, triple, slot) == ranks
    # the whole list in one call, with the scan covering every query or, past
    # a SCAN_MAX_DIM of 0, none, in one process and claimed in blocks of one
    # triple by 2 and 3 processes; then on 3 CPUs beside a job that returns at
    # once, and beside one that outlasts every child, so that the children
    # claim every block
    def outlast_children():
        for child in list(forked._open):
            os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)

    for scan_max_dim in (0, SCAN_MAX_DIM):
        runs = []
        for cpus, beside in ((1, None), (2, None), (3, None), (3, lambda: None),
                             (3, outlast_children)):
            with mock.patch.object(energy, "SCAN_MAX_DIM", scan_max_dim):
                scorer = EntityScorer(emb, "L1")
            with mock.patch.object(evaluation, "_SHARE_TRIPLES", 1), \
                    mock.patch.object(evaluation, "_CLAIM_TRIPLES", 1), \
                    mock.patch.object(forked, "cpus", lambda: cpus):
                ranking = rank_entities(scorer, kg, triples, beside)
            shares = ranking.shares
            assert len(shares) == cpus
            assert sum(blocks for blocks, _ in shares) == (len(triples) if cpus > 1 else 1)
            if beside is outlast_children:
                assert shares[0][0] == 0
            got = {slot: list(zip(raw.tolist(), filtered.tolist()))
                   for slot, (raw, filtered) in ranking.ranks.items()}
            assert got == expected, (scan_max_dim, cpus)
            runs.append((ranking.rescored.tolist(), len(ranking.seconds)))
        assert all(run == runs[0] for run in runs)
        rescored = runs[0][0]
        assert runs[0][1] == len(rescored) == 2 * len(triples)
        # every query rescores every entity where the bound covers none, and
        # the scan decides some candidates where it covers them
        if scan_max_dim:
            assert sum(rescored) < len(rescored) * kg.n_entities
        else:
            assert rescored == [kg.n_entities] * len(rescored)
    assert_no_child()


@pytest.mark.parametrize("failure", ["exception", "SIGKILL"])
def test_failed_ranking_share_leaves_no_process_or_pipe(small_eval_kg, failure):
    """A block that fails in the child that claimed it fails the ranking as a
    failed walk share fails the walk (``failed_share``), and names the ranking.
    Three processes claim blocks of one triple; each child fails on its first
    block, and this process ranks its own first block only once a child has
    ended, so a child has claimed one. No child is left, nor the token pipe."""
    kg = small_eval_kg
    triples = kg.test + kg.train
    scorer = EntityScorer(_trained_like(kg), "L1")
    parent, real_rank = os.getpid(), evaluation._rank_share

    def rank(*args):
        fail_in_child(parent, failure, last=False)
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)  # a child has ended
        return real_rank(*args)

    with mock.patch.object(evaluation, "_rank_share", rank), \
            mock.patch.object(evaluation, "_SHARE_TRIPLES", 1), \
            mock.patch.object(evaluation, "_CLAIM_TRIPLES", 1), \
            mock.patch.object(forked, "cpus", lambda: 3), failed_share(failure, "entity ranking"):
        rank_entities(scorer, kg, triples)


def test_rank_relations_matches_brute_force(small_eval_kg):
    kg = small_eval_kg
    emb = _trained_like(kg)
    store = PathFinder(kg, max_steps=2).find([(h, t) for h, _, t in kg.test])
    assert store.n_paths
    scorer = Scorer(emb, store, build_index([], 0.7), 1.0, "L1")
    oracle = OracleScorer(emb, PathSet.of(store), Composer(build_index([], 0.7)), 1.0, "L1")
    stored = known_triples(kg)
    for triple in kg.test:
        got = dict(zip(("raw", "filtered"),
                       (int(ranks[0]) for ranks in rank_relations(scorer, kg, [triple]))))
        for setting in ("raw", "filtered"):
            h, r, t = triple
            s_true = oracle.score(h, r, t)
            expect = 1
            for c in range(kg.n_base_relations):
                if c == r:
                    continue
                if setting == "filtered" and (h, c, t) in stored:
                    continue
                if oracle.score(h, c, t) <= s_true:
                    expect += 1
            assert got[setting] == expect


def test_filtered_ranks_never_worse_than_raw(small_eval_kg):
    kg = small_eval_kg
    emb = _trained_like(kg, seed=11)
    scorer = EntityScorer(emb, "L1")
    for triple in kg.test:
        for slot in ("head", "tail"):
            raw, filtered = rank_one(scorer, kg, triple, slot)
            assert filtered <= raw


def test_known_ends_match_is_known_scan(small_eval_kg):
    kg = small_eval_kg
    ents = range(kg.n_entities)
    assert len(kg.valid_ids) and kg.test  # the index must cover both
    stored = known_triples(kg)
    for r in range(kg.n_relations):  # base and inverse ids
        for e in ents:
            tails = [c for c in ents if (e, r, c) in stored]
            heads = [c for c in ents if (c, r, e) in stored]
            assert known_ends(kg.known_tails, e, r) == tails
            assert known_ends(kg.known_heads, r, e) == heads


def test_triple_in_two_splits_is_filtered_once():
    """The filter index holds a triple once, however many splits hold it, so the
    filtered rank excludes its other end once."""
    kg = make_kg(
        [("a", "r", "b"), ("a", "r", "c"), ("d", "r", "b")],
        valid=[("a", "r", "c")],
        test=[("a", "r", "b"), ("a", "r", "c"), ("d", "r", "c")],
    )
    a, b, c, d = map(kg.entity_id, "abcd")
    r = kg.relation_id("r")
    assert known_ends(kg.known_tails, a, r) == [b, c]
    assert known_ends(kg.known_heads, r, c) == [a, d]
    assert known_ends(kg.known_tails, c, kg.inverse(r)) == [a, d]
    assert known_ends(kg.known_relations, a, c) == [r]
    scorer = EntityScorer(_trained_like(kg), "L1")
    for triple in kg.test:
        for slot in ("head", "tail"):
            _, filtered = rank_one(scorer, kg, triple, slot)
            assert filtered == brute_rank(scorer, kg, triple, slot, "filtered")


def count_filter_lookups(monkeypatch) -> Counter:
    """Calls of ``known_tails``, ``known_heads`` and ``known_relations`` from now
    on, each counted with the number of queries it looked up."""
    calls = Counter()
    for name in ("known_tails", "known_heads", "known_relations"):
        real = getattr(KnowledgeGraph, name)
        monkeypatch.setattr(KnowledgeGraph, name, lambda self, a, b, name=name, real=real:
                            calls.update([(name, len(a))]) or real(self, a, b))
    return calls


def test_entity_ranking_makes_one_filter_lookup_per_split(small_eval_kg, monkeypatch):
    """Filtered entity ranks read the known ends of every query of a split in
    one lookup per slot, never one candidate, or one query, at a time."""
    kg = small_eval_kg
    calls = count_filter_lookups(monkeypatch)
    scorer = EntityScorer(_trained_like(kg), "L1")
    rank_entities(scorer, kg, kg.test_ids)
    n = len(kg.test_ids)
    assert calls == Counter({("known_tails", n): 1, ("known_heads", n): 1})


splits = st.lists(
    st.tuples(*(st.sampled_from(names) for names in ("abcde", "pqr", "abcde"))), max_size=20
)


def test_relation_categories():
    kg = make_kg(
        [
            # one: exactly one head, one tail -> 1-1
            ("a", "one", "b"),
            # fan: one head, three tails -> 1-N (tph=3, hpt=1)
            ("a", "fan", "x"), ("a", "fan", "y"), ("a", "fan", "z"),
            # funnel: three heads, one tail -> N-1
            ("x", "funnel", "b"), ("y", "funnel", "b"), ("z", "funnel", "b"),
            # many: two heads x two tails -> N-N
            ("a", "many", "x"), ("a", "many", "y"),
            ("b", "many", "x"), ("b", "many", "y"),
        ]
    )
    cats = relation_categories(kg)
    assert cats[kg.relation_id("one")] == "1-1"
    assert cats[kg.relation_id("fan")] == "1-N"
    assert cats[kg.relation_id("funnel")] == "N-1"
    assert cats[kg.relation_id("many")] == "N-N"


def test_relation_categories_match_loop_oracle(toy_kg):
    assert relation_categories(toy_kg) == oracles.relation_categories(toy_kg)
    for threshold in (1.0, 2.0, 3.5):
        assert relation_categories(toy_kg, threshold) == oracles.relation_categories(
            toy_kg, threshold)


@given(train=splits.filter(bool), threshold=st.sampled_from([1.0, 1.5, 2.0, 4 / 3]))
@settings(max_examples=60, deadline=None)
def test_relation_categories_match_loop_oracle_on_random_graphs(train, threshold):
    kg = make_kg(train)
    assert relation_categories(kg, threshold) == oracles.relation_categories(kg, threshold)


def test_evaluate_report_shape(small_eval_kg):
    kg = small_eval_kg
    emb = _trained_like(kg)
    finder = PathFinder(kg, max_steps=2)
    reports = evaluate(emb, finder, build_index([], 0.7), kg)
    keys = {(r.task, r.setting) for r in reports}
    assert keys == {
        (task, setting)
        for task in ("entity-head", "entity-tail", "entity-combined", "relation")
        for setting in ("raw", "filtered")
    }
    for rep in reports:
        assert rep.mr >= 1.0
        assert 0.0 < rep.mrr <= 1.0
        assert all(0.0 <= v <= 1.0 for v in rep.hits.values())
        assert rep.hits[1] <= rep.hits[3] <= rep.hits[10]
    filtered_head = next(r for r in reports if (r.task, r.setting) == ("entity-head", "filtered"))
    assert filtered_head.per_category  # categories recorded for filtered entity tasks


def test_evaluate_walks_exactly_the_test_pairs(small_eval_kg, monkeypatch):
    """``evaluate`` ranks relations on a store of the test pairs' own paths,
    walked once, and walks nothing when there is no path term to rank by."""
    kg = small_eval_kg
    emb = _trained_like(kg)
    test_pairs = [(h, t) for h, _, t in kg.test]
    want = PathFinder(kg, max_steps=2).find(test_pairs)
    wanted = PathSet.of(want).pairs
    assert want.n_paths and set(wanted) <= set(test_pairs)
    assert PathSet.of(extract_paths(kg, max_steps=2)).pairs != wanted
    stores = []
    real = Scorer.__init__

    def recording(self, emb, store, *rest):
        stores.append(store)
        real(self, emb, store, *rest)

    monkeypatch.setattr(Scorer, "__init__", recording)
    stats = EvalStats()
    evaluate(emb, PathFinder(kg, max_steps=2), build_index([], 0.7), kg, stats=stats)
    assert [exact(PathSet.of(store).pairs) for store in stores] == [exact(wanted)]
    assert (stats.test_pairs, stats.paths.pairs, stats.paths.paths) == (
        len(set(test_pairs)), len(set(test_pairs)), want.n_paths)
    stores.clear()
    stats = EvalStats()
    evaluate(emb, PathFinder(kg, max_steps=2), build_index([], 0.7), kg, 0.0, stats=stats)
    assert stores[0].n_paths == 0 and stats.paths.pairs == 0


def evaluate_small(kg, triples=None) -> tuple[list, EvalStats]:
    """``evaluate``'s reports and stats on ``kg``'s test split, or on ``triples``."""
    stats = EvalStats()
    reports = evaluate(_trained_like(kg), PathFinder(kg, max_steps=2), build_index([], 0.7), kg,
                       test_triples=triples, stats=stats)
    return reports, stats


def beside_the_path_side(share_triples: int = 1) -> contextlib.ExitStack:
    """Patches under which ``evaluate`` ranks ``small_eval_kg``'s two test triples
    in blocks of one triple, claimed by children from the start and by the
    parent once its path side is done: one process per ``share_triples``
    triples (one child by default) and 3 CPUs."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(evaluation, "_SHARE_TRIPLES", share_triples))
    stack.enter_context(mock.patch.object(evaluation, "_CLAIM_TRIPLES", 1))
    stack.enter_context(mock.patch.object(forked, "cpus", lambda: 3))
    return stack


def test_evaluate_is_the_same_in_every_arrangement(small_eval_kg, monkeypatch):
    """``evaluate`` gives the reports, the ``EvalStats`` but their seconds, and
    the ranks in triple order of a run in one process, whether the entity
    ranking is claimed in blocks by several processes or not: on 1, 2 or 3
    CPUs, with one process per triple or one for every triple. In every run
    the test pairs are walked once and their store compiled once, the stats
    hold that walk's counts, and the processes rank every block between them."""
    kg = small_eval_kg
    calls = Counter()
    ranked: list[list[int]] = []
    real_metrics = evaluation.metrics_from_ranks
    real_find, real_compile = PathFinder.find, Composer.compile
    monkeypatch.setattr(evaluation, "metrics_from_ranks",
                        lambda ranks: ranked.append(np.asarray(ranks).tolist()) or real_metrics(ranks))
    monkeypatch.setattr(PathFinder, "find", lambda *args: calls.update(["walk"]) or real_find(*args))
    monkeypatch.setattr(Composer, "compile",
                        lambda *args: calls.update(["compile"]) or real_compile(*args))

    def run(cpus: int, share_triples: int) -> tuple:
        calls.clear()
        ranked.clear()
        with mock.patch.object(evaluation, "_SHARE_TRIPLES", share_triples), \
                mock.patch.object(evaluation, "_CLAIM_TRIPLES", 1), \
                mock.patch.object(forked, "cpus", lambda: cpus):
            reports, stats = evaluate_small(kg)
        blocks = stats.seconds["entity_blocks"]
        assert len(blocks) == len(stats.seconds["entity_shares"])
        return reports, dataclasses.replace(stats, seconds={}), list(ranked), dict(calls), blocks

    serial = run(1, 10**6)
    walked = PathStats()
    real_find(PathFinder(kg, max_steps=2), [(h, t) for h, _, t in kg.test], walked)
    assert walked.paths and serial[1].paths == walked
    assert any(ranks != ranks[::-1] for ranks in serial[2])  # a merge out of order shows
    assert serial[4] == [1]
    for cpus in (1, 2, 3):
        for share_triples in (1, 10**6):
            *got, counts, blocks = run(cpus, share_triples)
            split = cpus > 1 and share_triples == 1
            assert tuple(got) == serial[:3], (cpus, share_triples)
            assert counts == {"walk": 1, "compile": 1}
            assert (len(blocks), sum(blocks)) == ((2, len(kg.test)) if split else (1, 1))
    assert_no_child()


def test_entity_child_killed_while_the_parent_walks(small_eval_kg):
    """An entity ranking child killed on the block it claimed while the parent
    walks gives the one-line error of a ranking share killed by SIGKILL
    (``failed_share``), after the parent's walk."""
    kg = small_eval_kg
    parent, real_rank, real_find = os.getpid(), evaluation._rank_share, PathFinder.find
    walked = []

    def rank(*args):
        fail_in_child(parent, "SIGKILL", last=False)
        return real_rank(*args)

    def find(self, pairs, stats=None):
        # a child has ended, and is left to be waited for
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        walked.append(len(pairs))
        return real_find(self, pairs, stats)

    with mock.patch.object(evaluation, "_rank_share", rank), \
            mock.patch.object(PathFinder, "find", find), beside_the_path_side(), \
            failed_share("SIGKILL", "entity ranking"):
        evaluate_small(kg)
    assert walked == [len(kg.test)]


def test_failed_path_side_kills_the_entity_children(small_eval_kg):
    """An exception in the parent's path side reaches the caller with its type
    and message once every entity child, still ranking the block it claimed,
    has been killed and waited for. No child and no pipe are left."""
    kg = small_eval_kg
    triples = kg.test + kg.train
    parent, real_rank, real_wait = os.getpid(), evaluation._rank_share, forked.Child.wait
    codes = {}

    def rank(*args):
        fail_in_child(parent, "exception", last=True)  # a child sleeps 60 s
        return real_rank(*args)

    def find(self, pairs, stats=None):
        raise ValueError("in the path side")

    def wait(child):
        codes[child.pid] = real_wait(child)
        return codes[child.pid]

    descriptors = sorted(os.listdir("/dev/fd"))
    start = time.perf_counter()
    with mock.patch.object(evaluation, "_rank_share", rank), \
            mock.patch.object(PathFinder, "find", find), \
            mock.patch.object(forked.Child, "wait", wait), beside_the_path_side(), \
            pytest.raises(ValueError, match="^in the path side$"):
        evaluate_small(kg, triples)
    assert time.perf_counter() - start < 30
    assert list(codes.values()) == [-signal.SIGKILL] * 2  # 3 CPUs: the parent and 2 children
    assert_no_child()
    assert sorted(os.listdir("/dev/fd")) == descriptors


def test_walk_split_beside_the_entity_children(small_eval_kg, monkeypatch):
    """A walk beside the entity children splits over the CPUs they leave: of 3
    CPUs, three beside no child, two beside one and one beside two. Each time
    the children and the parent, once its path side is done, rank every block
    between them, and the reports and the stats but their seconds are those
    of a run in one process. No child and no pipe are left."""
    kg = small_eval_kg
    triples = kg.test + [kg.train[1], kg.train[5]]  # four heads: four walk blocks
    descriptors = sorted(os.listdir("/dev/fd"))
    with mock.patch.object(paths_mod, "_BLOCK_EDGES", 1), \
            mock.patch.object(paths_mod, "_SHARE_BLOCKS", 1):
        with mock.patch.object(forked, "cpus", lambda: 1):
            reports, stats = evaluate_small(kg, triples)
        for share_triples, children, walkers in ((4, 0, 3), (2, 1, 2), (1, 2, 1)):
            with beside_the_path_side(share_triples):
                split_reports, split = evaluate_small(kg, triples)
            blocks = split.seconds["entity_blocks"]
            assert len(blocks) == len(split.seconds["entity_shares"]) == 1 + children
            assert sum(blocks) == (len(triples) if children else 1)
            assert len(split.paths.seconds) == walkers, share_triples
            assert split_reports == reports
            assert dataclasses.replace(split, seconds={}) == dataclasses.replace(stats, seconds={})
    assert_no_child()
    assert sorted(os.listdir("/dev/fd")) == descriptors


def test_evaluate_empty_test_rejected(small_eval_kg):
    with pytest.raises(ValueError):
        evaluate(
            _trained_like(small_eval_kg),
            PathFinder(small_eval_kg, max_steps=2),
            build_index([], 0.7),
            small_eval_kg,
            test_triples=[],
        )


def test_report_lines_and_csv(small_eval_kg):
    kg = small_eval_kg
    emb = _trained_like(kg)
    reports = evaluate(emb, PathFinder(kg, max_steps=2), build_index([], 0.7), kg)
    lines = report_lines(reports)
    assert any("entity-combined" in line for line in lines)
    rows = report_csv_rows(reports)
    assert rows[0] == "task,setting,metric,value"
    assert any(row.startswith("relation,filtered,MRR,") for row in rows)


def _composed_pair_explanations():
    """A hand-built pair whose one path composes to borninstate by a length-2
    rule, which the length-1 rule associates with nationality: (kg, explanations)."""
    kg = make_kg(
        [
            ("david", "bornincity", "sf"),
            ("sf", "cityinstate", "ca"),
            ("david", "borninstate", "ca"),
            ("x", "nationality", "y"),
        ]
    )
    rid = kg.relation_id
    index = build_index(
        [
            ChainRule(head=rid("borninstate"),
                      body=(rid("bornincity"), rid("cityinstate")), confidence=0.95),
            ChainRule(head=rid("nationality"), body=(rid("borninstate"),), confidence=0.9),
        ],
        0.7,
    )
    # embeddings engineered so borninstate matches the composed path exactly
    dim = 4
    relations = np.zeros((kg.n_base_relations, dim))
    relations[rid("bornincity")] = [1.0, 0.0, 0.0, 0.0]
    relations[rid("cityinstate")] = [0.0, 1.0, 0.0, 0.0]
    relations[rid("borninstate")] = [0.0, 0.0, 1.0, 0.0]
    relations[rid("nationality")] = [0.0, 0.0, 1.0, 0.1]
    entities = np.zeros((kg.n_entities, dim))
    entities[kg.entity_id("ca")] = [0.0, 0.0, 1.0, 0.0]
    emb = EmbeddingTable(entities, relations)
    finder = PathFinder(kg, max_steps=2)
    return kg, explain(emb, finder, index, kg,
                       kg.entity_id("david"), kg.entity_id("ca"), top_k=2)


def _pathless_explanations():
    """A pair in two components, so without paths: (kg, explanations)."""
    kg = make_kg([("a", "r", "b"), ("c", "r", "d")])  # two components
    emb = _trained_like(kg)
    finder = PathFinder(kg, max_steps=2)
    return kg, explain(emb, finder, build_index([], 0.7), kg,
                       kg.entity_id("a"), kg.entity_id("c"), top_k=1)


def test_explain_ranks_composed_relation_first():
    kg, exps = _composed_pair_explanations()
    rid = kg.relation_id
    assert exps[0].relation == rid("borninstate")
    ev = exps[0].paths[0]
    assert ev.residual == (rid("borninstate"),)
    assert ev.confidence_product == pytest.approx(0.95)
    assert len(ev.applied_rules) == 1
    # the runner-up nationality is supported by the R1 association
    nat = next(e for e in exps if e.relation == rid("nationality"))
    assoc = nat.paths[0].association
    assert assoc == (rid("borninstate"), rid("nationality"), 0.9)

    text = explanation_lines(exps, kg)
    assert any("applied rule" in line for line in text)
    assert any("association" in line for line in text)
    machine = explanation_lines(exps, kg, machine=True)
    assert any(line.startswith("relation\t") for line in machine)
    assert any(line.startswith("assoc\t") for line in machine)


def test_explain_without_paths_reports_triple_term():
    kg, exps = _pathless_explanations()
    assert exps[0].paths == []
    lines = explanation_lines(exps, kg)
    assert any("triple term only" in line for line in lines)


def test_explanation_lines_human_format():
    """The human lines of an applied rule, an association and a pair without
    paths, character for character (the machine lines are pinned by the
    artifact digests)."""
    kg, exps = _composed_pair_explanations()
    assert explanation_lines(exps, kg) == HUMAN_COMPOSED
    kg, exps = _pathless_explanations()
    assert explanation_lines(exps, kg) == HUMAN_PATHLESS


HUMAN_COMPOSED = [
    "predicted relation borninstate (score 0.0000)",
    "  path (bornincity,cityinstate) reliability=1.000 confidence=0.950 residual=(borninstate)",
    "    applied rule borninstate <= (bornincity, cityinstate)\t0.95",
    "predicted relation nationality (score 0.1950)",
    "  path (bornincity,cityinstate) reliability=1.000 confidence=0.950 residual=(borninstate)",
    "    applied rule borninstate <= (bornincity, cityinstate)\t0.95",
    "    association borninstate -> nationality (confidence 0.9)",
]
HUMAN_PATHLESS = ["predicted relation r (score 3.2135)", "  triple term only"]


def test_explain_evidence_is_the_composition_of_each_path(toy_kg, tmp_path):
    """On the toy KG with its good rules, each path ``explain`` prints carries
    the relations, reliability, residual, applied rules and confidence product
    that composing its relations alone gives, in store order, for every
    candidate relation."""
    kg = toy_kg
    index = parse_rule_lines(GOOD_RULES, kg, tmp_path, threshold=0.7)
    emb = init_embeddings(kg, TrainingConfig(dim=8, seed=3))
    finder = PathFinder(kg, max_steps=2)
    composer = Composer(index)
    applied = 0
    for h, _, t in kg.test_ids[:40].tolist():
        paths = PathSet.of(finder.find([(h, t)])).paths_between(h, t)
        for exp in explain(emb, finder, index, kg, h, t, top_k=kg.n_base_relations):
            assert len(exp.paths) == len(paths)
            for ev, p in zip(exp.paths, paths):
                cr = composer.compose(p.relations)
                assert (ev.relations, ev.reliability) == (p.relations, p.reliability)
                assert ev.residual == cr.residual
                assert ev.applied_rules == cr.applied_rules
                assert ev.confidence_product == cr.confidence_product
                applied += bool(cr.applied_rules)
    assert applied


def test_each_command_compiles_its_store_once(toy_kg, tmp_path, monkeypatch):
    """``evaluate``, ``explain`` and ``train`` each compose their path store
    exactly once (``Composer.compile``): scoring, training and the printed
    evidence all read that one compilation."""
    kg = toy_kg
    index = parse_rule_lines(GOOD_RULES, kg, tmp_path, threshold=0.7)
    cfg = TrainingConfig(dim=8, epochs=2, n_batches=4, seed=3)
    emb = init_embeddings(kg, cfg)
    finder = PathFinder(kg, max_steps=2)
    calls = []
    real = Composer.compile

    def counting(self, store):
        calls.append(store)
        return real(self, store)

    monkeypatch.setattr(Composer, "compile", counting)
    evaluate(emb, finder, index, kg)
    assert len(calls) == 1 and calls[0].n_paths
    h, _, t = kg.test_ids[0].tolist()
    explain(emb, finder, index, kg, h, t, top_k=kg.n_base_relations)
    assert len(calls) == 2
    train(kg, extract_paths(kg, max_steps=2), index, cfg)
    assert len(calls) == 3


def _known_relations_by_scan(kg, stored, h, t):
    return [c for c in range(kg.n_base_relations) if (h, c, t) in stored]


def assert_known_relations_match_scan(kg):
    """The known relations of every (h, t) pair, looked up one pair at a time and
    all in one array, equal the scan's."""
    stored = known_triples(kg)
    n_ent = kg.n_entities
    heads, tails = np.divmod(np.arange(n_ent * n_ent), n_ent)
    values, start, stop = kg.known_relations(heads, tails)
    for h, t, lo, hi in zip(heads.tolist(), tails.tolist(), start, stop):
        want = _known_relations_by_scan(kg, stored, h, t)
        assert values[lo:hi].tolist() == known_ends(kg.known_relations, h, t) == want


def test_known_relations_match_is_known_scan(toy_kg):
    assert len(toy_kg.valid_ids) and toy_kg.test
    assert_known_relations_match_scan(toy_kg)


@given(train=splits.filter(bool), valid=splits, test=splits)
@settings(max_examples=60, deadline=None)
def test_known_relations_match_is_known_scan_on_random_graphs(train, valid, test):
    assert_known_relations_match_scan(make_kg(train, valid, test))


def test_relation_ranking_makes_one_filter_lookup_per_split(small_eval_kg, monkeypatch):
    """``evaluate`` reads the known relations, like the known ends, of every
    query of the split in one lookup, never one candidate, or one query, at a
    time."""
    kg = small_eval_kg
    calls = count_filter_lookups(monkeypatch)
    evaluate(_trained_like(kg), PathFinder(kg, max_steps=2), build_index([], 0.7), kg)
    n = len(kg.test_ids)
    assert calls == Counter({("known_tails", n): 1, ("known_heads", n): 1,
                             ("known_relations", n): 1})


def _hub_data():
    """The hub-paths recipe at the toy KG's size: Zipf-weighted friend_of hubs."""
    data = workloads.make_data(workloads.Workload("hub", scale=1, hub_out_degree=4))
    return data, 3


@pytest.mark.parametrize("graph", ["toy", "hub"])
def test_eval_relation_scores_equal_explain(graph, toy_data, tmp_path, monkeypatch):
    """For every test pair, the relation scores ``evaluate`` ranks by equal the
    scores ``explain`` prints for it, in float.hex: the two commands walk the
    same paths and score them alike."""
    data, max_steps = (toy_data, 2) if graph == "toy" else _hub_data()
    kg = make_kg(data.train, data.valid, data.test)
    index = parse_rule_lines(data.rules, kg, tmp_path, threshold=0.7)
    emb = init_embeddings(kg, TrainingConfig(dim=16, seed=4))
    finder = PathFinder(kg, max_steps)
    ranked = {}
    real = Scorer.relation_scores

    def recording(self, pairs):
        scores = real(self, pairs)
        ranked.update(zip(map(tuple, np.asarray(pairs).tolist()), scores))
        return scores

    monkeypatch.setattr(Scorer, "relation_scores", recording)
    evaluate(emb, finder, index, kg)
    monkeypatch.undo()
    assert set(ranked) == {(h, t) for h, _, t in kg.test}
    n_rel, with_paths = kg.n_base_relations, 0
    for (h, t), scores in sorted(ranked.items()):
        explained = explain(emb, finder, index, kg, h, t, top_k=n_rel)
        by_relation = {e.relation: e.score for e in explained}
        assert [by_relation[r].hex() for r in range(n_rel)] == [s.hex() for s in scores.tolist()]
        with_paths += bool(explained[0].paths)
    assert with_paths
