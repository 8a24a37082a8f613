import contextlib
import errno
import gc
import os
import pickle
import re
import select
import signal
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rpje import evaluation, forked, paths as paths_mod
from rpje.compose import Composer
from rpje.model import TrainingConfig, init_embeddings
from rpje.paths import PathFinder, PathStats, extract_paths
from rpje.rules import build_index
from rpje.synthetic import ToyConfig, generate
from rpje.training import train

from conftest import assert_no_child, make_kg
from oracles import OracleScorer, PathSet, evaluate_in_triple_order, packed_cuts
from test_paths import exact, oracle_paths, oracle_walk

SRC = os.path.dirname(os.path.dirname(os.path.abspath(forked.__file__)))

UNPICKLED = []  # a tag per ``Unpickled`` unpickled in this process


def unpickled(tag):
    UNPICKLED.append(tag)


class Unpickled:
    """An object that records in ``UNPICKLED`` that it was unpickled."""

    def __reduce__(self):
        return unpickled, ("unpickled",)


def unpicklable(share):
    """An object that records its unpickling, a large array, then an object
    pickle refuses: pickled as it is written, the first two would be in the
    pipe before the failure."""
    return Unpickled(), np.arange(1 << 20, dtype=np.float64) + share, lambda: share


def outlast_claims() -> None:
    """Returns once each open child of this process has written the start of
    its message, or ended: as ``run_blocks``' ``beside``, the children claim
    every block, since a child claims until none is left before it sends."""
    for child in list(forked._open):
        select.select([child.inbox], [], [])


def two_blocks(what: str, job):
    """``forked.run_blocks`` of two blocks on 2 CPUs, one process per block,
    whose child claims both."""
    with mock.patch.object(forked, "cpus", lambda: 2):
        return forked.run_blocks(what, 2, 1, job, beside=outlast_claims)


def test_share_whose_result_does_not_pickle():
    """A child's result that does not pickle fails the run with the exception
    pickling it raised, with its type and message, as if raised here. The
    message was pickled whole before any of it was written, so no part of it
    was unpickled here. No child and no pipe are left."""
    with pytest.raises(Exception) as raised:
        pickle.dumps(unpicklable(1), protocol=5)
    descriptors = sorted(os.listdir("/dev/fd"))
    with pytest.raises(type(raised.value), match=f"^{re.escape(str(raised.value))}$"):
        two_blocks("unpicklable", lambda start, stop: unpicklable(start))
    assert UNPICKLED == []
    assert_no_child()
    assert sorted(os.listdir("/dev/fd")) == descriptors


def send_half_then_die(outbox, message):
    """Writes the first half of the message, then kills its process."""
    data = pickle.dumps(message, protocol=5)
    outbox.write(data[: len(data) // 2])
    outbox.flush()
    os.kill(os.getpid(), signal.SIGKILL)


def test_child_killed_mid_message():
    """A child killed while it writes its message gives the one-line error of a
    child that sent none, and leaves no child and no pipe."""
    descriptors = sorted(os.listdir("/dev/fd"))
    with mock.patch.object(forked, "_send", send_half_then_die), pytest.raises(
        RuntimeError, match=r"^half: a child process ended without its message \(exit code -9\)$"
    ):
        two_blocks("half", lambda start, stop: np.arange(1 << 16) + start)
    assert_no_child()
    assert sorted(os.listdir("/dev/fd")) == descriptors


# The standard library's process package, which ``forked`` does without. The
# name is split so that a grep of src/ and tests/ for it finds uses only.
PROCESS_PACKAGE = "multi" "processing"


def test_cli_and_a_split_import_no_process_package():
    """A fresh interpreter that imports ``rpje.cli`` and runs one
    ``forked.run_blocks`` in two processes has not imported ``PROCESS_PACKAGE``."""
    script = ("import sys, rpje.cli\n"
              "from rpje import forked\n"
              "forked.cpus = lambda: 2\n"
              "squares, processes = forked.run_blocks('squares', 2, 1, lambda a, b: (a + 2) ** 2)\n"
              "assert squares == [4, 9] and len(processes) == 2\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == sys.argv[1]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", script, PROCESS_PACKAGE], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def refused_fork():
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize("run", ["shares", "span planner", "entity ranking beside the path side"])
def test_refused_fork_leaves_no_pipe(toy_kg, run):
    """A fork refused (EAGAIN) by ``forked.run_blocks``, by ``train``'s span planner
    or by an ``evaluate`` that ranks entities beside its path side (40 test
    triples in shares of 20, on 3 CPUs) reaches the caller, and every pipe
    opened for the child is closed: the process holds the file descriptors it
    held before, and collecting what the failure left warns of no open file."""
    index, cfg = build_index([], 0.7), TrainingConfig(dim=8, epochs=1, seed=4)
    store, emb = extract_paths(toy_kg, 2), init_embeddings(toy_kg, cfg)
    job = {
        "shares": lambda: forked.run_blocks("squares", 2, 1, lambda a, b: (a + 2) ** 2),
        "span planner": lambda: train(toy_kg, store, index, cfg),
        "entity ranking beside the path side": lambda: evaluation.evaluate(
            emb, PathFinder(toy_kg, 2), index, toy_kg),
    }[run]
    descriptors = sorted(os.listdir("/dev/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with mock.patch.object(os, "fork", refused_fork), \
                mock.patch.object(evaluation, "_SHARE_TRIPLES", 20), \
                mock.patch.object(forked, "cpus", lambda: 3), pytest.raises(OSError) as raised:
            job()
        assert raised.value.errno == errno.EAGAIN
        assert sorted(os.listdir("/dev/fd")) == descriptors
        del raised
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert_no_child()


def pipe_of(fd: int) -> tuple[int, int]:
    """The device and inode of the pipe (or file) behind ``fd``."""
    status = os.fstat(fd)
    return status.st_dev, status.st_ino


def held_pipes() -> set[tuple[int, int]]:
    """``pipe_of`` each descriptor this process holds."""
    held = set()
    for fd in os.listdir("/dev/fd"):
        with contextlib.suppress(OSError):  # the listing's own descriptor, closed by now
            held.add(pipe_of(int(fd)))
    return held


def test_child_holds_no_pipe_of_an_open_sibling():
    """A child forked while another is open closes that child's inbox, so it
    holds no end of its sibling's pipe; and each open child takes one CPU from
    ``idle_cpus``, at least one of which is left, until it is closed."""
    descriptors = sorted(os.listdir("/dev/fd"))
    with mock.patch.object(forked, "cpus", lambda: 3):
        assert forked.idle_cpus() == 3
        first = forked.Child("first", lambda send: send(None))
        children = [first]
        try:
            first_pipe = pipe_of(first.inbox.fileno())
            assert forked.idle_cpus() == 2
            children.append(forked.Child("second", lambda send: send(held_pipes())))
            assert forked.idle_cpus() == 1
            with mock.patch.object(forked, "cpus", lambda: 2):
                assert forked.idle_cpus() == 1
            held = children[1].receive()
            assert first.receive() is None
        finally:
            for child in children:
                child.close()
        assert forked.idle_cpus() == 3
    assert first_pipe not in held and len(held) > 0
    assert_no_child()
    assert sorted(os.listdir("/dev/fd")) == descriptors


def refuse(*args):
    raise AssertionError("a split in one process opened a pipe, forked, asked for idle CPUs "
                         "or cut its work")


def test_split_in_one_process_opens_no_pipe(toy_kg):
    """``eval`` of the toy's 40 test triples, too few to split, and
    ``explain``'s one-pair walks (``PathFinder.find``) run in this process with
    no pipe, no fork and no ``forked.idle_cpus``: with the three refused, they
    give the reports of the brute-force loop over the dict walk's paths, and
    the dict walk's paths. A one-pair walk and an empty walk (``eval``'s with
    ``alpha_paths = 0``) also cut nothing: they are one block and none without
    ``paths._work`` or ``forked.runs``."""
    emb, index = init_embeddings(toy_kg, TrainingConfig(dim=12, seed=3)), build_index([], 0.7)
    pairs = sorted({(h, t) for h, _, t in toy_kg.test})
    walked = {(h, t): oracle_paths(oracle_walk(toy_kg, h, 2).get(t, {}),
                                   paths_mod.DEFAULT_CUTOFF, paths_mod.DEFAULT_PER_PAIR_CAP)
              for h, t in pairs}
    oracle = OracleScorer(emb, PathSet(2, paths_mod.DEFAULT_CUTOFF, pairs=walked),
                          Composer(index), 1.0, "L1")
    want = evaluate_in_triple_order(oracle, toy_kg, toy_kg.test)
    assert any(walked.values())
    finder = PathFinder(toy_kg, 2)
    with mock.patch.object(os, "pipe", refuse), mock.patch.object(os, "fork", refuse), \
            mock.patch.object(forked, "idle_cpus", refuse):
        got = evaluation.evaluate(emb, finder, index, toy_kg, 1.0, "L1")
        with mock.patch.object(paths_mod, "_work", refuse), \
                mock.patch.object(forked, "runs", refuse):
            found = {(h, t): finder.find([(h, t)]).paths_between(h, t) for h, t in pairs}
            stats = PathStats()
            empty = finder.find([], stats)
    assert got == want
    assert exact(found) == exact(walked)
    assert (empty.n_paths, len(empty.heads), stats.blocks) == (0, 0, 0)


@given(costs=st.lists(st.integers(0, 12), max_size=14), each=st.integers(1, 12),
       budget=st.integers(1, 12), dtype=st.sampled_from([np.int64, np.float64]))
@example(costs=[], each=1, budget=1, dtype=np.int64)
@example(costs=[5], each=5, budget=1, dtype=np.int64)
@example(costs=[1, 0, 0, 9, 0, 1], each=9, budget=1, dtype=np.float64)
@settings(max_examples=400, deadline=None)
def test_runs_pack_items_as_the_oracle_does(costs, each, budget, dtype):
    """``forked.runs`` of a cost per item, and of one cost for every item, cut
    the runs ``packed_cuts`` packs: n = 0 and 1, zero costs, an item above the
    budget and budgets of 1 among them."""
    per_item = packed_cuts(costs, budget)
    assert forked.runs(len(costs), np.array(costs, dtype=dtype), budget) == list(
        zip(per_item, per_item[1:]))
    scalar = packed_cuts([each] * len(costs), budget)
    assert forked.runs(len(costs), each, budget) == list(zip(scalar, scalar[1:]))


def store_arrays(store) -> list[bytes]:
    return [a.tobytes() for a in (store.heads, store.tails, store.indptr, store.relations,
                                  store.reliabilities)]


def test_more_than_256_blocks_are_claimed_in_runs():
    """A walk of 396 blocks (the toy graph at 300 persons, one head per block)
    and a ranking of its 1,594 train triples in claim blocks of one triple at
    least split into runs of consecutive blocks, at most 256 of them, on 2 and
    3 CPUs, and give the store's arrays, the ``PathStats`` counts, the ranks,
    their order and the rescores of one process, bit for bit."""
    data = generate(ToyConfig(n_persons=300, seed=7))
    kg = make_kg(data.train, data.valid, data.test)
    emb = init_embeddings(kg, TrainingConfig(dim=8, seed=2))
    runs = []
    for cpus in (1, 2, 3):
        stats = PathStats()
        scorer = evaluation.EntityScorer(emb)
        with mock.patch.object(paths_mod, "_BLOCK_EDGES", 1), \
                mock.patch.object(evaluation, "_CLAIM_TRIPLES", 1), \
                mock.patch.object(forked, "cpus", lambda: cpus):
            store = extract_paths(kg, 3, stats=stats)
            ranking = evaluation.rank_entities(scorer, kg, kg.train_ids)
        assert stats.blocks == len(np.unique(kg.train_ids[:, 0])) > 256
        assert len(stats.seconds) == len(ranking.shares) == cpus
        claims = -(-len(kg.train_ids) // -(-len(kg.train_ids) // 256)) if cpus > 1 else 1
        assert sum(n for n, _ in ranking.shares) == claims <= 256
        runs.append((store_arrays(store), stats,
                     {slot: [a.tobytes() for a in pair] for slot, pair in ranking.ranks.items()},
                     ranking.rescored.tolist(), len(ranking.seconds)))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert_no_child()
