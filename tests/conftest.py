import contextlib
import os
import signal
import struct
import time
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pytest

from rpje import kg as kg_mod, model, paths, rules as rules_mod
from rpje.kg import KnowledgeGraph
from rpje.synthetic import ToyConfig, generate


def make_kg(train, valid=None, test=None) -> KnowledgeGraph:
    """The graph of (head, relation, tail) name rows per split, interned as
    ``load_dataset`` interns its files; a row repeated within a split is kept
    once."""
    splits = (train, valid or [], test or [])
    return KnowledgeGraph(*kg_mod._intern([tuple(zip(*rows)) or ((), (), ()) for rows in splits]))


def adjacency_by_relation(kg: KnowledgeGraph, e: int) -> dict[int, list[int]]:
    """The outgoing neighbours of e grouped per relation, in ``kg.adjacency`` order."""
    grouped: dict[int, list[int]] = {}
    for r, t in kg.adjacency(e):
        grouped.setdefault(r, []).append(t)
    return grouped


def train_pairs(kg: KnowledgeGraph) -> list[tuple[int, int]]:
    """The distinct (head, tail) pairs of the train split, ascending."""
    return sorted(set(zip(kg.train_ids[:, 0].tolist(), kg.train_ids[:, 2].tolist())))


def assert_no_child() -> None:
    """This process has no child process, running or ended and not yet waited
    for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in_child(parent: int, failure: str, last: bool) -> None:
    """In a process other than ``parent``: sleep through the block if ``last``,
    and fail it otherwise by ``failure``, killed by SIGKILL or by raising
    ValueError("in a child's share")."""
    if os.getpid() != parent:
        if last:
            time.sleep(60)
        elif failure == "SIGKILL":
            os.kill(os.getpid(), signal.SIGKILL)
        raise ValueError("in a child's share")


@contextlib.contextmanager
def failed_share(failure: str, what: str):
    """The split run inside fails as its children do (``fail_in_child``): the
    child's exception reaches the caller with its type and message, and a child
    killed by SIGKILL gives a one-line RuntimeError naming ``what``. The run ends
    at once, though the last child still runs, and leaves no child and no pipe:
    the process holds the file descriptors it held before."""
    expected = {
        "exception": pytest.raises(ValueError, match="^in a child's share$"),
        "SIGKILL": pytest.raises(
            RuntimeError,
            match=rf"^{what}: a child process ended without its message \(exit code -9\)$",
        ),
    }[failure]
    descriptors = sorted(os.listdir("/dev/fd"))
    start = time.perf_counter()
    with expected:
        yield
    assert time.perf_counter() - start < 30
    assert_no_child()
    assert sorted(os.listdir("/dev/fd")) == descriptors


class ArtifactFormat(NamedTuple):
    """An artifact's magic, header struct and layout callback, as its module
    declares them, for tests that damage one value of a file. The array offsets
    follow the layout rule of ``rpje.artifacts``, written out again here."""

    magic: bytes
    header: struct.Struct
    layout: Callable

    def fields(self, data) -> list:
        return list(self.header.unpack_from(data, len(self.magic)))

    def set_fields(self, data: bytearray, fields) -> None:
        self.header.pack_into(data, len(self.magic), *fields)

    def arrays(self, data: bytearray) -> tuple[list[np.ndarray], list[int]]:
        """Writeable views of the arrays of ``data``, and the offset each starts at."""
        offset, views, starts = len(self.magic) + self.header.size, [], []
        for dtype, count in self.layout(tuple(self.fields(data))):
            dtype = np.dtype(dtype)
            offset += -offset % dtype.itemsize
            views.append(np.frombuffer(data, dtype, count, offset))
            starts.append(offset)
            offset += dtype.itemsize * count
        assert offset == len(data), "the file does not follow the layout rule"
        return views, starts


CHECKPOINT = ArtifactFormat(model._CKPT_MAGIC, model._CKPT_HEADER, model._checkpoint_layout)
PATH_CACHE = ArtifactFormat(paths._MAGIC, paths._HEADER, paths._layout)
DATASET_CACHE = ArtifactFormat(kg_mod._CACHE_MAGIC, kg_mod._CACHE_HEADER, kg_mod._cache_layout)


def parse_rule_lines(lines, kg, tmp_path, threshold=0.0, stats=None):
    path = tmp_path / "rules.tsv"
    path.write_text("\n".join(lines) + "\n")
    raw = rules_mod.parse_rules(path, kg, stats)
    encoded = rules_mod.encode_rules(raw, kg, stats)
    return rules_mod.build_index(encoded, threshold, stats)


# One human-readable verdict per acceptance criterion; printed in the terminal
# summary so the lines survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def toy_data():
    return generate(ToyConfig(seed=7))


@pytest.fixture(scope="session")
def toy_kg(toy_data):
    return make_kg(toy_data.train, toy_data.valid, toy_data.test)
