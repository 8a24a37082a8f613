"""Forked child processes that report to their parent through one pipe
(POSIX ``fork`` only), built on ``os.fork``, ``os.pipe`` and ``os.waitpid``.

A ``Child`` inherits its job from the fork and sends its results as pickled
messages, each pickled whole before its first byte is written, so a message
that does not pickle leaves nothing in the pipe. The child first closes the
parent's ends of its pipes, so a parent that closes its own ends leaves the
child nothing to block on. Any exception, a closed pipe's included, is sent in
place of a message (if it can be) and ends it. It leaves through ``os._exit``,
so it flushes no stdio, runs no exit hook and prints no traceback: the message
is its one report. ``Child.receive`` reads a message on the parent's side and
raises an exception the child sent, with its type and message.

Every run of work is cut by one rule, ``runs``: consecutive runs of items,
each taking the most items whose costs sum to at most a budget, or one item.
It cuts ``train``'s spans of batches (``training.TrainPlan.epoch_spans``), the
PCRA walk's blocks of heads (``paths.extract_paths``), every array pass of
``evaluate`` (``evaluation.BLOCK_CELLS``) and ``run_blocks``' claims.

``run_blocks`` runs independent blocks of work by one rule, the PCRA walk's
blocks of heads (``paths.extract_paths``) and entity ranking's triples
(``evaluation.rank_entities``) alike. Fewer than twice the caller's blocks
per process stay in this process as one claim, with no pipe and no fork.
More are cut into claims, runs of consecutive blocks, with one token per claim
in a pipe (``Claims``): this process and each forked child claim until none
is left, this process once the caller's ``beside`` is done (``evaluate``'s
path side, beside the entity ranking), and the results are merged in block
order. ``train``'s span planner (``training.SpanPlanner``) is a ``Child``
too. Every child is waited for and every pipe closed before ``run_blocks``
returns or raises, a fork that fails included.

A child holds a CPU from its fork until it is closed, so a split made while
children run (the walk of ``evaluate``'s path side, beside the entity
ranking's children) takes ``idle_cpus``, the CPUs they leave. A child also
closes the inboxes of the children forked before it that are still open, so
it holds no other child's pipe.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import signal
import time
from collections.abc import Callable, Sequence

import numpy as np


def runs(n: int, cost, budget: int) -> list[tuple[int, int]]:
    """The consecutive (start, stop) runs of items 0..n - 1 in which each run
    takes the most items whose ``cost`` sums to at most ``budget``, or one item.
    ``cost`` is one positive int for every item, or one int per item."""
    if np.ndim(cost) == 0:
        step = max(1, budget // cost)
        return [(a, min(a + step, n)) for a in range(0, n, step)]
    ends, start, found = np.cumsum(cost), 0, []
    while start < n:
        before = ends[start - 1] if start else 0
        stop = max(start + 1, int(ends.searchsorted(before + budget, "right")))
        found.append((start, stop))
        start = stop
    return found


def cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without the call
        return os.cpu_count() or 1


def idle_cpus() -> int:
    """The CPUs this process may run on less one per child of its that is
    open (forked and not yet closed), but at least one."""
    return max(1, cpus() - len(_open))


# This process's children that are forked and not yet closed.
_open: set[Child] = set()


class Child:
    """A forked child that runs ``job(send)`` and ends, where ``send(message)``
    writes one message to ``inbox``, the parent's read end of its pipe. It first
    closes ``parent_ends``, descriptors of the parent's that it must not hold,
    and the inboxes of the parent's other open children.
    ``what`` names the work in the parent's errors."""

    def __init__(self, what: str, job: Callable[[Callable[[object], None]], object],
                 parent_ends: Sequence[int] = ()):
        self.what, self.code = what, None  # the exit code, once waited for
        read, write = os.pipe()
        self.inbox = open(read, "rb")
        try:
            with open(write, "wb") as outbox:  # the child's end, closed here once forked
                self.pid = os.fork()
                if self.pid == 0:
                    _run(job, read, outbox, parent_ends)
        except BaseException:  # no child: its pipe is closed whole
            self.inbox.close()
            raise
        _open.add(self)

    def receive(self):
        """The next message; an exception the child sent is raised here, and a
        child that ends first gives a one-line ``RuntimeError``."""
        try:
            message = pickle.load(self.inbox)
        except (EOFError, pickle.UnpicklingError):  # no message, or its start only
            raise RuntimeError(f"{self.what}: a child process ended without its message "
                               f"(exit code {self.wait()})") from None
        if isinstance(message, BaseException):
            raise message
        return message

    def kill(self) -> None:
        if self.code is None:  # a waited-for pid may belong to another process
            os.kill(self.pid, signal.SIGKILL)

    def wait(self) -> int:
        if self.code is None:
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code

    def close(self) -> None:
        _open.discard(self)
        self.inbox.close()
        self.wait()


def _run(job, read, outbox, parent_ends) -> None:
    code = 0
    try:
        for end in (read, *parent_ends):
            os.close(end)
        for sibling in _open:  # forked before this child, by its parent
            sibling.inbox.close()
        _open.clear()
        job(functools.partial(_send, outbox))
    except BaseException as exc:  # the process ends here either way
        code = 1
        # unless the parent has closed its end, or the exception does not pickle
        with contextlib.suppress(BaseException):
            _send(outbox, exc)
    finally:
        os._exit(code)


def _send(outbox, message) -> None:
    outbox.write(pickle.dumps(message, protocol=5))  # pickled whole, then written
    outbox.flush()


class Claims:
    """Blocks 0..n - 1 (n at most 256) for this process and its children to
    claim, each block once. One token byte per block, naming it, is written to
    a pipe whose write end is closed at once, before any child is forked: a
    1-byte read claims one block atomically, and a read of the emptied pipe
    ends at once. Children forked while it is open inherit its read end and
    leave through ``os._exit``, which closes it; leaving its ``with`` block
    closes this process's."""

    def __init__(self, n: int):
        read, write = os.pipe()
        try:
            os.write(write, bytes(range(n)))  # one atomic write; n > 256 raises
        except BaseException:
            os.close(read)
            raise
        finally:
            os.close(write)
        self._read = read

    def __iter__(self):
        """The blocks this process claims, until none is left."""
        while token := os.read(self._read, 1):
            yield token[0]

    def __enter__(self) -> Claims:
        return self

    def __exit__(self, *exc) -> None:
        os.close(self._read)


def run_blocks(
    what: str, n: int, per_process: int, job: Callable[[int, int], object],
    per_claim: int = 1, beside: Callable[[], object] | None = None,
) -> tuple[list, list[tuple[int, float]]]:
    """``job(start, stop)`` over claims, runs of consecutive blocks of the
    independent blocks 0..n - 1: the result of each claim in block order, and
    each process's claims and seconds taking them, this process's first.
    ``beside()``, if given, runs here before this process takes a claim.

    Fewer than ``2 * per_process`` blocks are one claim, taken here with no
    ``idle_cpus``, pipe or fork; so are more when that leaves one process.
    Otherwise ``min(idle_cpus(), n // per_process)`` processes, this one and a
    ``Child`` per other, take claims of at least ``per_claim`` blocks, at most
    256 of them (``Claims``), until none is left; a child sends back its
    results as one message. An exception a child sent is raised here; a child
    that ends without its message gives a one-line ``RuntimeError`` naming
    ``what``. Every child is waited for before this returns or raises; on a
    failure, killed first."""
    processes = 1 if n < 2 * per_process else min(idle_cpus(), n // per_process)
    claims = [(0, n)] if processes == 1 else runs(n, 1, max(per_claim, -(-n // 256)))

    def take(tokens) -> tuple[list, float]:
        begin = time.perf_counter()
        taken = [(k, job(*claims[k])) for k in tokens]
        return taken, time.perf_counter() - begin

    children: list[Child] = []
    # in one process, this process takes the one claim, with no pipe
    with contextlib.nullcontext(range(1)) if processes == 1 else Claims(len(claims)) as tokens:
        try:
            for _ in range(min(processes, len(claims)) - 1):
                children.append(Child(what, lambda send: send(take(tokens))))
            if beside is not None:
                beside()
            parts = [take(tokens), *(child.receive() for child in children)]
        except BaseException:
            for child in children:
                child.kill()
            raise
        finally:
            for child in children:
                child.close()
    results = [None] * len(claims)
    for taken, _ in parts:
        for k, result in taken:
            results[k] = result
    return results, [(len(taken), seconds) for taken, seconds in parts]
