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

``run_shares`` runs several jobs of independent work, the first in the
calling process and each other in a child, and returns their results in
order; the PCRA walk (``paths.extract_paths``) and entity ranking
(``evaluation.rank_entities``) split through it, and ``train``'s span planner
(``training.SpanPlanner``) is a child too. Every child is waited for and every
pipe closed before it returns or raises, a fork that fails included. Entity
ranking's jobs share their work through ``Claims``, one token per block in a
pipe: each process claims blocks until none is left, the calling process
once ``evaluate``'s path side, which it runs first, is done.

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
from collections.abc import Callable, Sequence


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


def run_shares(what: str, jobs: Sequence[Callable[[], object]]) -> list:
    """The result of each of ``jobs``, in order: the first run here, each other
    in a ``Child`` that sends its result back as one message. An exception a
    child sent is raised here; a child that ends without its message gives a
    one-line ``RuntimeError`` naming ``what``. Every child is waited for before
    this returns or raises; on a failure, killed first."""
    children: list[Child] = []
    try:
        for job in jobs[1:]:
            children.append(Child(what, lambda send, job=job: send(job())))
        return [jobs[0](), *(child.receive() for child in children)]
    except BaseException:
        for child in children:
            child.kill()
        raise
    finally:
        for child in children:
            child.close()
