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

``run_shares`` runs one job over several shares of independent work, the
first in the calling process and each other in a child, and returns the
results in share order; the PCRA walk (``paths.extract_paths``) and entity
ranking (``evaluation.rank_entities``) split through it, and ``train``'s span
planner (``training.SpanPlanner``) is a child too. Every child is waited for
and every pipe closed before it returns or raises.
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


class Child:
    """A forked child that runs ``job(send)`` and ends, where ``send(message)``
    writes one message to ``inbox``, the parent's read end of its pipe. It first
    closes ``parent_ends``, descriptors of the parent's that it must not hold.
    ``what`` names the work in the parent's errors."""

    def __init__(self, what: str, job: Callable[[Callable[[object], None]], object],
                 parent_ends: Sequence[int] = ()):
        self.what, self.code = what, None  # the exit code, once waited for
        read, write = os.pipe()
        self.inbox = open(read, "rb")
        with open(write, "wb") as outbox:  # the child's end, closed here once forked
            self.pid = os.fork()
            if self.pid == 0:
                _run(job, read, outbox, parent_ends)

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
        self.inbox.close()
        self.wait()


def _run(job, read, outbox, parent_ends) -> None:
    code = 0
    try:
        for end in (read, *parent_ends):
            os.close(end)
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


def run_shares(what: str, job: Callable[[object], object], shares: Sequence) -> list:
    """``job(share)`` of each of ``shares``, in share order: the first here, each
    other in a ``Child`` that sends its result back as one message. An exception
    a child sent is raised here; a child that ends without its message gives a
    one-line ``RuntimeError`` naming ``what``. Every child is waited for before
    this returns or raises; on a failure, killed first."""
    children: list[Child] = []
    try:
        for share in shares[1:]:
            children.append(Child(what, lambda send, share=share: send(job(share)),
                                  [child.inbox.fileno() for child in children]))
        return [job(shares[0]), *(child.receive() for child in children)]
    except BaseException:
        for child in children:
            child.kill()
        raise
    finally:
        for child in children:
            child.close()
