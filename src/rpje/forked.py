"""Forked child processes that report to their parent through one pipe
(POSIX ``fork`` only).

A child inherits its job from the fork and sends its results as pickled
messages. It first closes the parent's ends of its pipes, so a parent that
closes its own ends leaves the child nothing to block on. Any exception, a
closed pipe's included, is sent in place of a message (if it can be) and ends
it. It leaves through ``os._exit``, past multiprocessing's exit path, so it
flushes no stdio, runs no exit hook and prints no traceback: the message is
its one report. ``loads`` reads a message on the parent's side and raises an
exception the child sent, with its type and message.

``run_shares`` runs one job over several shares of independent work, the
first in the calling process and each other in a child, and returns the
results in share order; the PCRA walk (``paths.extract_paths``) and entity
ranking (``evaluation.rank_entities``) split through it. Every child is
joined and every pipe closed before it returns or raises.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
from collections.abc import Callable, Sequence

FORK = multiprocessing.get_context("fork")


def cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without the call
        return os.cpu_count() or 1


def run_shares(what: str, job: Callable[[object], object], shares: Sequence) -> list:
    """``job(share)`` of each of ``shares``, in share order: the first here, each
    other in a forked child (``rpje-`` and ``what``, hyphenated) that sends its
    result back as one message. An exception a child sent is raised here; a
    child that ends without its message gives a one-line ``RuntimeError``
    naming ``what``. Every child is joined before this returns or raises; on a
    failure, killed first."""
    inboxes, processes = [], []
    try:
        for share in shares[1:]:
            inbox, outbox = FORK.Pipe(duplex=False)
            inboxes.append(inbox)
            send = functools.partial(_send, job, share, outbox)
            processes.append(start(f"rpje-{what.replace(' ', '-')}", send, outbox, inboxes))
        results = [job(shares[0])]
        for process, inbox in zip(processes, inboxes):
            try:
                results.append(loads(inbox.recv_bytes()))
            except EOFError:
                process.join()
                raise RuntimeError(
                    f"{what}: a child process ended without its share (exit code {process.exitcode})"
                ) from None
        return results
    except BaseException:
        for process in processes:
            process.kill()
        raise
    finally:
        for inbox in inboxes:
            inbox.close()
        for process in processes:
            process.join()
            process.close()


def _send(job, share, outbox) -> None:
    outbox.send_bytes(dumps(job(share)))


def start(name: str, job: Callable[[], object], outbox, parent_ends):
    """A started child that runs ``job()`` and ends; it first closes
    ``parent_ends``. The parent's copy of ``outbox``, the child's end, is closed."""
    process = FORK.Process(target=_run, args=(job, outbox, parent_ends), name=name)
    try:
        process.start()
    finally:
        outbox.close()
    return process


def _run(job, outbox, parent_ends) -> None:
    code = 0
    try:
        for end in parent_ends:
            end.close()
        job()
    except BaseException as exc:  # the process ends here either way
        code = 1
        try:
            outbox.send_bytes(dumps(exc))
        except BaseException:
            pass  # the parent has closed its end, or the exception does not pickle
    finally:
        os._exit(code)


def dumps(message) -> bytes:
    return pickle.dumps(message, protocol=5)


def loads(message: bytes):
    """The object a child sent; an exception it sent is raised here."""
    message = pickle.loads(message)
    if isinstance(message, BaseException):
        raise message
    return message
