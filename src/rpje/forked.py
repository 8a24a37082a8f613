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
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from collections.abc import Callable

FORK = multiprocessing.get_context("fork")


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
