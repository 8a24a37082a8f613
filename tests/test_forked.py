import os
import pickle
import re
import signal
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from rpje import forked

from conftest import assert_no_child

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


def test_share_whose_result_does_not_pickle():
    """A child's result that does not pickle fails the run with the exception
    pickling it raised, with its type and message, as if raised here. The
    message was pickled whole before any of it was written, so no part of it
    was unpickled here. No child and no pipe are left."""
    with pytest.raises(Exception) as raised:
        pickle.dumps(unpicklable(1), protocol=5)
    descriptors = sorted(os.listdir("/dev/fd"))
    with pytest.raises(type(raised.value), match=f"^{re.escape(str(raised.value))}$"):
        forked.run_shares("unpicklable", unpicklable, [0, 1])
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
        forked.run_shares("half", lambda share: np.arange(1 << 16) + share, [0, 1])
    assert_no_child()
    assert sorted(os.listdir("/dev/fd")) == descriptors


# The standard library's process package, which ``forked`` does without. The
# name is split so that a grep of src/ and tests/ for it finds uses only.
PROCESS_PACKAGE = "multi" "processing"


def test_cli_and_a_split_import_no_process_package():
    """A fresh interpreter that imports ``rpje.cli`` and runs one two-share
    ``forked.run_shares`` has not imported ``PROCESS_PACKAGE``."""
    script = ("import sys, rpje.cli\n"
              "from rpje import forked\n"
              "assert forked.run_shares('squares', lambda k: k * k, [2, 3]) == [4, 9]\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == sys.argv[1]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", script, PROCESS_PACKAGE], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
