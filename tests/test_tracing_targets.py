"""The traced benchmark run wraps rpje functions by name; a rename must not
silently drop one of its per-layer metrics."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

from tracing import Tracer  # noqa: E402


def test_tracer_resolves_every_target():
    with Tracer().installed() as tracer:
        assert tracer.missing == []
