"""The tracemalloc peak of one call, shared by the tests that pin peak memory."""

from __future__ import annotations

import tracemalloc


def traced_peak(call, *args, **kwargs):
    """``call``'s result and the peak bytes it allocated and held at once."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
