"""Traced-memory measurement shared by the memory tests."""

from __future__ import annotations

import tracemalloc


def peak_traced_bytes(fn) -> tuple[int, int]:
    """Run fn() under tracemalloc and return (peak, held): the most bytes
    traced at once during the call, and the bytes still traced when it
    returns, its result still alive. Only allocations made inside the
    call count."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak, held
