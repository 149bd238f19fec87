"""Serial map helpers.

Every fit and prediction in gpcalib runs serially; no library code calls
these.  They remain because the benchmark (``bench/run.py``,
``bench/record.py`` and ``bench/tracing.py``) imports them.
"""

from __future__ import annotations


def worker_count() -> int:
    return 1


def thread_map(fn, items):
    """Map ``fn`` over ``items`` in order."""
    return [fn(it) for it in items]
