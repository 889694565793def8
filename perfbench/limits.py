"""Per-operation time limits on the main thread, by SIGALRM."""

from __future__ import annotations

import contextlib
import signal


class OpTimeout(BaseException):
    """An operation overran its limit.  Derived from BaseException so that no
    ``except Exception`` inside the library can swallow it."""


def _expire(signum, frame):
    raise OpTimeout()


@contextlib.contextmanager
def time_limit(seconds: float):
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
