import contextlib
import tracemalloc

import hypothesis
import pytest

# one deterministic suite: examples derive from the test body, not a clock
hypothesis.settings.register_profile(
    "odlc", hypothesis.settings(derandomize=True, deadline=None, max_examples=40))
hypothesis.settings.load_profile("odlc")


class Traced:
    """Bytes allocated since tracing started, as tracemalloc counts them:
    ``held`` now and ``peak`` since the start or the last ``reset_peak``.
    Both keep their last values once tracing stops."""

    def __init__(self):
        self.base = tracemalloc.get_traced_memory()[0]
        self._final = None

    def _now(self) -> tuple:
        if self._final is not None:
            return self._final
        return tuple(v - self.base for v in tracemalloc.get_traced_memory())

    @property
    def held(self) -> int:
        return self._now()[0]

    @property
    def peak(self) -> int:
        return self._now()[1]

    def reset_peak(self):
        tracemalloc.reset_peak()


@contextlib.contextmanager
def _traced():
    tracemalloc.start()
    t = Traced()
    try:
        yield t
    finally:
        t._final = t._now()
        tracemalloc.stop()


@pytest.fixture(scope="session")
def traced():
    """``with traced() as t:`` traces the block's allocations into ``t``."""
    return _traced
