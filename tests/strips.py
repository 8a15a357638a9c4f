"""Strip settings for the tests of the strip-parallel passes in coopcap.channel."""

import contextlib

import pytest

import coopcap.channel as chmod

# strip sizes in matrix entries that hypothesis tests draw: the default, a
# single row (or the alignment) per strip, and strips of several rows
STRIP_BITS = (None, 1, 100, 1000)


@contextlib.contextmanager
def many_strips(strip_bits=100, workers=3):
    """Run the whole-matrix passes in small strips on a few threads; None
    keeps the default strip size."""
    with pytest.MonkeyPatch.context() as mp:
        if strip_bits is not None:
            mp.setattr(chmod, "_STRIP_BITS", strip_bits)
        mp.setattr(chmod, "_WORKERS", workers)
        yield
