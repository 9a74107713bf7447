"""The oracle battery of ``test_latency_columns``, held against the
tracker's NumPy body: the same tests, imported, on a host without a C
compiler (the battery's own fixture reads ``BODY`` and applies
``no_cc``)."""

from tests.test_latency_columns import *  # noqa: F401,F403 - the battery

BODY = "numpy"
