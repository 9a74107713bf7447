"""The oracle battery of ``test_latency_columns``, held against the
tracker's NumPy body: the same tests, imported, under
``REPRO_KERNELS=numpy`` (the battery's own fixture reads ``BODY``)."""

from tests.test_latency_columns import *  # noqa: F401,F403 - the battery

BODY = "numpy"
