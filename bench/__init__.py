"""The repo benchmark: host time of the simulator on five workloads.

``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` is the
contract command (see ``BENCHMARK.json``); ``python3 -m bench run`` is the
all-workloads run people use, ``check`` the golden-reference replay and
``compare`` the A/B verdict.  See ``bench/README.md``.
"""
