"""Chaos suite for the fault-tolerant job farm (:mod:`repro.farm`).

Every injected failure mode — crash, hang, wedge, poison, corrupt cache
entry — must end in one of exactly two terminal states: the job
completes with a payload byte-identical to a direct in-process run, or
it is quarantined with its full failure record.  No silent loss, no
hung farm, no leaked worker processes (the conftest leak fixture
asserts the latter after every test).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.farm import (
    CallableJob,
    ChaosJob,
    FarmJobError,
    FarmSupervisor,
    JobQueue,
    ResultCache,
    SimulateJob,
    canonical_key,
    farm_map,
    payload_digest,
    run_smoke,
)
from repro.farm import jobs
from repro.farm.jobs import FailureRecord, JobState
from repro.faults.policy import RetryPolicy
from repro.platform.logs import TelemetryCounters

pytestmark = [pytest.mark.farm_smoke, pytest.mark.timeout(120)]

#: fast-retry policy so chaos tests never sleep for real backoff.
FAST = RetryPolicy(max_retries=2, base_delay=0.01, max_delay=0.05)

SMALL = SimulateJob(width=3, height=3, cycles=50, load=0.10, seed=0xBEEF)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom({x})")


def _process_name(x):
    import multiprocessing

    return multiprocessing.current_process().name


# ---------------------------------------------------------------------------
# content addressing
# ---------------------------------------------------------------------------

class TestCanonicalKeys:
    def test_key_is_stable_and_field_sensitive(self):
        assert canonical_key(SMALL) == canonical_key(
            SimulateJob(width=3, height=3, cycles=50, load=0.10, seed=0xBEEF)
        )
        assert canonical_key(SMALL) != canonical_key(
            SimulateJob(width=3, height=3, cycles=50, load=0.10, seed=0xBEE0)
        )
        assert canonical_key(SMALL) != canonical_key(
            SimulateJob(width=3, height=3, cycles=51, load=0.10, seed=0xBEEF)
        )

    def test_callable_key_covers_the_item(self):
        a = CallableJob.from_callable(_square, 3)
        b = CallableJob.from_callable(_square, 4)
        assert canonical_key(a) != canonical_key(b)
        assert canonical_key(a) == canonical_key(CallableJob.from_callable(_square, 3))

    def test_lambdas_are_rejected(self):
        with pytest.raises(FarmJobError):
            CallableJob.from_callable(lambda x: x, 1)

    def test_payload_digest_json_and_fallback(self):
        assert payload_digest({"a": 1}) == payload_digest({"a": 1})
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})
        # non-JSON payloads fall back to pickle, still deterministic
        assert payload_digest({1, 2, 3}) == payload_digest({1, 2, 3})


# ---------------------------------------------------------------------------
# retry policy + queue
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_budget_counts_retries_not_attempts(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.allows(1) and policy.allows(2)
        assert not policy.allows(3)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, factor=2.0, max_delay=1.0, jitter=0.25)
        for attempt in (1, 2, 3, 8):
            d1 = policy.delay(attempt, token="job-x")
            d2 = policy.delay(attempt, token="job-x")
            assert d1 == d2
            raw = min(1.0, 0.1 * 2.0 ** (attempt - 1))
            assert raw * 0.75 <= d1 <= raw * 1.25
        # different tokens de-synchronise
        assert policy.delay(1, token="a") != policy.delay(1, token="b")

    def test_queue_backoff_gate_and_quarantine(self):
        queue = JobQueue(RetryPolicy(max_retries=1, base_delay=10.0, jitter=0.0))
        state = JobState(spec=SMALL, key="k")
        queue.add(state)
        assert queue.next_ready(now=0.0) is state
        verdict = queue.fail(state, FailureRecord("exception", "x", 1), now=100.0)
        assert verdict == "retry"
        assert queue.next_ready(now=100.0) is None  # backoff gate holds
        assert queue.next_ready(now=200.0) is state
        verdict = queue.fail(state, FailureRecord("exception", "y", 2), now=200.0)
        assert verdict == "quarantine"
        assert state.attempts == 2
        assert [f.detail for f in state.failures] == ["x", "y"]


# ---------------------------------------------------------------------------
# the executors themselves
# ---------------------------------------------------------------------------

class TestExecutors:
    def test_run_simulate_matches_a_direct_driver_run(self):
        from repro.engines import make_engine
        from repro.noc import NetworkConfig, RouterConfig
        from repro.stats import PacketLatencyTracker
        from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

        payload = jobs.run_simulate(SMALL)

        net = NetworkConfig(3, 3, router=RouterConfig(queue_depth=4))
        engine = make_engine("sequential", net)
        be = BernoulliBeTraffic(net, 0.10, uniform_random(net), seed=0xBEEF)
        driver = TrafficDriver(engine, be=be)
        tracker = PacketLatencyTracker(net)
        driver.attach_tracker(tracker)
        driver.run(50)
        driver.be = None
        driver.drain()
        tracker.collect(engine)

        assert payload["flits_injected"] == len(engine.injections)
        assert payload["flits_ejected"] == len(engine.ejections)
        assert payload["packets"] == tracker.stats().count

    def test_execution_is_bit_identical_across_runs(self):
        assert jobs.execute(SMALL) == jobs.execute(SMALL)

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        spec = SimulateJob(
            width=3, height=3, cycles=60, load=0.10, seed=0x5EED,
            checkpoint_every=20,
        )
        reference = jobs.run_simulate(spec)  # fresh, uninterrupted

        scratch = str(tmp_path)
        # die mid-run like a killed worker: a checkpoint at cycle 40
        # exists, the job never finished
        with pytest.raises(FarmJobError):
            jobs.run_simulate(spec, scratch=scratch, abort_at_cycle=45)
        assert os.path.exists(os.path.join(scratch, f"{canonical_key(spec)}.ckpt"))

        resumed = jobs.run_simulate(spec, scratch=scratch)
        assert resumed == reference
        # the checkpoint is consumed on success
        assert not os.path.exists(os.path.join(scratch, f"{canonical_key(spec)}.ckpt"))

    def test_corrupt_checkpoint_means_start_over(self, tmp_path):
        spec = SimulateJob(
            width=3, height=3, cycles=40, load=0.10, seed=0x5EED,
            checkpoint_every=10,
        )
        reference = jobs.run_simulate(spec)
        path = tmp_path / f"{canonical_key(spec)}.ckpt"
        path.write_bytes(b"not a pickle")
        assert jobs.run_simulate(spec, scratch=str(tmp_path)) == reference
        corpses = [p for p in os.listdir(tmp_path) if ".corrupt-" in p]
        assert len(corpses) == 1


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("ab" * 32) is None
        assert cache.put("ab" * 32, {"x": 1}, spec=SMALL)
        assert cache.get("ab" * 32) == {"x": 1}
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_atomic_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("cd" * 32, {"y": 2})
        strays = [
            name
            for _, _, names in os.walk(tmp_path)
            for name in names
            if ".tmp." in name
        ]
        assert strays == []

    @pytest.mark.parametrize(
        "damage",
        [
            b"",  # empty file (torn create)
            b'{"key": "truncat',  # truncated write
            b"\x00\xff garbage",  # not JSON at all
            b"[1, 2, 3]\n",  # JSON but not an entry object
        ],
    )
    def test_corrupt_entries_are_evicted_never_served(self, tmp_path, damage):
        cache = ResultCache(str(tmp_path))
        key = "ef" * 32
        cache.put(key, {"z": 3})
        with open(cache.path_for(key), "wb") as stream:
            stream.write(damage)
        assert cache.get(key) is None
        corpses = [
            name
            for _, _, names in os.walk(tmp_path)
            for name in names
            if ".corrupt-" in name
        ]
        assert len(corpses) == 1  # evidence preserved
        # the slot is free again: a rebuild works
        assert cache.put(key, {"z": 3})
        assert cache.get(key) == {"z": 3}

    def test_payload_tampering_is_detected_by_digest(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "09" * 32
        cache.put(key, {"latency": 10})
        path = cache.path_for(key)
        with open(path) as stream:
            entry = json.load(stream)
        entry["payload"]["latency"] = 7  # flip a result bit, keep valid JSON
        with open(path, "w") as stream:
            json.dump(entry, stream)
        assert cache.get(key) is None
        assert cache.evictions == 1

    def test_unserializable_payloads_are_refused(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert not cache.put("aa" * 32, {"bad": object()})
        assert cache.stats()["entries"] == 0

    def test_verify_sweeps_corrupt_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("11" * 32, {"a": 1})
        cache.put("22" * 32, {"b": 2})
        with open(cache.path_for("22" * 32), "w") as stream:
            stream.write("garbage")
        report = cache.verify()
        assert report == {"checked": 2, "evicted": 1}
        assert cache.entries() == ["11" * 32]


# ---------------------------------------------------------------------------
# the supervisor under chaos
# ---------------------------------------------------------------------------

class TestSupervisor:
    def test_jobs_complete_and_repeat_hits_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with FarmSupervisor(workers=2, cache=cache, policy=FAST) as farm:
            first = farm.submit([SMALL])
            assert first.ok and first.completed[0].payload == jobs.execute(SMALL)
            dispatches = farm.telemetry.get("dispatches")
            again = farm.submit([SMALL])
            assert again.completed[0].from_cache
            assert again.completed[0].payload == first.completed[0].payload
            assert farm.telemetry.get("dispatches") == dispatches

    def test_duplicate_specs_in_one_batch_run_once(self, tmp_path):
        with FarmSupervisor(workers=2, policy=FAST) as farm:
            report = farm.submit([SMALL, SMALL, SMALL])
            assert len(report.order) == 3
            assert len(report.completed) == 1
            assert farm.telemetry.get("duplicates_coalesced") == 2
            assert len(report.payloads()) == 3
            assert report.payloads()[0] == report.payloads()[2]

    def test_crashed_worker_is_replaced_and_the_job_retried(self, tmp_path):
        with FarmSupervisor(workers=2, policy=FAST, job_timeout=30.0,
                            scratch=str(tmp_path)) as farm:
            spec = ChaosJob(mode="crash-once", token="c1", scratch=str(tmp_path))
            report = farm.submit([spec])
            if farm.mode != "processes":
                pytest.skip("no process spawning in this environment")
            outcome = report.completed[0]
            assert outcome.payload == {"ok": True, "token": "c1", "recovered": True}
            assert outcome.attempts == 2
            assert [f.kind for f in outcome.failures] == ["worker-died"]
            assert farm.telemetry.get("workers_replaced") >= 1

    def test_hung_job_times_out_is_killed_and_quarantined(self, tmp_path):
        with FarmSupervisor(workers=1, policy=RetryPolicy(max_retries=1,
                                                          base_delay=0.01),
                            job_timeout=0.8, scratch=str(tmp_path)) as farm:
            report = farm.submit([ChaosJob(mode="hang", token="h1", seconds=600)])
            if farm.mode != "processes":
                pytest.skip("no process spawning in this environment")
            outcome = report.quarantined[0]
            assert [f.kind for f in outcome.failures] == ["timeout", "timeout"]
            assert farm.telemetry.get("timeouts") == 2
            # the farm survives: a following job completes normally
            ok = farm.submit([ChaosJob(mode="ok", token="after")])
            assert ok.completed and ok.completed[0].payload["ok"]

    def test_wedged_worker_is_detected_by_heartbeat(self, tmp_path):
        with FarmSupervisor(workers=1, policy=RetryPolicy(max_retries=0),
                            job_timeout=300.0, heartbeat_interval=0.1,
                            heartbeat_timeout=1.0, scratch=str(tmp_path)) as farm:
            report = farm.submit([ChaosJob(mode="wedge", token="w1", seconds=600)])
            if farm.mode != "processes":
                pytest.skip("no process spawning in this environment")
            outcome = report.quarantined[0]
            assert [f.kind for f in outcome.failures] == ["heartbeat"]
            assert farm.telemetry.get("heartbeat_losses") == 1

    def test_poison_job_quarantined_with_full_history(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        with FarmSupervisor(workers=2, cache=cache, policy=FAST,
                            scratch=str(tmp_path)) as farm:
            report = farm.submit([ChaosJob(mode="fail", token="p1")])
            outcome = report.quarantined[0]
            # 1 attempt + max_retries retries, every one recorded
            assert len(outcome.failures) == FAST.max_retries + 1
            assert all(f.kind == "exception" for f in outcome.failures)
            assert [f.attempt for f in outcome.failures] == [1, 2, 3]
        records = cache.quarantined_jobs()
        assert len(records) == 1
        assert len(records[0]["failures"]) == FAST.max_retries + 1
        assert not report.ok

    def test_inline_fallback_when_processes_unavailable(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            FarmSupervisor,
            "_spawn",
            lambda self: (_ for _ in ()).throw(OSError("no processes here")),
        )
        cache = ResultCache(str(tmp_path))
        with FarmSupervisor(workers=2, cache=cache, policy=FAST) as farm:
            report = farm.submit([SMALL, ChaosJob(mode="fail", token="pf")])
            assert farm.mode == "inline"
            assert report.completed[0].payload == jobs.execute(SMALL)
            assert len(report.quarantined) == 1
            assert farm.telemetry.get("inline_fallbacks") == 1

    def test_cache_only_mode_serves_hits_reports_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(canonical_key(SMALL), jobs.execute(SMALL), spec=SMALL)
        other = SimulateJob(width=3, height=3, cycles=30, load=0.05, seed=0x0DD)
        with FarmSupervisor(workers=0, cache=cache) as farm:
            report = farm.submit([SMALL, other])
            assert farm.mode == "cache-only"
            assert report.completed[0].from_cache
            assert report.unavailable[0].spec is other
            assert not report.ok

    def test_chaos_batch_no_silent_loss(self, tmp_path):
        """The acceptance sweep: good, flaky and poison jobs in one
        batch — every job ends completed-byte-identical or quarantined
        with records."""
        cache = ResultCache(str(tmp_path / "cache"))
        scratch = str(tmp_path)
        specs = [
            SMALL,
            ChaosJob(mode="flaky", token="fx", scratch=scratch),
            ChaosJob(mode="fail", token="px"),
            ChaosJob(mode="ok", token="okx"),
        ]
        with FarmSupervisor(workers=2, cache=cache, policy=FAST,
                            job_timeout=30.0, scratch=scratch) as farm:
            report = farm.submit(specs)
        assert len(report.completed) + len(report.quarantined) == len(specs)
        by_key = report.outcomes
        assert by_key[canonical_key(SMALL)].payload == jobs.execute(SMALL)
        assert by_key[canonical_key(specs[1])].payload["recovered"]
        assert by_key[canonical_key(specs[2])].status == "quarantined"
        assert by_key[canonical_key(specs[2])].failures


# ---------------------------------------------------------------------------
# client layer + sweep integration
# ---------------------------------------------------------------------------

class TestClient:
    def test_farm_map_matches_serial_map(self):
        items = list(range(8))
        assert farm_map(_square, items, workers=2, policy=FAST) == [
            _square(x) for x in items
        ]

    def test_farm_map_raises_on_poison_points(self):
        with pytest.raises(FarmJobError) as info:
            farm_map(_boom, [1], workers=1,
                     policy=RetryPolicy(max_retries=0, base_delay=0.0))
        assert info.value.failures
        assert "boom(1)" in info.value.failures[-1].detail

    def test_parallel_map_routes_through_the_farm(self):
        from repro.experiments.parallel import parallel_map

        items = list(range(6))
        assert parallel_map(_square, items, workers=2) == [x * x for x in items]
        names = set(parallel_map(_process_name, items, workers=2))
        if names == {"MainProcess"}:
            pytest.skip("no process spawning in this environment")
        assert all(name.startswith("repro-farm-") for name in names)

    def test_run_smoke_self_check_passes(self):
        lines = []
        assert run_smoke(out=lines.append)
        assert any("PASS" in line for line in lines)
        assert not any("FAIL " in line for line in lines)


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------

class TestTelemetry:
    def test_counters_scope_and_snapshot(self):
        counters = TelemetryCounters()
        counters.incr("retries")
        counters.incr("retries", 2)
        counters.incr("dispatches", scope="worker[1]")
        assert counters.get("retries") == 3
        assert counters.get("dispatches", scope="worker[1]") == 1
        assert counters.get("dispatches") == 0
        snap = counters.snapshot()
        assert snap[""]["retries"] == 3
        assert snap["worker[1]"]["dispatches"] == 1
        assert "worker[1]" in counters.render()
