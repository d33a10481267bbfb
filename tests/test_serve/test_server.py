"""Service lifecycle tests over real sockets.

Each test runs a private :class:`SimulationServer` in a background
thread (ephemeral port, in-thread executor, isolated cache) and talks
to it through the blocking :class:`ServeClient` — the same transport
production clients use. Timing-sensitive scenarios (coalescing while
in flight, graceful drain) gate the executing job on a
``threading.Event`` via a monkeypatched ``execute_spec`` instead of
sleeping, so the tests are deterministic.
"""

import json
import threading
import time

import pytest

from repro.perf.cache import ResultCache, code_version
from repro.perf.specs import RunSpec, execute_spec
from repro.serve import server as server_module
from repro.serve.client import RateLimited, ServeError
from repro.serve.protocol import DONE, QUEUED, result_digest, spec_to_wire
from repro.serve.server import ServeConfig
from repro.serve.store import JobStore
from repro.serve.testing import ServerThread


def spec(stride: int = 2, lines: int = 8, variant: str = "scalar") -> RunSpec:
    return RunSpec(
        kind="patternscan",
        params={"variant": variant, "stride": stride, "lines": lines},
        mode="fast",
    )


def config(tmp_path=None, **overrides) -> ServeConfig:
    settings = {
        "port": 0,
        "executor": "thread",
        "workers": 2,
        "state_dir": str(tmp_path / "state") if tmp_path else None,
        "request_log": False,
        "drain_deadline": 10.0,
    }
    settings.update(overrides)
    return ServeConfig(**settings)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestHappyPath:
    def test_submit_poll_result(self, tmp_path, cache):
        with ServerThread(config(tmp_path), cache=cache) as handle:
            client = handle.client()
            response = client.submit(spec(), wait=False)
            job_id = response["job"]["job_id"]
            job = client.wait(job_id, timeout=30.0)
            assert job["state"] == DONE
            record = client.result(job_id)
            assert record.verified
            assert job["digest"] == result_digest(execute_spec(spec()))

    def test_wait_submission_carries_result(self, tmp_path, cache):
        with ServerThread(config(tmp_path), cache=cache) as handle:
            response = handle.client().submit(spec(4), wait=True, timeout=30.0)
            assert response["job"]["state"] == DONE
            assert "result" in response
            assert response["result"]["digest"] == response["job"]["digest"]

    def test_healthz_handshake_reports_version(self, tmp_path, cache):
        with ServerThread(config(tmp_path), cache=cache) as handle:
            client = handle.client()
            body = client.handshake()
            assert body["status"] == "ok"
            assert body["version"] == code_version()
            assert body["skew"] is None
            assert client.server_version == code_version()

    def test_metrics_endpoint_serves_registry_snapshot(self, tmp_path, cache):
        with ServerThread(config(tmp_path), cache=cache) as handle:
            client = handle.client()
            client.submit(spec(), wait=True, timeout=30.0)
            snapshot = client.metrics()
            assert snapshot["counters"]["serve.queue"]["completed"] == 1
            assert snapshot["counters"]["serve.http"]["requests"] >= 1
            assert "serve.queue.wait_ms" in snapshot["histograms"]

    def test_unknown_routes_and_jobs_404(self, tmp_path, cache):
        with ServerThread(config(tmp_path), cache=cache) as handle:
            client = handle.client()
            with pytest.raises(ServeError) as error:
                client.status("j-nonexistent")
            assert error.value.status == 404
            with pytest.raises(ServeError):
                client._request("GET", "/nope")

    def test_workload_error_surfaces_as_failed_job(self, tmp_path, cache):
        bad = RunSpec(kind="htap", layout="Row Store", mode="fast")  # no fast path
        with ServerThread(config(tmp_path), cache=cache) as handle:
            response = handle.client().submit(bad, wait=True, timeout=30.0)
            job = response["job"]
            assert job["state"] == "failed"
            assert "no fast path" in job["error"]
            with pytest.raises(ServeError, match="not done"):
                handle.client().result(job["job_id"])


class TestCoalescing:
    def test_concurrent_identical_submissions_run_once(
        self, tmp_path, cache, monkeypatch
    ):
        release = threading.Event()
        executions = []
        real = execute_spec

        def gated(run_spec):
            executions.append(run_spec)
            assert release.wait(30.0)
            return real(run_spec)

        monkeypatch.setattr(server_module, "execute_spec", gated)
        with ServerThread(config(tmp_path), cache=cache) as handle:
            client = handle.client()
            first = client.submit(spec(), wait=False)
            assert not first["coalesced"]
            job_id = first["job"]["job_id"]
            # While the execution is gated, N identical submissions
            # (even from other clients) attach to the same job.
            others = [
                handle.client(client_id=f"c{index}").submit(spec(), wait=False)
                for index in range(4)
            ]
            assert all(resp["coalesced"] for resp in others)
            assert all(resp["job"]["job_id"] == job_id for resp in others)
            release.set()
            job = client.wait(job_id, timeout=30.0)
            assert job["state"] == DONE
            assert job["attached"] == 4
            assert len(executions) == 1  # the pool ran exactly once
            counters = client.metrics()["counters"]["serve.queue"]
            assert counters["executed"] == 1
            assert counters["coalesced"] == 4
            assert counters.get("cache_hits", 0) == 0

    def test_repeat_after_completion_is_cache_hit_not_rerun(
        self, tmp_path, cache
    ):
        with ServerThread(config(tmp_path), cache=cache) as handle:
            client = handle.client()
            first = client.submit(spec(), wait=True, timeout=30.0)
            second = client.submit(spec(), wait=True, timeout=30.0)
            assert second["job"]["job_id"] != first["job"]["job_id"]
            assert second["job"]["cached"]
            assert second["job"]["digest"] == first["job"]["digest"]
            counters = client.metrics()["counters"]["serve.queue"]
            assert counters["executed"] == 1
            assert counters["cache_hits"] == 1


class TestAdmissionOverHTTP:
    def test_rate_limit_rejects_with_retry_after(self, tmp_path, cache):
        cfg = config(tmp_path, rate=0.5, burst=1)
        with ServerThread(cfg, cache=cache) as handle:
            client = handle.client(client_id="ratelimited")
            client.submit(spec(), wait=True, timeout=30.0)
            with pytest.raises(RateLimited) as denied:
                client.submit(spec(4), wait=False)
            assert denied.value.status == 429
            assert denied.value.retry_after is not None
            assert denied.value.retry_after > 0
            # Distinct clients have distinct buckets.
            handle.client(client_id="fresh").submit(spec(4), wait=False)

    def test_inflight_cap_rejects_new_specs(
        self, tmp_path, cache, monkeypatch
    ):
        release = threading.Event()
        real = execute_spec

        def gated(run_spec):
            assert release.wait(30.0)
            return real(run_spec)

        monkeypatch.setattr(server_module, "execute_spec", gated)
        cfg = config(tmp_path, max_inflight=2, workers=1)
        with ServerThread(cfg, cache=cache) as handle:
            client = handle.client(client_id="greedy")
            client.submit(spec(2), wait=False)
            client.submit(spec(4), wait=False)
            with pytest.raises(RateLimited) as denied:
                client.submit(spec(8), wait=False)
            assert denied.value.code == "too-many-inflight"
            release.set()


class TestGracefulShutdown:
    def test_drain_finishes_open_jobs(self, tmp_path, cache, monkeypatch):
        release = threading.Event()
        real = execute_spec

        def gated(run_spec):
            assert release.wait(30.0)
            return real(run_spec)

        monkeypatch.setattr(server_module, "execute_spec", gated)
        handle = ServerThread(config(tmp_path), cache=cache).start()
        client = handle.client()
        job_id = client.submit(spec(), wait=False)["job"]["job_id"]
        # Release the gate shortly after the drain begins.
        threading.Timer(0.3, release.set).start()
        handle.stop(drain=True)  # blocks until drained + stopped
        # The job finished (drained), not cancelled.
        assert handle.server.queue.get(job_id).state == DONE

    def test_draining_server_rejects_new_submissions(
        self, tmp_path, cache, monkeypatch
    ):
        release = threading.Event()
        real = execute_spec

        def gated(run_spec):
            assert release.wait(30.0)
            return real(run_spec)

        monkeypatch.setattr(server_module, "execute_spec", gated)
        handle = ServerThread(config(tmp_path), cache=cache).start()
        client = handle.client()
        client.submit(spec(), wait=False)
        client.shutdown(drain=True)  # async: server starts draining
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                if client.health()["status"] == "draining":
                    break
            except ServeError:
                break
            time.sleep(0.02)
        with pytest.raises(ServeError) as denied:
            client.submit(spec(4), wait=False)
        assert denied.value.status == 503
        release.set()
        handle.stop()

    def test_drain_deadline_cancels_stuck_queued_jobs(
        self, tmp_path, cache, monkeypatch
    ):
        release = threading.Event()
        real = execute_spec

        def gated(run_spec):
            assert release.wait(30.0)
            return real(run_spec)

        monkeypatch.setattr(server_module, "execute_spec", gated)
        cfg = config(tmp_path, workers=1, drain_deadline=0.2)
        handle = ServerThread(cfg, cache=cache).start()
        client = handle.client()
        running = client.submit(spec(2), wait=False)["job"]["job_id"]
        queued = client.submit(spec(4), wait=False)["job"]["job_id"]
        threading.Timer(1.0, release.set).start()
        handle.stop(drain=True)
        queue = handle.server.queue
        assert queue.get(queued).state == "cancelled"
        assert queue.get(running).state in ("done", "failed")


class TestRecovery:
    def test_restarted_server_resumes_journalled_jobs(self, tmp_path, cache):
        state_dir = tmp_path / "state"
        # Simulate a crashed server: a journal with one queued job and
        # no matching terminal entry.
        store = JobStore(state_dir)
        the_spec = spec(stride=4)
        store.append(QUEUED, {
            "job_id": "j-crashed",
            "spec": {
                "kind": the_spec.kind,
                "layout": None,
                "params": dict(the_spec.params),
                "config_overrides": {},
                "seed": None,
                "obs": "off",
                "mode": "fast",
            },
            "client": "before-crash",
            "priority": 0,
            "submitted_at": 1.0,
        })
        # An entry written by an older server that still annotated jobs
        # with a "shard"; appended raw so the key really is on disk.
        sharded_spec = spec(stride=2, lines=16)
        with store.path.open("a", encoding="utf-8") as journal:
            journal.write(json.dumps({
                "schema": 1,
                "ts": 2.0,
                "state": QUEUED,
                "job": {
                    "job_id": "j-sharded",
                    "spec": spec_to_wire(sharded_spec),
                    "client": "before-crash",
                    "priority": 0,
                    "submitted_at": 2.0,
                    "shard": 3,
                },
            }) + "\n")
        with ServerThread(
            config(state_dir=str(state_dir)), cache=cache
        ) as handle:
            client = handle.client()
            job = client.wait("j-crashed", timeout=30.0)
            assert job["state"] == DONE
            assert job["recovered"]
            assert job["digest"] == result_digest(execute_spec(the_spec))
            job = client.wait("j-sharded", timeout=30.0)
            assert job["state"] == DONE
            assert job["recovered"]
            assert "shard" not in job
            assert job["digest"] == result_digest(execute_spec(sharded_spec))

    def test_kill_while_running_restarts_and_reexecutes(
        self, tmp_path, cache, monkeypatch
    ):
        """A server killed with a job *running* leaves it open in the
        journal; a new server over the same journal re-executes it under
        the same job id and serves the correct digest."""
        gate = threading.Event()
        calls = []

        def gated(run_spec):
            calls.append(run_spec)
            assert gate.wait(30.0), "gate never released"
            return execute_spec(run_spec)

        target = spec(lines=24)
        expected = result_digest(execute_spec(target))
        monkeypatch.setattr(server_module, "execute_spec", gated)
        state_dir = tmp_path / "state"
        settings = config(state_dir=str(state_dir), workers=1)

        first = ServerThread(settings, cache=cache).start()
        try:
            client = first.client()
            job_id = client.submit(target, wait=False)["job"]["job_id"]
            deadline = time.monotonic() + 10.0
            while client.status(job_id)["state"] != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            # "running" is marked before the worker picks the job up;
            # kill only once the work is inside the gate, so it cannot
            # be cancelled before it ever executes.
            while not calls:
                assert time.monotonic() < deadline, "job never executed"
                time.sleep(0.01)
        finally:
            first.kill()
        # A crash leaves the journal's open entries in place.
        open_jobs = JobStore(state_dir).recover()
        assert [job["job_id"] for job in open_jobs] == [job_id]

        try:
            with ServerThread(settings, cache=cache) as second:
                gate.set()
                job = second.client().wait(job_id, timeout=30.0)
                assert job["state"] == DONE
                assert job["recovered"] is True
                assert job["cached"] is False
                assert job["digest"] == expected
        finally:
            gate.set()
        assert len(calls) == 2

    def test_recovered_job_with_cached_result_completes_without_rerun(
        self, tmp_path, cache, monkeypatch
    ):
        from repro.perf.specs import cache_key

        the_spec = spec(stride=8)
        record = execute_spec(the_spec)
        cache.put(cache_key(the_spec), record)
        state_dir = tmp_path / "state"
        JobStore(state_dir).append(QUEUED, {
            "job_id": "j-warm",
            "spec": {
                "kind": the_spec.kind,
                "layout": None,
                "params": dict(the_spec.params),
                "config_overrides": {},
                "seed": None,
                "obs": "off",
                "mode": "fast",
            },
            "client": "before-crash",
            "priority": 0,
            "submitted_at": 1.0,
        })

        def must_not_run(run_spec):  # pragma: no cover - failure path
            raise AssertionError("cached recovery must not re-execute")

        monkeypatch.setattr(server_module, "execute_spec", must_not_run)
        with ServerThread(
            config(state_dir=str(state_dir)), cache=cache
        ) as handle:
            job = handle.client().wait("j-warm", timeout=30.0)
            assert job["state"] == DONE
            assert job["cached"]
            assert job["digest"] == result_digest(record)

    def test_recovered_job_age_spans_the_restart(
        self, tmp_path, cache, monkeypatch
    ):
        """age_seconds after a restart reflects the journalled
        wall-clock submit time, not the new process's monotonic clock."""
        release = threading.Event()
        real = execute_spec

        def gated(run_spec):
            assert release.wait(30.0)
            return real(run_spec)

        monkeypatch.setattr(server_module, "execute_spec", gated)
        state_dir = tmp_path / "state"
        JobStore(state_dir).append(QUEUED, {
            "job_id": "j-aged",
            "spec": {
                "kind": "patternscan",
                "layout": None,
                "params": {"variant": "scalar", "stride": 2, "lines": 8},
                "config_overrides": {},
                "seed": None,
                "obs": "off",
                "mode": "fast",
            },
            "client": "before-crash",
            "priority": 0,
            "submitted_at": 12345.0,  # dead process's monotonic clock
            "submitted_wall": time.time() - 300.0,
        })
        try:
            with ServerThread(
                config(state_dir=str(state_dir)), cache=cache
            ) as handle:
                job = handle.client().status("j-aged")
                assert job["state"] in (QUEUED, "running")
                assert job["age_seconds"] >= 300.0
                release.set()
                handle.client().wait("j-aged", timeout=30.0)
        finally:
            release.set()

    def test_restart_does_not_charge_original_clients_inflight(
        self, tmp_path, cache, monkeypatch
    ):
        """Recovered jobs must not eat the client's admission slots:
        after a restart, a client at its cap in the journal can still
        submit new work."""
        release = threading.Event()
        real = execute_spec

        def gated(run_spec):
            assert release.wait(30.0)
            return real(run_spec)

        monkeypatch.setattr(server_module, "execute_spec", gated)
        state_dir = tmp_path / "state"
        store = JobStore(state_dir)
        for index, stride in enumerate((2, 4)):
            store.append(QUEUED, {
                "job_id": f"j-prev-{index}",
                "spec": {
                    "kind": "patternscan",
                    "layout": None,
                    "params": {
                        "variant": "scalar", "stride": stride, "lines": 8,
                    },
                    "config_overrides": {},
                    "seed": None,
                    "obs": "off",
                    "mode": "fast",
                },
                "client": "greedy",
                "priority": 0,
                "submitted_at": 1.0,
                "submitted_wall": time.time() - 10.0,
            })
        cfg = config(state_dir=str(state_dir), max_inflight=2, workers=1)
        try:
            with ServerThread(cfg, cache=cache) as handle:
                client = handle.client(client_id="greedy")
                # Both recovered jobs are open, yet the cap is free.
                response = client.submit(spec(8), wait=False)
                assert response["job"]["state"] in (QUEUED, "running")
                release.set()
                client.wait(response["job"]["job_id"], timeout=30.0)
        finally:
            release.set()


class TestCancel:
    def test_cancel_queued_job(self, tmp_path, cache, monkeypatch):
        release = threading.Event()
        real = execute_spec

        def gated(run_spec):
            assert release.wait(30.0)
            return real(run_spec)

        monkeypatch.setattr(server_module, "execute_spec", gated)
        cfg = config(tmp_path, workers=1)
        with ServerThread(cfg, cache=cache) as handle:
            client = handle.client()
            client.submit(spec(2), wait=False)  # occupies the only worker
            queued = client.submit(spec(4), wait=False)["job"]["job_id"]
            response = client.cancel(queued)
            assert response["cancelled"]
            assert response["job"]["state"] == "cancelled"
            release.set()
