"""Chaos suite for the resilient execution runtime (PR 9).

The resilience contract: a fault mid-batch — a worker killed or hung, a
page whose checksum no longer matches, a flaky read — changes *when* and
*where* the batch executes, never *what it answers*.  Every test here
injects a fault and asserts the surviving answers (ids and appearance
probabilities) are bit-identical to a fault-free run, with the absorbed
damage surfaced in ``BatchStats`` (retries, respawns, scrubs, the
degradation level) rather than hidden.

Layers under test:

* worker supervision inside :class:`ProcessBatchExecutor` — deadline +
  liveness detection, respawn-and-retry of only the failed fault
  domain, pool teardown on unrecoverable errors (the executor and the
  owning :class:`Database` stay usable afterwards);
* the storage integrity gate — crc32 shadow checksums, quarantine/scrub
  of corrupt pages, bounded retry of transient ``OSError`` reads;
* the graceful-degradation ladder (``process -> thread -> serial``)
  that :class:`Database` walks under ``on_fault="degrade"``;
* the off-switch: every knob at its default must leave behaviour and
  counters byte-identical to the pre-resilience engine.

Injectors live in :mod:`tests.faultinject` (worker kill, armed
exit/hang through the worker pipe protocol, flaky reads).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.api import Database, ExecConfig, RangeSpec
from repro.exec import (
    BatchExecutor,
    BatchSupervisor,
    ProcessBatchExecutor,
)
from repro.faults import (
    CorruptPageError,
    DegradedWarning,
    FaultError,
    TransientIOError,
    WorkerError,
    WorkerTimeout,
)
from repro.geometry.rect import Rect
from repro.storage.layout import PAGE_CHECKSUM_BYTES, usable_page_bytes
from repro.storage.pager import DataFile, DataFileView, IOCounter
from tests.conftest import make_mixed_objects
from tests.faultinject import FlakyReads, arm_chaos, kill_worker

MC_SAMPLES = 200
SEED = 7
N_OBJECTS = 40

METHODS = ("utree", "upcr", "scan")
SHARD_COUNTS = (1, 4)


def _objects():
    return make_mixed_objects(N_OBJECTS, seed=11)


def _specs(n: int = 6):
    rng = np.random.default_rng(23)
    return [
        RangeSpec(
            Rect.from_center(rng.uniform(1500, 8500, 2), float(rng.uniform(900, 1800))),
            float(rng.choice([0.3, 0.5])),
        )
        for _ in range(n)
    ]


def _config(**overrides) -> ExecConfig:
    base = dict(mc_samples=MC_SAMPLES, seed=SEED, page_size=2048)
    base.update(overrides)
    return ExecConfig(**base)


def _db(**overrides) -> Database:
    return Database.create(_objects(), _config(**overrides))


def _ids_and_probs(run_result):
    """The answer identity: object ids plus the P_app evaluation count.

    Ids are the visible contract; ``prob_computations`` pins that they
    came from the same appearance-probability evaluations (a degraded
    path silently recomputing — or skipping — P_app would show here).
    """
    return [
        (r.object_ids, r.stats.prob_computations) for r in run_result.results
    ]


@pytest.fixture(scope="module")
def fault_free():
    """One fault-free serial reference answer set for the whole module."""
    db = _db()
    out = db.run(_specs())
    yield _ids_and_probs(out)
    db.close()


# ----------------------------------------------------------------------
# taxonomy
# ----------------------------------------------------------------------

class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(TransientIOError, FaultError)
        assert issubclass(CorruptPageError, FaultError)
        assert issubclass(WorkerError, FaultError)
        assert issubclass(WorkerTimeout, WorkerError)
        # Seed compat: pre-PR 9 callers caught RuntimeError from the pool.
        assert issubclass(FaultError, RuntimeError)
        assert issubclass(DegradedWarning, RuntimeWarning)

    def test_exec_reexports_are_the_same_classes(self):
        import repro.exec as E
        import repro.exec.resilience as R
        import repro.faults as F

        for name in (
            "FaultError",
            "TransientIOError",
            "CorruptPageError",
            "WorkerError",
            "WorkerTimeout",
            "DegradedWarning",
        ):
            assert getattr(E, name) is getattr(F, name)
            assert getattr(R, name) is getattr(F, name)

    def test_payload_attributes(self):
        exc = TransientIOError("x", page_id=4, attempts=3)
        assert (exc.page_id, exc.attempts) == (4, 3)
        assert CorruptPageError("y", page_id=9).page_id == 9


# ----------------------------------------------------------------------
# config surface
# ----------------------------------------------------------------------

class TestConfigKnobs:
    def test_defaults_are_off(self):
        cfg = ExecConfig()
        assert cfg.on_fault == "fail"
        assert cfg.worker_timeout == 0.0
        assert cfg.max_retries == 2
        assert cfg.checksum is False

    def test_validation(self):
        with pytest.raises(ValueError, match="on_fault"):
            ExecConfig(on_fault="panic")
        with pytest.raises(ValueError, match="worker_timeout"):
            ExecConfig(worker_timeout=-1.0)
        with pytest.raises(ValueError, match="max_retries"):
            ExecConfig(max_retries=-1)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ON_FAULT", "degrade")
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        monkeypatch.setenv("REPRO_CHECKSUM", "on")
        cfg = ExecConfig.from_env()
        assert cfg.on_fault == "degrade"
        assert cfg.worker_timeout == 1.5
        assert cfg.max_retries == 5
        assert cfg.checksum is True


# ----------------------------------------------------------------------
# storage integrity: checksums, scrubbing, flaky reads
# ----------------------------------------------------------------------

class TestStorageIntegrity:
    def test_layout_accounting(self):
        assert usable_page_bytes(4096) == 4096
        assert usable_page_bytes(4096, checksum=True) == 4096 - PAGE_CHECKSUM_BYTES
        with pytest.raises(ValueError):
            usable_page_bytes(PAGE_CHECKSUM_BYTES, checksum=True)

    def test_checksum_off_is_inert(self):
        df = DataFile(IOCounter(), 2048)
        addrs = [df.append({"i": i}, 300) for i in range(12)]
        for a in addrs:
            df.read(a)
        assert df.usable_page_bytes == 2048
        assert all(p.image is None for p in df._pages)
        assert df.corrupt_pages_detected == 0
        assert df.pages_scrubbed == 0
        assert df.transient_retries == 0

    def test_corruption_detected_and_raised(self):
        df = DataFile(IOCounter(), 2048, checksum=True)
        addrs = [df.append({"i": i}, 300) for i in range(12)]
        # 300-byte records pack 6 per 2044-byte page: addrs[8] is page 1.
        assert addrs[8].page_id != addrs[0].page_id
        df.corrupt_page(addrs[8].page_id)
        with pytest.raises(CorruptPageError) as info:
            df.read(addrs[8])
        assert info.value.page_id == addrs[8].page_id
        assert df.corrupt_pages_detected == 1
        # Untouched pages still read clean.
        assert df.read(addrs[0]) == {"i": 0}

    def test_scrub_repairs_with_warning_and_charged_read(self):
        df = DataFile(IOCounter(), 2048, checksum=True)
        addrs = [df.append({"i": i}, 300) for i in range(12)]
        df.scrub = True
        df.corrupt_page(addrs[5].page_id)
        reads_before = df.io.reads
        with pytest.warns(DegradedWarning):
            assert df.read(addrs[5]) == {"i": 5}
        # The repair charges one extra physical read on top of the
        # normal access — scrubbing is not free I/O.
        assert df.io.reads == reads_before + 2
        assert df.pages_scrubbed == 1
        # Second read: page is healthy again, no warning, normal cost.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert df.read(addrs[5]) == {"i": 5}
        assert df.pages_scrubbed == 1

    def test_enable_checksum_is_idempotent_and_retrofits(self):
        df = DataFile(IOCounter(), 2048)
        addrs = [df.append({"i": i}, 300) for i in range(8)]
        df.enable_checksum()
        df.enable_checksum()
        assert df.checksum is True
        for a in addrs:
            df.read(a)  # retrofitted stamps verify clean
        df.corrupt_page(addrs[2].page_id)
        with pytest.raises(CorruptPageError):
            df.read(addrs[2])

    def test_flaky_reads_absorbed_within_budget(self):
        df = DataFile(IOCounter(), 2048, checksum=True)
        addrs = [df.append({"i": i}, 300) for i in range(8)]
        injector = FlakyReads(2)
        df.fault_injector = injector
        reads_before = df.io.reads
        assert df.read(addrs[0]) == {"i": 0}
        # Both failed attempts charged a physical read each.
        assert df.io.reads == reads_before + 3
        assert df.transient_retries == 2
        assert injector.raised == 2

    def test_flaky_reads_beyond_budget_raise(self):
        df = DataFile(IOCounter(), 2048)
        addrs = [df.append({"i": i}, 300) for i in range(8)]
        df.fault_injector = FlakyReads(99)
        with pytest.raises(TransientIOError) as info:
            df.read(addrs[0])
        assert info.value.attempts == df.io_retry_limit + 1

    def test_worker_views_never_scrub(self):
        # A forked worker repairing its copy-on-write page image would
        # silently diverge from the parent; the view fails fast instead.
        df = DataFile(IOCounter(), 2048, checksum=True)
        addrs = [df.append({"i": i}, 300) for i in range(8)]
        df.scrub = True
        df.corrupt_page(addrs[1].page_id)
        view = DataFileView(df)
        with pytest.raises(CorruptPageError):
            view.read(addrs[1])
        assert df.pages_scrubbed == 0
        # The parent itself still scrubs the same page afterwards.
        with pytest.warns(DegradedWarning):
            assert df.read(addrs[1]) == {"i": 1}
        assert df.pages_scrubbed == 1


# ----------------------------------------------------------------------
# worker supervision (executor level)
# ----------------------------------------------------------------------

def _build_method(method: str, shards: int):
    cfg = _config(shards=shards)
    db = Database.create(_objects(), cfg, methods=(method,))
    return db, db._methods[method]


def _queries(n: int = 6):
    return [spec.to_query() for spec in _specs(n)]


class TestWorkerSupervision:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("victim", (0, 1))
    @pytest.mark.parametrize("method", METHODS)
    def test_killed_worker_matrix_answers_identical(self, method, victim, shards):
        """The acceptance matrix: a killed worker never changes answers.

        With four shards over three workers, worker 0 owns two shards
        (layout ``(0, 1, 2, 0)``) and worker 1 owns one."""
        queries = _queries()
        _, serial_method = _build_method(method, shards)
        serial = BatchExecutor(serial_method).run(queries)
        _, proc_method = _build_method(method, shards)
        with ProcessBatchExecutor(
            proc_method, workers=3, worker_timeout=10.0, max_retries=2
        ) as ex:
            kill_worker(ex, victim)
            with pytest.warns(DegradedWarning):
                survived = ex.run(queries)
        assert [a.object_ids for a in survived.answers] == [
            a.object_ids for a in serial.answers
        ]
        assert [a.stats.prob_computations for a in survived.answers] == [
            a.stats.prob_computations for a in serial.answers
        ]
        assert survived.batch.worker_respawns >= 1
        assert survived.batch.fault_retries >= 1

    def test_exit_mid_batch_recovers(self):
        queries = _queries()
        _, serial_method = _build_method("utree", 4)
        serial = BatchExecutor(serial_method).run(queries)
        _, proc_method = _build_method("utree", 4)
        with ProcessBatchExecutor(
            proc_method, workers=3, worker_timeout=10.0, max_retries=2
        ) as ex:
            ex._ensure_pool()
            arm_chaos(ex, 0, "exit")
            with pytest.warns(DegradedWarning):
                survived = ex.run(queries)
        assert [a.object_ids for a in survived.answers] == [
            a.object_ids for a in serial.answers
        ]
        assert survived.batch.worker_respawns == 1

    def test_hang_trips_deadline_and_recovers(self):
        queries = _queries()
        _, serial_method = _build_method("utree", 1)
        serial = BatchExecutor(serial_method).run(queries)
        _, proc_method = _build_method("utree", 1)
        with ProcessBatchExecutor(
            proc_method, workers=2, worker_timeout=0.5, max_retries=1
        ) as ex:
            ex._ensure_pool()
            arm_chaos(ex, 1, "hang", 30.0)
            with pytest.warns(DegradedWarning):
                survived = ex.run(queries)
        assert [a.object_ids for a in survived.answers] == [
            a.object_ids for a in serial.answers
        ]
        assert survived.batch.worker_respawns == 1
        assert survived.batch.fault_retries == 1

    def test_retry_budget_exhausted_raises_worker_error(self):
        _, proc_method = _build_method("utree", 1)
        ex = ProcessBatchExecutor(
            proc_method, workers=2, worker_timeout=10.0, max_retries=0
        )
        try:
            ex._ensure_pool()
            arm_chaos(ex, 0, "exit")
            with pytest.raises(WorkerError, match="retry budget 0 exhausted"):
                ex.run(_queries())
            # The pool was torn down before the raise.
            assert ex._procs == []
        finally:
            ex.close()

    def test_all_hung_budget_exhausted_raises_worker_timeout(self):
        _, proc_method = _build_method("utree", 1)
        ex = ProcessBatchExecutor(
            proc_method, workers=1, worker_timeout=0.3, max_retries=0
        )
        try:
            ex._ensure_pool()
            arm_chaos(ex, 0, "hang", 30.0)
            with pytest.raises(WorkerTimeout):
                ex.run(_queries(3))
            assert ex._procs == []
        finally:
            ex.close()

    def test_second_fault_on_retry_consumes_budget(self):
        # Budget 2: first retry's replacement dies too, second succeeds.
        queries = _queries()
        _, serial_method = _build_method("utree", 1)
        serial = BatchExecutor(serial_method).run(queries)
        _, proc_method = _build_method("utree", 1)
        with ProcessBatchExecutor(
            proc_method, workers=2, worker_timeout=10.0, max_retries=2
        ) as ex:
            ex._ensure_pool()
            arm_chaos(ex, 0, "exit")
            kill_worker(ex, 1)
            with pytest.warns(DegradedWarning):
                survived = ex.run(queries)
        assert [a.object_ids for a in survived.answers] == [
            a.object_ids for a in serial.answers
        ]
        assert survived.batch.worker_respawns >= 2

    def test_pool_reusable_after_failure(self):
        """Satellite 1: a failed exchange must not leave dead pipes behind."""
        queries = _queries()
        _, proc_method = _build_method("utree", 1)
        with ProcessBatchExecutor(proc_method, workers=2) as ex:
            first = ex.run(queries)
            kill_worker(ex, 0)
            with pytest.raises(WorkerError):
                ex.run(queries)
            # Default (unsupervised) mode: the fault propagated, but the
            # pool was closed, so the next run re-forks cleanly.
            again = ex.run(queries)
        assert [a.object_ids for a in again.answers] == [
            a.object_ids for a in first.answers
        ]

    def test_worker_error_status_is_never_retried(self):
        # A worker replying with a traceback is a deterministic bug, not
        # a fault domain to respawn: no retries are consumed.
        _, proc_method = _build_method("utree", 1)
        with ProcessBatchExecutor(
            proc_method, workers=2, worker_timeout=10.0, max_retries=3
        ) as ex:
            ex._ensure_pool()
            ex._conns[0].send(("no_such_command", None))
            status, payload = ex._conns[0].recv()
            assert status == "error"
            assert ex.retries == 0


# ----------------------------------------------------------------------
# graceful degradation (Database level)
# ----------------------------------------------------------------------

class TestGracefulDegradation:
    def test_knobs_off_batch_is_clean(self, fault_free):
        db = _db()
        out = db.run(_specs())
        assert _ids_and_probs(out) == fault_free
        batch = out.batch
        assert not batch.degraded
        assert batch.degraded_to == ""
        assert batch.fault_events == []
        assert batch.fault_retries == 0
        assert batch.worker_respawns == 0
        assert batch.corrupt_pages == 0
        assert batch.pages_scrubbed == 0
        assert batch.io_retries == 0
        assert "resilience" not in batch.summary()
        db.close()

    def test_degrade_mode_fault_free_is_identical(self, fault_free):
        db = _db(
            on_fault="degrade", checksum=True, worker_timeout=5.0, parallelism=2
        )
        out = db.run(_specs())
        assert _ids_and_probs(out) == fault_free
        assert not out.batch.degraded
        db.close()

    def test_respawn_absorbed_without_degradation(self, fault_free):
        db = _db(
            executor="process",
            parallelism=2,
            on_fault="degrade",
            worker_timeout=10.0,
            max_retries=1,
        )
        ex = db._batch_executor("utree")
        ex._ensure_pool()
        arm_chaos(ex, 0, "exit")
        with pytest.warns(DegradedWarning):
            out = db.run(_specs())
        assert _ids_and_probs(out) == fault_free
        batch = out.batch
        assert batch.degraded_to == ""  # the process level itself survived
        assert batch.worker_respawns == 1
        assert batch.fault_retries == 1
        assert batch.degraded  # ...but the damage is still visible
        assert "resilience" in batch.summary()
        db.close()

    def test_degrades_to_thread_when_budget_exhausted(self, fault_free):
        db = _db(
            executor="process",
            parallelism=2,
            on_fault="degrade",
            worker_timeout=10.0,
            max_retries=0,
        )
        ex = db._batch_executor("utree")
        ex._ensure_pool()
        arm_chaos(ex, 0, "exit")
        with pytest.warns(DegradedWarning):
            out = db.run(_specs())
        assert _ids_and_probs(out) == fault_free
        batch = out.batch
        assert batch.degraded_to == "thread"
        assert len(batch.fault_events) == 1
        assert "WorkerError" in batch.fault_events[0]
        db.close()

    def test_corrupt_page_quarantined_and_scrubbed(self, fault_free):
        db = _db(on_fault="degrade", checksum=True)
        data_file = db._methods["utree"].data_file
        data_file.corrupt_page(0)
        with pytest.warns(DegradedWarning):
            out = db.run(_specs())
        assert _ids_and_probs(out) == fault_free
        batch = out.batch
        assert batch.corrupt_pages >= 1
        assert batch.pages_scrubbed >= 1
        db.close()

    def test_corrupt_page_fail_mode_raises(self):
        db = _db(checksum=True)
        data_file = db._methods["utree"].data_file
        data_file.corrupt_page(0)
        with pytest.raises(CorruptPageError):
            db.run(_specs())
        db.close()

    def test_flaky_reads_surface_in_batch_stats(self, fault_free):
        db = _db(on_fault="degrade", checksum=True)
        # Two failures stay within io_retry_limit, so the batch absorbs
        # them without even descending the ladder.
        db._methods["utree"].data_file.fault_injector = FlakyReads(2)
        out = db.run(_specs())
        assert _ids_and_probs(out) == fault_free
        assert out.batch.io_retries == 2
        db.close()

    def test_ladder_bottoms_out_and_reraises(self):
        def failing_factory():
            class Boom:
                def run(self, queries):
                    raise CorruptPageError("page 3 unrecoverable", page_id=3)

            return Boom()

        supervisor = BatchSupervisor(
            [("process", failing_factory), ("serial", failing_factory)]
        )
        with pytest.warns(DegradedWarning):
            with pytest.raises(CorruptPageError):
                supervisor.run([])

    def test_ladder_does_not_catch_programming_errors(self):
        calls = []

        def buggy_factory():
            class Buggy:
                def run(self, queries):
                    calls.append(1)
                    raise ValueError("a bug, not a fault")

            return Buggy()

        supervisor = BatchSupervisor(
            [("process", buggy_factory), ("serial", buggy_factory)]
        )
        with pytest.raises(ValueError):
            supervisor.run([])
        assert len(calls) == 1  # never re-ran the bug on the next level

    def test_explain_reports_resilience_posture(self):
        db = _db(
            executor="process",
            parallelism=2,
            on_fault="degrade",
            checksum=True,
            worker_timeout=2.0,
            max_retries=1,
        )
        explanation = db.explain(_specs()[0], batch_size=4)
        assert explanation.on_fault == "degrade"
        assert explanation.checksum is True
        assert explanation.degradation_ladder == ("process", "thread", "serial")
        assert "resilience" in explanation.summary()
        db.close()

    def test_explain_fail_mode_has_empty_ladder(self):
        db = _db()
        explanation = db.explain(_specs()[0], batch_size=4)
        assert explanation.on_fault == "fail"
        assert explanation.degradation_ladder == ()
        assert "resilience" not in explanation.summary()
        db.close()

    def test_database_survives_fail_mode_worker_death(self, fault_free):
        """Satellite 1 at the Database level: run, kill, run, run."""
        db = _db(executor="process", parallelism=2)
        first = db.run(_specs())
        assert _ids_and_probs(first) == fault_free
        ex = db._batch_executor("utree")
        kill_worker(ex, 0)
        with pytest.raises(WorkerError):
            db.run(_specs())
        again = db.run(_specs())
        assert _ids_and_probs(again) == fault_free
        db.close()


# ----------------------------------------------------------------------
# WAL + resilience chaos (satellite 3)
# ----------------------------------------------------------------------

class TestWalChaos:
    def test_worker_death_then_reopen_recovers(self, tmp_path, fault_free):
        from tests.conftest import make_uniform_ball_object

        db = _db(
            wal=True,
            executor="process",
            parallelism=2,
            on_fault="degrade",
            worker_timeout=10.0,
            max_retries=0,
        )
        archive = tmp_path / "db"
        db.save(archive)
        # A WAL-logged mutation after the checkpoint...
        new_obj = make_uniform_ball_object(900, np.array([5000.0, 5000.0]))
        db.insert(new_obj)
        # ...then a worker dies mid-batch and the run degrades.
        ex = db._batch_executor("utree")
        ex._ensure_pool()
        arm_chaos(ex, 0, "exit")
        with pytest.warns(DegradedWarning):
            out = db.run(_specs())
        assert out.batch.degraded_to == "thread"
        expected = [db.query(spec).sorted_ids() for spec in _specs()]
        db.close()

        # Recovery is the production path: replay the WAL, answers match.
        recovered = Database.open(archive)
        assert recovered.last_recovery == {"wal_entries": 1}
        assert [
            recovered.query(spec).sorted_ids() for spec in _specs()
        ] == expected
        recovered.close()
