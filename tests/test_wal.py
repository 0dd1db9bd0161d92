"""Storage engine v2: WAL durability, incremental snapshots, crash recovery.

Three tiers of fault coverage:

1. **WAL unit level** — entry format, torn-tail truncation, and a
   truncated-prefix sweep at *every byte offset* of a multi-entry log
   (cheap: each probe is one file parse, no database rebuild).
2. **Entry-boundary end-to-end** — the {mono utree, sharded utree, upcr,
   scan} x {first/repeated checkpoint} matrix: checkpoint, run a mixed
   insert/delete/rebalance trace, crash at each WAL entry boundary (and
   just past it), recover via ``Database.open``, re-apply the
   unacknowledged remainder, and assert answers match the uninterrupted
   run bit for bit.
3. **Exhaustive end-to-end** — every byte offset of the trace's WAL, for
   one configuration; expensive, so gated behind
   ``REPRO_FAULT_EXHAUSTIVE=1`` (the CI crash-recovery job sets it).

Satellites ride along: atomic-save regressions (a crash mid-save never
destroys the previous archive), pickle-free archive loading, and the
incremental-save member-skip contract.
"""

from __future__ import annotations

import json
import os
import shutil
import struct

import numpy as np
import pytest

from repro.api import Database, ExecConfig, RangeSpec
from repro.env import env_flag
from repro.geometry.rect import Rect
from repro.storage.serialize import SerializationError
from repro.storage.wal import WriteAheadLog
from tests.conftest import make_mixed_objects, make_uniform_ball_object
from tests.faultinject import ByteBudget, CrashPoint, crashing_factory

MC_SAMPLES = 240
SEED = 13

_HEADER = struct.Struct("<II")


def _entry_boundaries(wal_path: str) -> list[int]:
    """Byte offsets of every entry boundary in a WAL file (0 included)."""
    with open(wal_path, "rb") as fh:
        data = fh.read()
    boundaries = [0]
    offset = 0
    while offset + _HEADER.size <= len(data):
        length, _ = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size + length
        assert offset <= len(data), "log under test must end on a boundary"
        boundaries.append(offset)
    return boundaries


# ----------------------------------------------------------------------
# tier 1: the log itself
# ----------------------------------------------------------------------

class TestWriteAheadLog:
    def test_commit_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        records = [{"op": "insert", "oid": 1}, {"op": "delete", "oid": 2}]
        for record in records:
            wal.commit(record)
        assert wal.entries_logged == 2
        assert wal.replay() == records
        assert wal.replay() == records  # replay is idempotent

    def test_commit_returns_durable_size(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        n = wal.commit({"op": "delete", "oid": 7})
        wal.close()
        assert os.path.getsize(wal.path) == n == wal.bytes_logged

    def test_truncate_is_checkpoint(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.commit({"op": "delete", "oid": 1})
        wal.truncate()
        assert wal.size_bytes == 0
        assert wal.replay() == []
        wal.commit({"op": "delete", "oid": 2})
        assert wal.replay() == [{"op": "delete", "oid": 2}]

    def test_missing_file_replays_to_nothing(self, tmp_path):
        assert WriteAheadLog(tmp_path / "absent.log").replay() == []

    def test_torn_tail_is_discarded_and_truncated(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.commit({"op": "delete", "oid": 1})
        good = os.path.getsize(wal.path)
        wal.close()
        with open(wal.path, "ab") as fh:
            fh.write(b"\x40\x00\x00\x00garbage-without-full-payload")
        assert wal.replay() == [{"op": "delete", "oid": 1}]
        # Recovery physically truncated the tail: appends stay contiguous.
        assert os.path.getsize(wal.path) == good
        wal.commit({"op": "delete", "oid": 2})
        assert wal.replay() == [
            {"op": "delete", "oid": 1},
            {"op": "delete", "oid": 2},
        ]

    def test_corrupt_checksum_stops_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.commit({"op": "delete", "oid": 1})
        first = os.path.getsize(wal.path)
        wal.commit({"op": "delete", "oid": 2})
        wal.close()
        with open(wal.path, "r+b") as fh:  # flip one payload byte of entry 2
            fh.seek(first + _HEADER.size)
            byte = fh.read(1)
            fh.seek(first + _HEADER.size)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert wal.replay() == [{"op": "delete", "oid": 1}]
        assert os.path.getsize(wal.path) == first

    def test_every_byte_truncated_prefix_sweep(self, tmp_path):
        """Kill the log at EVERY byte offset; replay never lies.

        For each prefix length b, replay must return exactly the entries
        wholly contained in the first b bytes — the crash invariant at
        its finest granularity.
        """
        wal = WriteAheadLog(tmp_path / "wal.log")
        records = [
            {"op": "insert", "oid": i, "pdf": {"kind": "uniform", "blob": "x" * i}}
            for i in range(7)
        ]
        for record in records:
            wal.commit(record)
        wal.close()
        with open(wal.path, "rb") as fh:
            data = fh.read()
        boundaries = _entry_boundaries(wal.path)
        probe_path = tmp_path / "probe.log"
        for cut in range(len(data) + 1):
            with open(probe_path, "wb") as fh:
                fh.write(data[:cut])
            whole = sum(1 for b in boundaries[1:] if b <= cut)
            replayed = WriteAheadLog(probe_path).replay()
            assert replayed == records[:whole], f"divergence at byte {cut}"
            # Replay truncated the torn tail back to the last boundary.
            assert os.path.getsize(probe_path) == boundaries[whole]


class TestCrashingWrites:
    def test_acked_commits_survive_any_budget(self, tmp_path):
        records = [{"op": "delete", "oid": i} for i in range(5)]
        probe = WriteAheadLog(tmp_path / "probe.log")
        total = sum(probe.commit(r) for r in records)
        for budget_bytes in range(total + 1):
            path = tmp_path / f"wal-{budget_bytes}.log"
            wal = WriteAheadLog(
                path, file_factory=crashing_factory(ByteBudget(budget_bytes))
            )
            acked = []
            for record in records:
                try:
                    wal.commit(record)
                except CrashPoint:
                    break
                acked.append(record)
            assert WriteAheadLog(path).replay() == acked


# ----------------------------------------------------------------------
# shared end-to-end machinery
# ----------------------------------------------------------------------

def _objects():
    return make_mixed_objects(14, seed=5)


def _new_object(oid: int):
    rng = np.random.default_rng(1000 + oid)
    return make_uniform_ball_object(oid, rng.uniform(2000, 8000, 2))


# A mixed trace: inserts, deletes, and a rebalance in the middle.
TRACE = [
    ("insert", 100),
    ("delete", 2),
    ("rebalance", None),
    ("insert", 101),
    ("delete", 5),
    ("insert", 102),
]


def _apply(db: Database, op: str, arg) -> None:
    if op == "insert":
        db.insert(_new_object(arg))
    elif op == "delete":
        db.delete(arg)
    else:
        db.rebalance()


def _specs():
    return [
        RangeSpec(Rect([1000.0, 1000.0], [9000.0, 9000.0]), 0.3),
        RangeSpec(Rect([3000.0, 2000.0], [7000.0, 8000.0]), 0.6),
    ]


def _answers(db: Database) -> list[list[int]]:
    # sorted_ids: the persistence contract is set-identity — a rebuilt
    # tree's traversal order may differ, the qualifying objects may not
    # (the same comparison tests/test_api.py pins for save/open).
    return [db.query(spec).sorted_ids() for spec in _specs()]


def _config(method: str) -> ExecConfig:
    shards = 3 if method == "utree@sharded" else 1
    return ExecConfig(
        wal=True,
        mc_samples=MC_SAMPLES,
        seed=SEED,
        shards=shards,
    )


def _build(method: str) -> Database:
    base = method.split("@")[0]
    return Database.create(_objects(), _config(method), methods=(base,))


def _wal_path(archive_dir) -> str:
    with open(os.path.join(archive_dir, "MANIFEST.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return os.path.join(archive_dir, manifest["wal"])


MATRIX = ("utree@mono", "utree@sharded", "upcr", "scan")
CHECKPOINTS = ("first", "repeated")


def _checkpoint(db: Database, archive, checkpoint: str) -> None:
    """Save ``db`` to ``archive``.  ``repeated`` first logs a few
    operations after an initial save and checkpoints again, so recovery
    replays the log over an incrementally rewritten archive."""
    db.save(archive)
    if checkpoint == "repeated":
        db.insert(_new_object(90))
        db.delete(7)
        report = db.save(archive)
        assert report["written"]


# ----------------------------------------------------------------------
# tier 2: entry-boundary crashes, full method matrix
# ----------------------------------------------------------------------

@pytest.mark.parametrize("method", MATRIX)
@pytest.mark.parametrize("checkpoint", CHECKPOINTS)
class TestRecoveryMatrix:
    def test_crash_at_every_entry_boundary(self, tmp_path, method, checkpoint):
        """Checkpoint, run the trace, crash after k acked ops, recover.

        Recovery + re-applying the unacknowledged remainder must answer
        every query exactly like the run that never crashed.
        """
        db = _build(method)
        archive = tmp_path / "db"
        _checkpoint(db, archive, checkpoint)
        for op, arg in TRACE:
            _apply(db, op, arg)
        expected = _answers(db)
        db.close()
        wal_path = _wal_path(archive)
        boundaries = _entry_boundaries(wal_path)
        assert len(boundaries) == len(TRACE) + 1  # one entry per operation
        with open(wal_path, "rb") as fh:
            wal_bytes = fh.read()

        for k, cut in enumerate(boundaries):
            crashed = tmp_path / f"crash-{k}"
            shutil.copytree(archive, crashed)
            with open(_wal_path(crashed), "wb") as fh:
                fh.write(wal_bytes[:cut])
            recovered = Database.open(crashed)
            assert recovered.last_recovery == {"wal_entries": k}
            for op, arg in TRACE[k:]:  # the client re-submits unacked ops
                _apply(recovered, op, arg)
            assert _answers(recovered) == expected
            recovered.close()

    def test_crash_mid_entry_loses_only_the_unacked_op(
        self, tmp_path, method, checkpoint
    ):
        db = _build(method)
        archive = tmp_path / "db"
        _checkpoint(db, archive, checkpoint)
        for op, arg in TRACE:
            _apply(db, op, arg)
        expected = _answers(db)
        db.close()
        wal_path = _wal_path(archive)
        boundaries = _entry_boundaries(wal_path)
        with open(wal_path, "rb") as fh:
            wal_bytes = fh.read()
        # Tear the log 3 bytes into entry k+1: exactly k ops recovered.
        k = 2
        with open(wal_path, "wb") as fh:
            fh.write(wal_bytes[: boundaries[k] + 3])
        recovered = Database.open(archive)
        assert recovered.last_recovery == {"wal_entries": k}
        # Replay truncated the torn tail on disk.
        assert os.path.getsize(wal_path) == boundaries[k]
        for op, arg in TRACE[k:]:
            _apply(recovered, op, arg)
        assert _answers(recovered) == expected
        recovered.close()


class TestCrashingDatabase:
    """End-to-end through CrashingFile: the WAL handle itself dies."""

    def test_log_before_apply(self, tmp_path):
        """A crash during the commit leaves memory unchanged (unacked)."""
        db = _build("utree@mono")
        db.save(tmp_path / "db")
        size_before = len(db)
        db.wal.reopen(crashing_factory(ByteBudget(4)))  # dies mid-header
        with pytest.raises(CrashPoint):
            db.insert(_new_object(100))
        assert len(db) == size_before
        recovered = Database.open(tmp_path / "db")
        assert recovered.last_recovery == {"wal_entries": 0}
        assert len(recovered) == size_before
        recovered.close()

    @pytest.mark.parametrize("budget_bytes", [0, 1, 90, 300, 10_000])
    def test_sampled_budgets_recover_exactly_the_acked_prefix(
        self, tmp_path, budget_bytes
    ):
        db = _build("utree@sharded")
        archive = tmp_path / "db"
        db.save(archive)
        db.wal.reopen(crashing_factory(ByteBudget(budget_bytes)))
        acked = 0
        for op, arg in TRACE:
            try:
                _apply(db, op, arg)
            except CrashPoint:
                break
            acked += 1
        db.close()
        # Build the uninterrupted twin for the expected answers.
        twin = _build("utree@sharded")
        for op, arg in TRACE:
            _apply(twin, op, arg)
        expected = _answers(twin)
        twin.close()

        recovered = Database.open(archive)
        assert recovered.last_recovery == {"wal_entries": acked}
        for op, arg in TRACE[acked:]:
            _apply(recovered, op, arg)
        assert _answers(recovered) == expected
        recovered.close()

    @pytest.mark.skipif(
        not env_flag("REPRO_FAULT_EXHAUSTIVE"),
        reason="exhaustive byte-level sweep only under REPRO_FAULT_EXHAUSTIVE=1",
    )
    def test_exhaustive_every_byte_end_to_end(self, tmp_path):
        """Kill the WAL write stream at EVERY byte offset of the trace."""
        db = _build("utree@sharded")
        archive = tmp_path / "db"
        db.save(archive)
        for op, arg in TRACE:
            _apply(db, op, arg)
        expected = _answers(db)
        db.close()
        wal_path = _wal_path(archive)
        boundaries = _entry_boundaries(wal_path)
        with open(wal_path, "rb") as fh:
            wal_bytes = fh.read()
        for cut in range(len(wal_bytes) + 1):
            acked = sum(1 for b in boundaries[1:] if b <= cut)
            crashed = tmp_path / f"crash-{cut}"
            shutil.copytree(archive, crashed)
            with open(_wal_path(crashed), "wb") as fh:
                fh.write(wal_bytes[:cut])
            recovered = Database.open(crashed)
            assert recovered.last_recovery == {"wal_entries": acked}
            for op, arg in TRACE[acked:]:
                _apply(recovered, op, arg)
            assert _answers(recovered) == expected, f"divergence at byte {cut}"
            recovered.close()
            shutil.rmtree(crashed)


# ----------------------------------------------------------------------
# incremental snapshots
# ----------------------------------------------------------------------

class TestIncrementalSave:
    def test_first_save_writes_every_member(self, tmp_path):
        db = _build("utree@sharded")
        report = db.save(tmp_path / "db")
        assert sorted(report["written"]) == [
            "utree/shard0", "utree/shard1", "utree/shard2",
        ]
        assert report["skipped"] == []
        db.close()

    def test_clean_members_are_skipped(self, tmp_path):
        db = _build("utree@sharded")
        db.save(tmp_path / "db")
        report = db.save(tmp_path / "db")
        assert report["written"] == []
        assert len(report["skipped"]) == 3
        db.close()

    def test_touching_one_shard_rewrites_one_member(self, tmp_path):
        db = _build("utree@sharded")
        archive = tmp_path / "db"
        db.save(archive)
        before = {
            name: os.path.getmtime(os.path.join(archive, name))
            for name in os.listdir(archive)
        }
        db.delete(2)  # lands in exactly one shard
        report = db.save(archive)
        assert len(report["written"]) == 1
        assert len(report["skipped"]) == 2
        manifest = json.load(open(os.path.join(archive, "MANIFEST.json")))
        skipped_files = {
            manifest["members"][key]["file"] for key in report["skipped"]
        }
        for name in skipped_files:  # untouched members were not rewritten
            assert os.path.getmtime(os.path.join(archive, name)) == before[name]
        db.close()

    def test_checkpoint_truncates_the_log(self, tmp_path):
        db = _build("utree@mono")
        archive = tmp_path / "db"
        db.save(archive)
        db.insert(_new_object(100))
        assert db.wal.size_bytes > 0
        db.save(archive)
        assert db.wal.size_bytes == 0  # fresh segment after checkpoint
        reopened = Database.open(archive)
        assert reopened.last_recovery == {"wal_entries": 0}
        assert len(reopened) == len(db)
        reopened.close()
        db.close()

    def test_rebalance_marks_members_dirty(self, tmp_path):
        db = _build("utree@sharded")
        archive = tmp_path / "db"
        db.save(archive)
        db.rebalance()
        report = db.save(archive)
        assert len(report["written"]) == 3
        db.close()

    def test_open_rejects_wal_off_config(self, tmp_path):
        db = _build("utree@mono")
        db.save(tmp_path / "db")
        db.close()
        with pytest.raises(ValueError, match="WAL-backed"):
            Database.open(tmp_path / "db", ExecConfig(wal=False))

    def test_save_refuses_foreign_directory(self, tmp_path):
        foreign = tmp_path / "db"
        foreign.mkdir()
        (foreign / "MANIFEST.json").write_text('{"format": "something-else"}')
        db = _build("utree@mono")
        with pytest.raises(ValueError, match="foreign"):
            db.save(foreign)
        db.close()

    def test_stale_members_are_garbage_collected(self, tmp_path):
        db = _build("utree@sharded")
        archive = tmp_path / "db"
        db.save(archive)
        db.delete(2)
        db.save(archive)
        manifest = json.load(open(os.path.join(archive, "MANIFEST.json")))
        referenced = {m["file"] for m in manifest["members"].values()}
        on_disk = {n for n in os.listdir(archive) if n.endswith(".npz")}
        assert on_disk == referenced
        db.close()

    def test_durability_begins_at_first_checkpoint(self, tmp_path):
        db = _build("utree@mono")
        assert db.wal is None  # pre-checkpoint mutations are in-memory only
        db.insert(_new_object(100))
        db.save(tmp_path / "db")
        assert db.wal is not None
        db.close()


# ----------------------------------------------------------------------
# satellite: atomic legacy saves
# ----------------------------------------------------------------------

class _Boom(RuntimeError):
    pass


def _explode_savez(monkeypatch):
    """Make the next np.savez_compressed write garbage, then die."""
    import repro.storage.serialize as serialize_module

    def boom(fh, **entries):
        fh.write(b"partial-garbage")
        raise _Boom("simulated crash mid-save")

    monkeypatch.setattr(serialize_module.np, "savez_compressed", boom)


class TestAtomicSave:
    def test_interrupted_database_save_preserves_old_archive(
        self, tmp_path, monkeypatch
    ):
        db = Database.create(
            _objects(), ExecConfig(mc_samples=MC_SAMPLES, seed=SEED), methods=("scan",)
        )
        path = tmp_path / "db.npz"
        db.save(path)
        expected = _answers(Database.open(path))
        _explode_savez(monkeypatch)
        with pytest.raises(_Boom):
            db.save(path)
        monkeypatch.undo()
        assert _answers(Database.open(path)) == expected  # old archive intact
        assert [p.name for p in tmp_path.iterdir()] == ["db.npz"]  # no temp litter

    def test_interrupted_utree_save_preserves_old_archive(
        self, tmp_path, monkeypatch
    ):
        db = Database.create(
            _objects(), ExecConfig(mc_samples=MC_SAMPLES, seed=SEED)
        )
        path = tmp_path / "db.npz"
        db.save(path)
        expected = _answers(Database.open(path))
        _explode_savez(monkeypatch)
        with pytest.raises(_Boom):
            db.save(path)
        monkeypatch.undo()
        assert _answers(Database.open(path)) == expected
        assert [p.name for p in tmp_path.iterdir()] == ["db.npz"]


# ----------------------------------------------------------------------
# satellite: pickle-free archives
# ----------------------------------------------------------------------

class TestPickleFreeArchives:
    def test_object_archive_loads_without_pickle(self, tmp_path):
        db = Database.create(
            _objects(),
            ExecConfig(mc_samples=MC_SAMPLES, seed=SEED),
            methods=("utree", "scan"),
        )
        path = tmp_path / "db.npz"
        db.save(path)
        with np.load(str(path)) as archive:  # allow_pickle defaults to False
            assert archive["descriptors"].dtype == np.uint8
        reopened = Database.open(path)
        assert reopened.method_names == ["utree", "scan"]
        assert _answers(reopened) == _answers(db)

    def test_wal_members_load_without_pickle(self, tmp_path):
        db = _build("utree@sharded")
        archive = tmp_path / "db"
        db.save(archive)
        manifest = json.load(open(os.path.join(archive, "MANIFEST.json")))
        for member in manifest["members"].values():
            with np.load(os.path.join(archive, member["file"])) as npz:
                assert npz["descriptors"].dtype == np.uint8
        db.close()

    def test_v1_object_archive_is_rejected_clearly(self, tmp_path):
        meta = json.dumps({"format": "repro-database-objects-v1", "config": {}})
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            database_meta=meta,
            dim=np.int64(2),
            oids=np.array([1], dtype=np.int64),
            descriptors=np.array(["{}"], dtype=object),
        )
        with pytest.raises(SerializationError, match="v1"):
            Database.open(path)

    def test_wal_off_save_is_still_one_flat_npz(self, tmp_path):
        """paper_exact / default configs keep the legacy archive shape."""
        db = Database.create(
            _objects(),
            ExecConfig(mc_samples=MC_SAMPLES, seed=SEED),
            methods=("utree", "scan"),
        )
        path = tmp_path / "db.npz"
        assert db.save(path) is None  # no incremental report in legacy mode
        assert path.is_file()
        with np.load(str(path)) as archive:
            assert set(archive.files) == {
                "database_meta", "dim", "oids", "descriptors",
            }
