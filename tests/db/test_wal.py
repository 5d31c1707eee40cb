"""Write-ahead log unit tests and engine-level durability tests."""

import json

import pytest

from repro.db import Database
from repro.db.wal import WAL_MAGIC, WriteAheadLog, encode_record
from repro.errors import TransactionError, WALCorruptionError


def make_wal(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.open()
    return wal


def put(table, rowid, value, version=1):
    return {"op": "put", "table": table, "rowid": rowid,
            "version": version, "values": [value]}


class TestWALFormat:
    def test_open_creates_magic_only_file(self, tmp_path):
        make_wal(tmp_path)
        assert (tmp_path / "wal.log").read_bytes() == WAL_MAGIC

    def test_committed_batch_round_trips(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.append(put("t", 1, "a"))
        wal.append(put("t", 2, "b"))
        wal.commit(tick=7)
        recovery = WriteAheadLog(tmp_path / "wal.log").open()
        assert recovery.records == [put("t", 1, "a"), put("t", 2, "b")]
        assert recovery.last_tick == 7
        assert recovery.committed_batches == 1
        assert not recovery.truncated

    def test_append_buffers_without_io(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.append(put("t", 1, "a"))
        assert (tmp_path / "wal.log").read_bytes() == WAL_MAGIC
        assert wal.pending_records == [put("t", 1, "a")]

    def test_abort_discards_buffer(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.append(put("t", 1, "a"))
        wal.abort()
        wal.append(put("t", 2, "b"))
        wal.commit(tick=3)
        recovery = WriteAheadLog(tmp_path / "wal.log").open()
        assert recovery.records == [put("t", 2, "b")]

    def test_reset_empties_log(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.append(put("t", 1, "a"))
        wal.commit(tick=1)
        wal.reset()
        assert (tmp_path / "wal.log").read_bytes() == WAL_MAGIC

    def test_multiple_batches_accumulate(self, tmp_path):
        wal = make_wal(tmp_path)
        for tick in (1, 2, 3):
            wal.append(put("t", tick, "v", version=tick))
            wal.commit(tick=tick)
        recovery = WriteAheadLog(tmp_path / "wal.log").open()
        assert len(recovery.records) == 3
        assert recovery.last_tick == 3
        assert recovery.committed_batches == 3


class TestTornTails:
    def _committed_log(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.append(put("t", 1, "a"))
        wal.commit(tick=5)
        return tmp_path / "wal.log", (tmp_path / "wal.log").read_bytes()

    def test_partial_frame_is_truncated(self, tmp_path):
        path, good = self._committed_log(tmp_path)
        torn = encode_record(put("t", 2, "b"))[:-3]
        path.write_bytes(good + torn)
        recovery = WriteAheadLog(path).open()
        assert recovery.records == [put("t", 1, "a")]
        assert recovery.torn_bytes == len(torn)
        assert path.read_bytes() == good

    def test_partial_header_is_truncated(self, tmp_path):
        path, good = self._committed_log(tmp_path)
        path.write_bytes(good + b"\x05")
        recovery = WriteAheadLog(path).open()
        assert recovery.torn_bytes == 1
        assert path.read_bytes() == good

    def test_checksum_mismatch_is_truncated(self, tmp_path):
        path, good = self._committed_log(tmp_path)
        frame = bytearray(encode_record(put("t", 2, "b")))
        frame[-1] ^= 0xFF  # corrupt the payload, not the header
        path.write_bytes(good + bytes(frame))
        recovery = WriteAheadLog(path).open()
        assert recovery.records == [put("t", 1, "a")]
        assert path.read_bytes() == good

    def test_uncommitted_records_are_dropped(self, tmp_path):
        path, good = self._committed_log(tmp_path)
        # a complete, checksummed record that never got its marker
        path.write_bytes(good + encode_record(put("t", 2, "b")))
        recovery = WriteAheadLog(path).open()
        assert recovery.records == [put("t", 1, "a")]
        assert recovery.dropped_records == 1
        assert path.read_bytes() == good

    def test_torn_magic_is_rewritten(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(WAL_MAGIC[:3])
        recovery = WriteAheadLog(path).open()
        assert recovery.torn_bytes == 3
        assert path.read_bytes() == WAL_MAGIC

    def test_recovery_is_idempotent(self, tmp_path):
        path, good = self._committed_log(tmp_path)
        path.write_bytes(good + b"garbage-tail")
        first = WriteAheadLog(path).open()
        second = WriteAheadLog(path).open()
        assert first.records == second.records
        assert not second.truncated


class TestCorruption:
    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL!" + b"rest")
        with pytest.raises(WALCorruptionError):
            WriteAheadLog(path).open()

    def test_checksummed_garbage_payload_raises(self, tmp_path):
        import struct
        import zlib
        path = tmp_path / "wal.log"
        payload = b"{this is not json"
        frame = struct.pack("<II", len(payload),
                            zlib.crc32(payload)) + payload
        path.write_bytes(WAL_MAGIC + frame)
        with pytest.raises(WALCorruptionError):
            WriteAheadLog(path).open()

    def test_record_without_op_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(WAL_MAGIC + encode_record({"x": 1}))
        with pytest.raises(WALCorruptionError):
            WriteAheadLog(path).open()


class TestEngineDurability:
    """Committed statements survive without any checkpoint."""

    def test_committed_rows_survive_without_checkpoint(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v text)")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        # no checkpoint, no close: the WAL alone must carry the data
        reopened = Database(data_directory=tmp_path / "d")
        assert reopened.query("SELECT id, v FROM t ORDER BY id") == [
            (1, "a"), (2, "b")]

    def test_uncommitted_transaction_is_invisible_after_reopen(
            self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (id integer)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (2)")
        # crash before COMMIT: just abandon the instance
        reopened = Database(data_directory=tmp_path / "d")
        assert reopened.query("SELECT id FROM t") == [(1,)]

    def test_committed_transaction_survives(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (id integer)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
        db.execute("COMMIT")
        reopened = Database(data_directory=tmp_path / "d")
        assert reopened.query("SELECT id FROM t ORDER BY id") == [
            (1,), (2,)]

    def test_rolled_back_work_never_reaches_the_log(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (id integer)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (9)")
        db.execute("ROLLBACK")
        db.execute("INSERT INTO t VALUES (1)")
        reopened = Database(data_directory=tmp_path / "d")
        assert reopened.query("SELECT id FROM t") == [(1,)]

    def test_deletes_and_updates_replay(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v text)")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        db.checkpoint()
        db.execute("UPDATE t SET v = 'z' WHERE id = 2")
        db.execute("DELETE FROM t WHERE id = 1")
        reopened = Database(data_directory=tmp_path / "d")
        assert reopened.query("SELECT id, v FROM t ORDER BY id") == [
            (2, "z"), (3, "c")]

    def test_ddl_replays(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE a (id integer)")
        db.execute("CREATE TABLE b (id integer)")
        db.execute("CREATE INDEX ix_a ON a (id)")
        db.execute("DROP TABLE b")
        reopened = Database(data_directory=tmp_path / "d")
        assert reopened.catalog.table_names() == ["a"]
        assert "ix_a" in reopened.catalog.get_table("a").indexes

    def test_clock_resumes_past_recovered_ticks(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (id integer)")
        db.execute("INSERT INTO t VALUES (1)")
        before = db.clock.now
        reopened = Database(data_directory=tmp_path / "d")
        assert reopened.clock.now >= before

    def test_rowids_stay_monotonic_after_recovery(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (id integer)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.execute("DELETE FROM t WHERE id = 3")
        reopened = Database(data_directory=tmp_path / "d")
        table = reopened.catalog.get_table("t")
        assert table.next_rowid > max(table.rows, default=0)
        reopened.execute("INSERT INTO t VALUES (4)")
        assert len(set(table.rows)) == table.row_count

    def test_checkpoint_inside_transaction_raises(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (id integer)")
        db.execute("BEGIN")
        with pytest.raises(TransactionError):
            db.checkpoint()
        db.execute("ROLLBACK")

    def test_checkpoint_resets_wal(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (id integer)")
        db.execute("INSERT INTO t VALUES (1)")
        assert (tmp_path / "d" / "wal.log").stat().st_size > len(WAL_MAGIC)
        db.checkpoint()
        assert (tmp_path / "d" / "wal.log").read_bytes() == WAL_MAGIC
        reopened = Database(data_directory=tmp_path / "d")
        assert reopened.query("SELECT id FROM t") == [(1,)]

    def test_dropped_table_file_removed_at_checkpoint(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (id integer)")
        db.checkpoint()
        assert (tmp_path / "d" / "t.tbl").exists()
        db.execute("DROP TABLE t")
        assert (tmp_path / "d" / "t.tbl").exists()  # deferred
        db.checkpoint()
        assert not (tmp_path / "d" / "t.tbl").exists()

    def test_autoflush_mirrors_committed_state(self, tmp_path):
        db = Database(data_directory=tmp_path / "d", autoflush=True)
        db.execute("CREATE TABLE t (id integer)")
        db.execute("INSERT INTO t VALUES (1)")
        reopened = Database(data_directory=tmp_path / "d")
        assert reopened.query("SELECT id FROM t") == [(1,)]


class TestRedoToLastStates:
    """Recovery installs each row's last committed state, one batch per
    table, so keys that collide only midway through the log converge,
    and final states that really collide refuse in one line."""

    def checkpointed(self, directory):
        db = Database(data_directory=directory)
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v text)")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        db.checkpoint()
        return db

    def reopen_error(self, directory):
        with pytest.raises(WALCorruptionError) as caught:
            Database(data_directory=directory)
        message = str(caught.value)
        assert "\n" not in message
        return message

    def test_keys_colliding_midway_converge(self, tmp_path):
        db = self.checkpointed(tmp_path / "d")
        # rowid 2 takes key 1 before rowid 1 gives it up
        db.wal.append({"op": "put", "table": "t", "rowid": 2,
                       "version": 5, "values": ["1", "b"]})
        db.wal.append({"op": "put", "table": "t", "rowid": 1,
                       "version": 5, "values": ["9", "a"]})
        db.wal.commit(tick=5)
        reopened = Database(data_directory=tmp_path / "d")
        assert reopened.query("SELECT id, v FROM t ORDER BY id") == [
            (1, "b"), (9, "a")]

    def test_final_states_sharing_a_key_refuse(self, tmp_path):
        db = self.checkpointed(tmp_path / "d")
        db.wal.append({"op": "put", "table": "t", "rowid": 2,
                       "version": 5, "values": ["1", "b"]})
        db.wal.commit(tick=5)
        message = self.reopen_error(tmp_path / "d")
        assert "duplicate primary key (1,) in table t" in message

    def test_put_into_a_table_never_created_refuses(self, tmp_path):
        db = self.checkpointed(tmp_path / "d")
        db.wal.append({"op": "put", "table": "ghost", "rowid": 1,
                       "version": 5, "values": ["1"]})
        db.wal.commit(tick=5)
        message = self.reopen_error(tmp_path / "d")
        assert "table 'ghost' does not exist" in message

    def test_unparsable_cell_refuses(self, tmp_path):
        db = self.checkpointed(tmp_path / "d")
        db.wal.append({"op": "put", "table": "t", "rowid": 3,
                       "version": 5, "values": ["x9", "c"]})
        db.wal.commit(tick=5)
        message = self.reopen_error(tmp_path / "d")
        assert "invalid literal for int() with base 10: 'x9'" in message

    def test_rowid_counter_passes_rows_put_then_deleted(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (id integer)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.execute("DELETE FROM t WHERE id = 3")
        reopened = Database(data_directory=tmp_path / "d")
        assert reopened.catalog.get_table("t").next_rowid == 4

    def test_dropped_table_leaves_no_states(self, tmp_path):
        db = Database(data_directory=tmp_path / "d")
        db.execute("CREATE TABLE t (id integer PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id integer PRIMARY KEY, v text)")
        db.execute("INSERT INTO t VALUES (5, 'x')")
        reopened = Database(data_directory=tmp_path / "d")
        assert reopened.query("SELECT id, v FROM t") == [(5, "x")]
        assert reopened.catalog.get_table("t").next_rowid == 2


class TestLegacyPartitionRecords:
    """Data directories written while the engine still hash-partitioned
    heaps for parallel scans carry ``{"op": "partition"}`` WAL records
    and a ``"partitions"`` checkpoint meta key. Neither holds row
    state, so recovery skips both and restores the same tables."""

    def write_legacy_directory(self, directory):
        db = Database(data_directory=directory)
        db.execute("CREATE TABLE t (k integer, v text)")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        db.checkpoint()
        meta_path = directory / "checkpoint.json"
        meta = json.loads(meta_path.read_text())
        meta["partitions"] = {"t": {"column": "k", "count": 4}}
        meta_path.write_text(json.dumps(meta))
        db.wal.append({"op": "partition", "table": "t",
                       "column": "k", "count": 4})
        db.wal.commit(tick=db.clock.now)
        db.execute("INSERT INTO t VALUES (3, 'c')")
        db.wal.append({"op": "partition", "table": "t",
                       "column": None, "count": 0})
        db.wal.commit(tick=db.clock.now)
        db.execute("UPDATE t SET v = 'z' WHERE k = 1")
        # no close(): that would checkpoint and reset the WAL

    def test_legacy_records_recover_tables_and_rows(self, tmp_path):
        directory = tmp_path / "d"
        self.write_legacy_directory(directory)
        reopened = Database(data_directory=directory)
        assert reopened.last_recovery.committed_batches == 4
        assert reopened.catalog.table_names() == ["t"]
        assert reopened.query("SELECT k, v FROM t ORDER BY k") == [
            (1, "z"), (2, "b"), (3, "c")]
        reopened.execute("INSERT INTO t VALUES (4, 'd')")
        reopened.checkpoint()
        # the next checkpoint no longer writes the legacy key
        meta = json.loads((directory / "checkpoint.json").read_text())
        assert "partitions" not in meta
        again = Database(data_directory=directory)
        assert again.query("SELECT count(*) FROM t") == [(4,)]


class TestLegacyStatisticsRecords:
    """Data directories written while the engine still kept ANALYZE
    planner statistics carry ``{"op": "analyze"}`` WAL records and a
    ``"stats"`` checkpoint meta key. Neither holds row state, so
    recovery skips both and restores the same rows and versions."""

    STATS = {"row_count": 2, "columns": {
        "k": {"ndv": 2, "null_fraction": 0.0, "min": 1, "max": 2,
              "histogram": [1, 2, 2]},
        "v": {"ndv": 1, "null_fraction": 0.5, "min": "a", "max": "a",
              "histogram": ["a", "a"]}}}

    @staticmethod
    def rows(db):
        table = db.catalog.get_table("t")
        return sorted((rowid, table.versions[rowid], row)
                      for rowid, row in table.rows.items())

    def test_legacy_records_recover_rows_and_versions(self, tmp_path):
        directory = tmp_path / "d"
        db = Database(data_directory=directory)
        db.execute("CREATE TABLE t (k integer PRIMARY KEY, v text)")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, NULL)")
        db.checkpoint()
        meta_path = directory / "checkpoint.json"
        meta = json.loads(meta_path.read_text())
        meta["stats"] = {"t": self.STATS}
        meta_path.write_text(json.dumps(meta))
        db.wal.append({"op": "analyze", "table": "t", "stats": self.STATS})
        db.wal.commit(tick=db.clock.now)
        db.execute("UPDATE t SET v = 'z' WHERE k = 2")
        expected = self.rows(db)
        # no close(): that would checkpoint and reset the WAL

        reopened = Database(data_directory=directory)
        assert reopened.last_recovery.committed_batches == 2
        assert self.rows(reopened) == expected
        reopened.checkpoint()
        assert self.rows(Database(data_directory=directory)) == expected
