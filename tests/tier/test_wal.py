"""Write-ahead log: durability, torn-tail detection, idempotent replay."""

import fcntl
import io
import os
import struct

import pytest

from repro.model.entities import EntityRegistry
from repro.storage.blocks import ColumnBlock
from repro.storage.codec import WAL_RECORD_KIND, pack_frame, read_frame
from repro.storage.database import EventStore
from repro.storage.filters import EventFilter
from repro.tier.wal import FILE_MAGIC, WALError, WriteAheadLog

from tests.oracle import rows
from tests.tier.conftest import day_ts


def _batch(feed, agent, day, count):
    return [feed.build(agent, day_ts(day, 60.0 * i)) for i in range(count)]


def _block(feed, agent, day, count):
    return ColumnBlock.from_events(_batch(feed, agent, day, count))


def _frames(path):
    """The record frames of a log file, as written."""
    raw = path.read_bytes()
    assert raw.startswith(FILE_MAGIC)
    handle = io.BytesIO(raw[len(FILE_MAGIC):])
    frames = []
    while handle.tell() < len(raw) - len(FILE_MAGIC):
        frames.append(read_frame(handle))
    return frames


class TestAppendReplay:
    def test_roundtrip(self, feed, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        events = _batch(feed, 1, 0, 5)
        entities = [feed.entities(1)[0], feed.entities(1)[1]]
        number = wal.append(entities, ColumnBlock.from_events(events))
        assert number == 1
        assert wal.append([], _block(feed, 2, 1, 3)) == 2

        records = list(wal.replay())
        assert [r.number for r in records] == [1, 2]
        assert records[0].events == tuple(events)
        assert records[0].max_event_id == events[-1].event_id
        assert len(records[0].entity_records) == 2
        assert wal.stats()["records_appended"] == 2
        wal.close()

    def test_replay_survives_reopen(self, feed, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append([], _block(feed, 1, 0, 2))
        with WriteAheadLog(path) as wal:
            # record numbering continues across reopen
            assert wal.append([], _block(feed, 1, 0, 2)) == 2
            assert [r.number for r in wal.replay()] == [1, 2]

    def test_append_on_closed_log_raises(self, feed, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(WALError):
            wal.append([], _block(feed, 1, 0, 1))

    def test_empty_log_replays_nothing(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        assert list(wal.replay()) == []
        assert wal.size_bytes() == 0
        wal.close()


class TestTornTail:
    def test_partial_last_line_is_discarded(self, feed, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append([], _block(feed, 1, 0, 3))
            wal.append([], _block(feed, 1, 1, 3))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 20])  # crash mid-append
        with WriteAheadLog(path) as wal:
            records = list(wal.replay())
        assert [r.number for r in records] == [1]

    def test_torn_tail_is_truncated_on_open(self, feed, tmp_path):
        """Appends after a torn-tail recovery must stay reachable.

        Without truncation the new record lands behind the partial line
        and every future replay stops before it — acknowledged commits
        written after a crash recovery would be silently lost on the
        *next* restart.
        """
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append([], _block(feed, 1, 0, 3))
            wal.append([], _block(feed, 1, 1, 3))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 20])  # crash mid-append
        with WriteAheadLog(path) as wal:
            assert wal.append([], _block(feed, 1, 2, 2)) == 2
        with WriteAheadLog(path) as wal:
            records = list(wal.replay())
        assert [r.number for r in records] == [1, 2]
        assert len(records[1].events) == 2

    def test_checksum_failure_stops_replay(self, feed, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append([], _block(feed, 1, 0, 2))
            wal.append([], _block(feed, 1, 1, 2))
        first, second = _frames(path)
        corrupt = bytearray(second)
        corrupt[-5] ^= 0x10  # one flipped bit inside record 2
        path.write_bytes(FILE_MAGIC + first + bytes(corrupt))
        with WriteAheadLog(path) as wal:
            assert [r.number for r in wal.replay()] == [1]

    def test_garbage_after_the_last_record_stops_replay(self, feed, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append([], _block(feed, 1, 0, 1))
        with path.open("ab") as handle:
            handle.write(b"[1, 2, 3]\n" * 4)  # no frame tag
        with WriteAheadLog(path) as wal:
            assert len(list(wal.replay())) == 1
            assert wal.torn_tails_detected == 1

    @pytest.mark.parametrize(
        "payload",
        [
            struct.pack("<QQ", 2, 99),  # shorter than a record header
            struct.pack("<QQI", 2, 99, 500),  # entity blob overruns the record
            struct.pack("<QQI", 2, 99, 0),  # no event block at all
        ],
    )
    def test_checksummed_but_incomplete_record_stops_replay(
        self, feed, tmp_path, payload
    ):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append([], _block(feed, 1, 0, 1))
        good = path.stat().st_size
        with path.open("ab") as handle:
            handle.write(pack_frame(WAL_RECORD_KIND, payload))  # valid checksum
        with WriteAheadLog(path) as wal:
            assert [r.number for r in wal.replay()] == [1]
        assert path.stat().st_size == good  # dropped on open, like a torn tail

    def test_checksummed_but_undecodable_record_is_loud(self, feed, tmp_path):
        """A record that passes its checksum was written on purpose; if its
        event block does not decode, that is corruption, not a torn tail —
        stopping quietly would drop an acknowledged batch."""
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append([], _block(feed, 1, 0, 1))
        bogus = struct.pack("<QQI", 2, 99, 0) + b"\x00" * 64
        with path.open("ab") as handle:
            handle.write(pack_frame(WAL_RECORD_KIND, bogus))
        with WriteAheadLog(path) as wal:
            with pytest.raises(WALError, match="undecodable"):
                list(wal.replay())

    def test_first_append_cut_inside_the_file_magic(self, feed, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(FILE_MAGIC[:3])
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == []
            assert wal.append([], _block(feed, 1, 0, 1)) == 1
        with WriteAheadLog(path) as wal:
            assert [r.number for r in wal.replay()] == [1]

    def test_replay_of_deleted_file_is_empty(self, feed, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append([], _block(feed, 1, 0, 1))
        path.unlink()
        assert list(wal.replay()) == []
        assert wal.size_bytes() == 0
        wal.close()

    def test_out_of_order_middle_raises(self, feed, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append([], _block(feed, 1, 0, 1))
            wal.append([], _block(feed, 1, 1, 1))
        _, second = _frames(path)
        # Duplicate record 2: valid checksums but non-monotone numbering,
        # which must be loud (a silently skipped middle would lose a
        # batch).  Opening the log scans it, so the open itself fails.
        path.write_bytes(FILE_MAGIC + second + second)
        with pytest.raises(WALError):
            WriteAheadLog(path)


class TestForeignFiles:
    """A file that is not a log of this format is refused, never emptied."""

    @pytest.mark.parametrize(
        "content",
        [
            b'{"n": 1, "eid": 3, "ents": [], "evts": [], "crc": 1}\n',  # JSON log
            b"AIQLWAL\x02" + b"\x00" * 32,  # another version of the magic
            b"\x00",
        ],
    )
    def test_refused_and_left_byte_identical(self, tmp_path, content):
        path = tmp_path / "wal.log"
        path.write_bytes(content)
        with pytest.raises(WALError, match="not a write-ahead log"):
            WriteAheadLog(path)
        assert path.read_bytes() == content


class TestReplayInto:
    def test_applies_entities_and_events(self, feed, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        events = _batch(feed, 1, 0, 4)
        proc, fobj = feed.entities(1)
        wal.append([proc, fobj], ColumnBlock.from_events(events))

        registry = EntityRegistry()
        store = EventStore(registry=registry)
        applied = wal.replay_into(registry, [store])
        assert applied == 4
        assert len(store) == 4
        assert len(registry) == 2
        wal.close()

    def test_skip_rules_make_replay_idempotent(self, feed, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        first = _batch(feed, 1, 0, 3)
        second = _batch(feed, 1, 1, 3)
        proc, fobj = feed.entities(1)
        wal.append([proc, fobj], ColumnBlock.from_events(first))
        wal.append([], ColumnBlock.from_events(second))

        registry = EntityRegistry()
        store = EventStore(registry=registry)
        snapshot_max = first[-1].event_id  # "already in the snapshot"
        skipped_id = second[0].event_id  # "already migrated cold"
        applied = wal.replay_into(
            registry,
            [store],
            after_event_id=snapshot_max,
            skip_rows=lambda block, positions: [
                p for p in positions if block.event_ids[p] == skipped_id
            ],
        )
        assert applied == 2
        assert {e.event_id for e in rows(store, EventFilter())} == {
            e.event_id for e in second[1:]
        }
        # replaying again over the same store adds nothing new
        applied2 = wal.replay_into(
            registry, [store], after_event_id=second[-1].event_id
        )
        assert applied2 == 0
        wal.close()

    def test_replay_hands_each_block_to_add_block_and_builds_no_rows(
        self, feed, tmp_path
    ):
        class BlockStore(EventStore):
            def __init__(self, registry):
                super().__init__(registry=registry)
                self.calls = []

            def add_block(self, block, positions=None):
                self.calls.append((block, positions))
                super().add_block(block, positions)

        wal = WriteAheadLog(tmp_path / "wal.log")
        whole = _batch(feed, 1, 0, 3)
        partly = _batch(feed, 1, 1, 4)
        covered = _batch(feed, 1, 2, 2)
        for batch in (whole, partly, covered):
            wal.append([], ColumnBlock.from_events(batch))
        registry = EntityRegistry()
        store = BlockStore(registry)
        gone = {partly[0].event_id, partly[2].event_id} | {
            e.event_id for e in covered
        }
        applied = wal.replay_into(
            registry,
            [store],
            skip_rows=lambda block, positions: [
                p for p in positions if block.event_ids[p] in gone
            ],
        )
        assert applied == 5
        # a whole record passes without a position list, a partly skipped
        # one with the surviving positions, a fully skipped one not at all
        assert [positions for _, positions in store.calls] == [None, [1, 3]]
        assert all(not block.rows_materialized for block, _ in store.calls)
        assert all(not block.rows_materialized for block, _ in store.column_blocks())
        assert wal.stats()["replay_events_skipped"] == 4
        assert {e.event_id for e in rows(store, EventFilter())} == {
            e.event_id for e in whole + [partly[1], partly[3]]
        }
        wal.close()


class TestReset:
    def test_reset_truncates_and_restarts_numbering(self, feed, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append([], _block(feed, 1, 0, 2))
        assert wal.size_bytes() > 0
        wal.reset()
        assert wal.size_bytes() == 0
        assert list(wal.replay()) == []
        assert wal.append([], _block(feed, 1, 1, 1)) == 1
        wal.close()

    def test_sync_is_in_the_write_from_open_and_after_reset(self, feed, tmp_path):
        """``sync`` opens the log O_SYNC (one blocking call per ack, not a
        write and then an fsync), and a reset reopens it the same way."""

        def synchronous(wal):
            return bool(fcntl.fcntl(wal._handle.fileno(), fcntl.F_GETFL) & os.O_SYNC)

        with WriteAheadLog(tmp_path / "wal.log") as wal:
            assert synchronous(wal)
            wal.append([], _block(feed, 1, 0, 2))
            wal.reset()
            assert synchronous(wal)
        with WriteAheadLog(tmp_path / "nosync.log", sync=False) as wal:
            assert not synchronous(wal)
            wal.reset()
            assert not synchronous(wal)

    def test_an_append_is_on_disk_when_it_returns(self, feed, tmp_path):
        """No buffered tail: another reader of the file sees the whole
        record as soon as ``append`` has returned, whatever its size."""
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            for count in (1, 40, 300):  # under, about and over the io buffer
                wal.append([], _block(feed, 1, 0, count))
                assert len(_frames(path)[-1]) > 60 * count
                assert path.stat().st_size == wal.size_bytes()
        with WriteAheadLog(path) as reopened:
            assert [len(r.block) for r in reopened.replay()] == [1, 40, 300]

    def test_nosync_mode_still_replays(self, feed, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log", sync=False) as wal:
            wal.append([], _block(feed, 1, 0, 2))
            assert len(list(wal.replay())) == 1
