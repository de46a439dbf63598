"""Snapshot persistence round-trip tests."""

import io
import struct

import pytest

from repro.baselines.flat import FlatStore
from repro.engine.executor import MultieventExecutor
from repro.model.entities import EntityRegistry
from repro.storage.database import EventStore
from repro.storage.ingest import Ingestor
from repro.storage.codec import (
    ENTITY_KIND,
    SNAPSHOT_HEADER_KIND,
    pack_frame,
    read_frame,
)
from repro.storage.persist import (
    SnapshotError,
    load_snapshot,
    save_snapshot,
    write_snapshot,
)
from repro.workload.corpus import by_id
from repro.workload.loader import build_enterprise
from tests.conftest import compile_text


@pytest.fixture(scope="module")
def small_enterprise():
    return build_enterprise(events_per_host_day=30)


class TestRoundTrip:
    def test_events_and_entities_preserved(self, small_enterprise, tmp_path):
        source = small_enterprise.store()
        path = tmp_path / "snap.blk"
        written = save_snapshot(path, small_enterprise.registry, iter(source))
        assert written == len(source)

        registry = EntityRegistry()
        restored = EventStore(registry=registry)
        loaded = load_snapshot(path, registry, [restored])
        assert loaded == written
        assert len(restored) == len(source)
        assert len(registry) == len(small_enterprise.registry)

    def test_query_results_identical_after_restore(
        self, small_enterprise, tmp_path
    ):
        source = small_enterprise.store()
        path = tmp_path / "snap.blk"
        save_snapshot(path, small_enterprise.registry, iter(source))

        registry = EntityRegistry()
        restored = FlatStore(registry=registry)  # a baseline store
        load_snapshot(path, registry, [restored])

        query = by_id("c5-7").text
        ctx = compile_text(query)
        before = set(MultieventExecutor(source).run(ctx).rows)
        after = set(MultieventExecutor(restored).run(ctx).rows)
        assert before == after and before

    def test_restore_into_multiple_backends(self, small_enterprise, tmp_path):
        path = tmp_path / "snap.blk"
        source = small_enterprise.store()
        save_snapshot(path, small_enterprise.registry, iter(source))
        registry = EntityRegistry()
        flat = FlatStore(registry=registry)
        partitioned = EventStore(registry=registry)
        load_snapshot(path, registry, [flat, partitioned])
        assert len(flat) == len(partitioned) == len(source)

    def test_extension_entities_survive(self, tmp_path):
        ingestor = Ingestor()
        store = EventStore(registry=ingestor.registry)
        ingestor.attach(store)
        proc = ingestor.process(1, 10, "evil.exe")
        key = ingestor.registry_value(1, "HKCU/Run", "evil")
        fifo = ingestor.pipe(1, "/run/p")
        ingestor.emit(1, 100.0, "write", proc, key)
        ingestor.emit(1, 101.0, "write", proc, fifo, amount=9)

        path = tmp_path / "snap.blk"
        save_snapshot(path, ingestor.registry, iter(store))
        registry = EntityRegistry()
        restored = EventStore(registry=registry)
        load_snapshot(path, registry, [restored])
        events = list(restored)
        assert len(events) == 2
        assert registry.get(events[0].object_id).key == "HKCU/Run"
        assert registry.get(events[1].object_id).name == "/run/p"


def _populated(events=2):
    ingestor = Ingestor()
    store = EventStore(registry=ingestor.registry)
    ingestor.attach(store)
    p = ingestor.process(1, 10, "a")
    f = ingestor.file(1, "/x")
    for i in range(events):
        ingestor.emit(1, 1.0 + i, "read", p, f)
    return ingestor, store


def _frames(raw):
    handle = io.BytesIO(raw)
    frames = []
    while handle.tell() < len(raw):
        frames.append(read_frame(handle))
    return frames


class TestBlockWriter:
    def test_checkpoint_style_write_builds_no_row_objects(self, tmp_path):
        ingestor, store = _populated(events=6)
        path = tmp_path / "snap.blk"
        written = write_snapshot(path, ingestor.registry, store.column_blocks())
        assert written == 6
        (block, _), = store.column_blocks()
        assert not block.rows_materialized
        registry = EntityRegistry()
        restored = EventStore(registry=registry)
        assert load_snapshot(path, registry, [restored]) == 6
        assert list(restored) == list(store)

    def test_only_the_visible_prefix_is_written(self, tmp_path):
        ingestor, store = _populated(events=6)
        path = tmp_path / "snap.blk"
        (block, visible), = store.column_blocks()
        assert write_snapshot(path, ingestor.registry, [(block, visible - 2)]) == 4
        registry = EntityRegistry()
        restored = EventStore(registry=registry)
        assert load_snapshot(path, registry, [restored]) == 4
        assert list(restored) == list(store)[:4]

    @pytest.mark.parametrize(
        "chunk, frames",
        [(4, 1 + 1 + 3), (1, 1 + 2 + 10)],  # header + entity + event frames
    )
    def test_entities_and_iterables_are_chunked_into_frames(
        self, tmp_path, monkeypatch, chunk, frames
    ):
        from repro.storage import persist

        monkeypatch.setattr(persist, "_CHUNK_ROWS", chunk)
        ingestor, store = _populated(events=10)
        path = tmp_path / "snap.blk"
        assert save_snapshot(path, ingestor.registry, iter(store)) == 10
        assert len(_frames(path.read_bytes())) == frames
        registry = EntityRegistry()
        restored = EventStore(registry=registry)
        assert load_snapshot(path, registry, [restored]) == 10
        assert list(restored) == list(store)
        assert list(registry) == list(ingestor.registry)


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.blk"
        path.write_bytes(b"")
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path, EntityRegistry(), [])

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.blk"
        path.write_bytes(pack_frame(SNAPSHOT_HEADER_KIND, struct.pack("<HQQ", 99, 0, 0)))
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(path, EntityRegistry(), [])

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.blk"
        path.write_bytes(pack_frame(SNAPSHOT_HEADER_KIND, b"\x02\x00"))
        with pytest.raises(SnapshotError, match="header"):
            load_snapshot(path, EntityRegistry(), [])

    def test_truncated_entities(self, tmp_path):
        path = tmp_path / "trunc.blk"
        path.write_bytes(
            pack_frame(SNAPSHOT_HEADER_KIND, struct.pack("<HQQ", 2, 3, 0))
            + pack_frame(ENTITY_KIND, b"[]", compress=True)
        )
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path, EntityRegistry(), [])

    def test_legacy_json_snapshot_is_refused(self, tmp_path):
        path = tmp_path / "snapshot.jsonl"
        path.write_text('{"version": 1, "entities": 0}\n')
        with pytest.raises(SnapshotError):
            load_snapshot(path, EntityRegistry(), [])

    def test_non_fresh_registry_detected(self, tmp_path):
        ingestor = Ingestor()
        store = EventStore(registry=ingestor.registry)
        ingestor.attach(store)
        p = ingestor.process(1, 10, "a")
        f = ingestor.file(1, "/x")
        ingestor.emit(1, 1.0, "read", p, f)
        path = tmp_path / "snap.blk"
        save_snapshot(path, ingestor.registry, iter(store))

        dirty = EntityRegistry()
        dirty.file(9, "/occupies-id-1")  # shifts id allocation
        with pytest.raises(SnapshotError, match="mismatch"):
            load_snapshot(path, dirty, [EventStore(registry=dirty)])


class TestDamage:
    """A cut or damaged snapshot never loads short: the header counts the
    events and every frame carries a checksum."""

    def _snapshot(self, tmp_path, monkeypatch):
        from repro.storage import persist

        monkeypatch.setattr(persist, "_CHUNK_ROWS", 4)
        ingestor, store = _populated(events=10)
        path = tmp_path / "snap.blk"
        save_snapshot(path, ingestor.registry, iter(store))
        return path, path.read_bytes()

    def _load(self, path):
        registry = EntityRegistry()
        return load_snapshot(path, registry, [EventStore(registry=registry)])

    def test_truncated_at_a_frame_boundary(self, tmp_path, monkeypatch):
        path, raw = self._snapshot(tmp_path, monkeypatch)
        last = _frames(raw)[-1]
        path.write_bytes(raw[: -len(last)])  # the last event frame is gone
        with pytest.raises(SnapshotError, match="truncated"):
            self._load(path)

    def test_truncated_inside_a_frame(self, tmp_path, monkeypatch):
        path, raw = self._snapshot(tmp_path, monkeypatch)
        path.write_bytes(raw[:-7])
        with pytest.raises(SnapshotError, match="truncated"):
            self._load(path)

    def test_every_single_flipped_bit_is_detected(self, tmp_path, monkeypatch):
        path, raw = self._snapshot(tmp_path, monkeypatch)
        for offset in range(len(raw)):
            damaged = bytearray(raw)
            damaged[offset] ^= 1 << (offset % 8)
            path.write_bytes(bytes(damaged))
            with pytest.raises(SnapshotError):
                self._load(path)

    def test_trailing_bytes_are_refused(self, tmp_path, monkeypatch):
        path, raw = self._snapshot(tmp_path, monkeypatch)
        path.write_bytes(raw + _frames(raw)[-1])  # one event frame too many
        with pytest.raises(SnapshotError, match="more than"):
            self._load(path)

    @pytest.mark.parametrize("section", [b"{not json", b'{"t": "file"}', b"\xff"])
    def test_damaged_entity_section_is_typed(self, tmp_path, section):
        path = tmp_path / "snap.blk"
        path.write_bytes(
            pack_frame(SNAPSHOT_HEADER_KIND, struct.pack("<HQQ", 2, 1, 0))
            + pack_frame(ENTITY_KIND, section, compress=True)
        )
        with pytest.raises(SnapshotError, match="entity section"):
            self._load(path)


class TestAtomicity:
    """A crash mid-snapshot never truncates a previously good snapshot."""

    def _populate(self, events=2):
        return _populated(events)

    def test_failed_write_leaves_old_snapshot_intact(self, tmp_path):
        ingestor, store = self._populate()
        path = tmp_path / "snap.blk"
        save_snapshot(path, ingestor.registry, iter(store))
        good = path.read_bytes()

        def exploding_events():
            yield next(iter(store))
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            save_snapshot(path, ingestor.registry, exploding_events())
        assert path.read_bytes() == good  # old snapshot untouched
        assert not list(tmp_path.glob("*.tmp"))  # temp file cleaned up

        registry = EntityRegistry()
        restored = EventStore(registry=registry)
        assert load_snapshot(path, registry, [restored]) == len(store)

    def test_success_leaves_no_temp_file(self, tmp_path):
        ingestor, store = self._populate()
        path = tmp_path / "snap.blk"
        save_snapshot(path, ingestor.registry, iter(store))
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_events_stream_lazily(self, tmp_path):
        """The writer consumes the event iterable without materializing it."""
        ingestor, store = self._populate(events=5)
        path = tmp_path / "snap.blk"
        consumed = []

        def tracking():
            for event in store:
                consumed.append(event.event_id)
                yield event

        written = save_snapshot(path, ingestor.registry, tracking())
        assert written == 5 and len(consumed) == 5
        registry = EntityRegistry()
        restored = EventStore(registry=registry)
        assert load_snapshot(path, registry, [restored]) == 5
