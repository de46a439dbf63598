"""Unit tests for repro.storage.table: access paths must equal the oracle."""

import pytest

from repro.model.entities import EntityType
from repro.model.time import TimeWindow
from repro.storage.database import narrow_with_index
from repro.storage.filters import AttrPredicate, EventFilter, PredicateLeaf
from repro.storage.index import EntityAttributeIndex
from repro.storage.ingest import Ingestor
from repro.storage.table import EventTable
from tests.oracle import table_oracle_rows


@pytest.fixture()
def populated():
    """A table with a mix of file/process/network events."""
    ingestor = Ingestor()
    reg = ingestor.registry
    table = EventTable(reg.get)
    index = EntityAttributeIndex()

    class _Sink:
        registry = reg

        def register_entity(self, entity):
            index.add(entity)

        def add_batch(self, block):
            table.append_block(block)

    ingestor.attach(_Sink())
    shell = ingestor.process(1, 10, "bash")
    editor = ingestor.process(1, 11, "vim")
    browser = ingestor.process(2, 12, "firefox")
    passwd = ingestor.file(1, "/etc/passwd")
    notes = ingestor.file(1, "/home/u/notes.txt")
    conn = ingestor.connection(2, "10.0.0.2", 5000, "8.8.8.8", 443)
    ingestor.emit(1, 100.0, "read", shell, passwd)
    ingestor.emit(1, 200.0, "write", editor, notes, amount=100)
    ingestor.emit(1, 300.0, "start", shell, editor)
    ingestor.emit(2, 400.0, "connect", browser, conn)
    ingestor.emit(2, 500.0, "read", browser, conn, amount=4096)
    return table, index, {"shell": shell, "editor": editor, "passwd": passwd}


class TestScanPaths:
    def test_scan_equals_oracle_empty_filter(self, populated):
        table, index, _ = populated
        flt = EventFilter()
        events = table.scan_select(narrow_with_index(flt, index)).events()
        assert events == table_oracle_rows(table, flt)

    def test_time_index_path(self, populated):
        table, index, _ = populated
        flt = EventFilter(window=TimeWindow(start=150.0, end=450.0))
        events = table.scan_select(narrow_with_index(flt, index)).events()
        assert [e.start_time for e in events] == [200.0, 300.0, 400.0]
        assert events == table_oracle_rows(table, flt)

    def test_entity_index_path(self, populated):
        table, index, _ = populated
        flt = EventFilter(
            subject_pred=PredicateLeaf(AttrPredicate("exe_name", "=", "bash")),
        )
        events = table.scan_select(narrow_with_index(flt, index)).events()
        assert len(events) == 2
        assert events == table_oracle_rows(table, flt)

    def test_object_index_path(self, populated):
        table, index, _ = populated
        flt = EventFilter(
            object_type=EntityType.FILE,
            object_pred=PredicateLeaf(AttrPredicate("name", "=", "%passwd")),
        )
        events = table.scan_select(narrow_with_index(flt, index)).events()
        assert len(events) == 1
        assert events == table_oracle_rows(table, flt)

    def test_id_set_path(self, populated):
        table, index, keys = populated
        flt = EventFilter(subject_ids=frozenset({keys["shell"].id}))
        events = table.scan_select(narrow_with_index(flt, index)).events()
        assert {e.subject_id for e in events} == {keys["shell"].id}
        assert events == table_oracle_rows(table, flt)

    def test_results_sorted_by_time(self, populated):
        table, index, _ = populated
        events = table.scan_select(EventFilter()).events()
        times = [e.start_time for e in events]
        assert times == sorted(times)

    def test_min_max_time_tracked(self, populated):
        table, _, _ = populated
        assert table.min_time == 100.0
        assert table.max_time == 500.0

    def test_scan_without_entity_index(self, populated):
        table, _, _ = populated
        flt = EventFilter(
            subject_pred=PredicateLeaf(AttrPredicate("exe_name", "=", "bash")),
        )
        # no index: falls back to scanning, same results
        assert table.scan_select(flt).events() == table_oracle_rows(table, flt)

    def test_len_counts_visible_rows(self, populated):
        table, _, _ = populated
        assert len(table) == 5
        assert len(table.scan_select(EventFilter()).events()) == 5


class TestIdSetTimeIntersection:
    """The id-set access path must drop out-of-window positions when the
    window is bounded, instead of walking every posting position."""

    def test_bounded_window_with_id_set(self, populated):
        table, index, keys = populated
        flt = EventFilter(
            subject_ids=frozenset({keys["shell"].id}),
            window=TimeWindow(start=150.0, end=350.0),
        )
        events = table.scan_select(narrow_with_index(flt, index)).events()
        assert [e.start_time for e in events] == [300.0]
        assert events == table_oracle_rows(table, flt)

    def test_candidates_pruned_by_time_window(self, populated):
        table, index, keys = populated
        flt = EventFilter(
            subject_ids=frozenset({keys["shell"].id}),
            window=TimeWindow(start=150.0, end=350.0),
        )
        positions = list(table._candidate_positions(narrow_with_index(flt, index)))
        # shell has postings at t=100 and t=300; only t=300 is in-window,
        # so the walk must touch a single position.
        assert len(positions) == 1

    def test_unbounded_window_unchanged(self, populated):
        table, index, keys = populated
        flt = EventFilter(subject_ids=frozenset({keys["shell"].id}))
        events = table.scan_select(narrow_with_index(flt, index)).events()
        assert [e.start_time for e in events] == [100.0, 300.0]
        assert events == table_oracle_rows(table, flt)

    def test_covering_window_skips_intersection(self, populated):
        table, index, keys = populated
        flt = EventFilter(
            subject_ids=frozenset({keys["shell"].id}),
            window=TimeWindow(start=0.0, end=1000.0),
        )
        # Window covers the whole table: _window_cuts is False and the
        # id-set path alone decides.
        assert not table._window_cuts(flt.window)
        events = table.scan_select(narrow_with_index(flt, index)).events()
        assert events == table_oracle_rows(table, flt)


class TestPostingsUnion:
    """Id sets resolve through one union of their postings lists."""

    @pytest.mark.parametrize(
        "subjects,objects",
        [
            ({"shell"}, None),
            ({"shell", "editor", 9999}, None),  # an id with no postings
            ({9999}, None),
            (None, {"passwd", "editor"}),
            ({"shell", "editor"}, {"passwd", "editor", 9999}),
        ],
        ids=str,
    )
    def test_candidates_are_the_rows_the_id_sets_name(
        self, populated, subjects, objects
    ):
        table, _, keys = populated

        def ids(names):
            if names is None:
                return None
            return frozenset(
                keys[n].id if isinstance(n, str) else n for n in names
            )

        flt = EventFilter(subject_ids=ids(subjects), object_ids=ids(objects))
        block = table.block
        expected = [
            p
            for p in range(len(table))
            if (flt.subject_ids is None or block.subject_ids[p] in flt.subject_ids)
            and (flt.object_ids is None or block.object_ids[p] in flt.object_ids)
        ]
        assert list(table._candidate_positions(flt)) == expected
        assert table.scan_select(flt).events() == table_oracle_rows(table, flt)
