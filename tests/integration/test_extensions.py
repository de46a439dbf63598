"""Tests for the Sec. 7 monitoring-scope extension: registry + pipes."""

import pytest

from repro.baselines.flat import FlatStore
from repro.baselines.translators import to_cypher, to_sql
from repro.engine.executor import MultieventExecutor
from repro.model.entities import (
    ATTRIBUTES_BY_TYPE,
    EntityRegistry,
    EntityType,
    default_attribute,
)
from repro.model.events import OPERATIONS_BY_OBJECT, Operation
from repro.storage.ingest import IngestError, Ingestor
from repro.workload.topology import BASE_DAY
from tests.conftest import compile_text


class TestModel:
    def test_entity_types_parse(self):
        assert EntityType.parse("reg") is EntityType.REGISTRY
        assert EntityType.parse("registry") is EntityType.REGISTRY
        assert EntityType.parse("pipe") is EntityType.PIPE

    def test_default_attributes(self):
        assert default_attribute(EntityType.REGISTRY) == "key"
        assert default_attribute(EntityType.PIPE) == "name"

    def test_attribute_schema(self):
        assert "value_name" in ATTRIBUTES_BY_TYPE[EntityType.REGISTRY]
        assert "mode" in ATTRIBUTES_BY_TYPE[EntityType.PIPE]

    def test_operations(self):
        assert Operation.WRITE in OPERATIONS_BY_OBJECT[EntityType.REGISTRY]
        assert Operation.DELETE in OPERATIONS_BY_OBJECT[EntityType.REGISTRY]
        assert Operation.CONNECT not in OPERATIONS_BY_OBJECT[EntityType.PIPE]

    def test_registry_dedup(self):
        reg = EntityRegistry()
        a = reg.registry_value(1, "HKCU/Run", "x")
        b = reg.registry_value(1, "HKCU/Run", "x")
        c = reg.registry_value(1, "HKCU/Run", "y")
        assert a is b and a.id != c.id

    def test_pipe_dedup(self):
        reg = EntityRegistry()
        assert reg.pipe(1, "/run/p") is reg.pipe(1, "/run/p")


class TestIngestAndQuery:
    @pytest.fixture()
    def system_store(self):
        ingestor = Ingestor()
        store = FlatStore(registry=ingestor.registry)
        ingestor.attach(store)
        malware = ingestor.process(1, 500, "evil.exe", user="u1")
        shell = ingestor.process(1, 501, "cmd.exe", user="u1")
        run_key = ingestor.registry_value(
            1, "HKCU/Software/Microsoft/Windows/CurrentVersion/Run", "evil"
        )
        fifo = ingestor.pipe(1, "/run/backdoor")
        ingestor.emit(1, BASE_DAY + 100, "write", malware, run_key)
        ingestor.emit(1, BASE_DAY + 200, "start", malware, shell)
        ingestor.emit(1, BASE_DAY + 300, "write", shell, fifo, amount=64)
        return ingestor, store

    def test_illegal_pipe_operation_rejected(self, system_store):
        ingestor, _ = system_store
        proc = ingestor.process(1, 502, "x")
        fifo = ingestor.pipe(1, "/run/q")
        with pytest.raises(IngestError):
            ingestor.emit(1, BASE_DAY, "delete", proc, fifo)

    def test_registry_persistence_query(self, system_store):
        _, store = system_store
        ctx = compile_text('''
            agentid = 1
            (at "01/01/2017")
            proc p1 write reg r1["%CurrentVersion/Run"] as evt1
            proc p1 start proc p2 as evt2
            with evt1 before evt2
            return distinct p1, r1, p2
        ''')
        result = MultieventExecutor(store).run(ctx)
        assert ("evil.exe",) == tuple(
            {row[0] for row in result.rows}
        )

    def test_pipe_query_with_attr(self, system_store):
        _, store = system_store
        ctx = compile_text('''
            agentid = 1
            proc p1 write pipe q1[name = "/run/backdoor"] as evt1
            return p1, q1.mode
        ''')
        result = MultieventExecutor(store).run(ctx)
        assert result.rows == [("cmd.exe", "fifo")]

    def test_bare_value_inference(self, system_store):
        _, store = system_store
        ctx = compile_text('proc p write reg["HKCU%Run"]\nreturn p')
        result = MultieventExecutor(store).run(ctx)
        assert ("evil.exe",) in set(result.rows)

    def test_translators_cover_new_types(self, system_store):
        ctx = compile_text(
            'proc p1 write reg r1["%Run"] as e1\nreturn p1, r1'
        )
        assert "registry_values" in to_sql(ctx).text
        assert ":RegistryValue" in to_cypher(ctx).text


class TestWorkloadIntegration:
    def test_sysbot_persistence_discoverable(self, enterprise):
        """v1/v4 (Sysbot) now persist via a Run key; hunt them with AIQL."""
        store = enterprise.store("partitioned")
        ctx = compile_text('''
            (at "01/09/2017")
            proc p1 write reg r1["%CurrentVersion/Run"] as evt1
            proc p1 connect ip i1[dstport = 6667] as evt2
            with evt1 before evt2
            return distinct p1
        ''')
        result = MultieventExecutor(store).run(ctx)
        names = {row[0] for row in result.rows}
        assert any("7dd95111" in n for n in names)  # v1
        assert any("4e720458" in n for n in names)  # v4

    def test_background_registry_noise_exists(self, enterprise):
        store = enterprise.store("partitioned")
        ctx = compile_text(
            '(at "01/02/2017")\nproc p["%svchost%"] read reg r\nreturn count p'
        )
        result = MultieventExecutor(store).run(ctx)
        assert result.rows[0][0] > 0
