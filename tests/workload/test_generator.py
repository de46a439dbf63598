"""Background generator tests: determinism, volume, realism."""

from repro.baselines.flat import FlatStore
from repro.storage.ingest import Ingestor
from repro.workload.generator import BackgroundGenerator, GeneratorConfig
from repro.workload.topology import BASE_DAY, HOSTS


def generate(seed=1, days=2, rate=50, hosts=HOSTS[:4]):
    ingestor = Ingestor()
    store = FlatStore(registry=ingestor.registry)
    ingestor.attach(store)
    config = GeneratorConfig(
        seed=seed, hosts=hosts, days=days, events_per_host_day=rate
    )
    BackgroundGenerator(ingestor, config).run()
    return store


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = generate(seed=42)
        b = generate(seed=42)
        sig_a = [(e.agent_id, e.start_time, e.operation) for e in a]
        sig_b = [(e.agent_id, e.start_time, e.operation) for e in b]
        assert sig_a == sig_b

    def test_different_seed_different_stream(self):
        a = generate(seed=1)
        b = generate(seed=2)
        sig_a = [(e.agent_id, e.start_time) for e in a]
        sig_b = [(e.agent_id, e.start_time) for e in b]
        assert sig_a != sig_b


class TestVolumeAndShape:
    def test_rate_approximately_honored(self):
        store = generate(days=2, rate=100, hosts=HOSTS[:4])
        per_host_day = len(store) / (2 * 4)
        assert 50 <= per_host_day <= 130

    def test_every_host_produces_events(self):
        store = generate()
        agents = {e.agent_id for e in store}
        assert agents == {h.agent_id for h in HOSTS[:4]}

    def test_events_inside_simulation_window(self):
        store = generate(days=2)
        for event in store:
            assert BASE_DAY <= event.start_time < BASE_DAY + 2 * 86400

    def test_file_events_dominate(self):
        """Real monitoring data is file-heavy — the premise behind the
        scheduler's process/network-before-file relationship ordering."""
        store = generate(days=2, rate=200)
        from repro.model.events import EventType

        counts = {t: 0 for t in EventType}
        for event in store:
            counts[event.event_type] += 1
        assert counts[EventType.FILE] > counts[EventType.PROCESS]
        assert counts[EventType.FILE] > counts[EventType.NETWORK]

    def test_sequence_monotone_per_agent(self):
        store = generate()
        last = {}
        for event in store:
            assert event.seq > last.get(event.agent_id, 0)
            last[event.agent_id] = event.seq

    def test_role_specific_activity(self):
        """Servers emit their role processes (apache/sqlservr/postfix)."""
        store = generate(days=3, rate=300, hosts=HOSTS[:5])
        reg = store.registry
        exes = {
            reg.get(e.subject_id).exe_name for e in store
        }
        assert "apache2" in exes
        assert "sqlservr.exe" in exes
        assert "postfix" in exes
