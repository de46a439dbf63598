"""Scenario injection ground-truth tests."""

from repro.model.time import DAY, TimeWindow
from repro.storage.filters import (
    AttrPredicate,
    EventFilter,
    PredicateLeaf,
)
from repro.workload.topology import (
    APT2_DAY,
    APT_DAY,
    ABNORMAL_DAY,
    ATTACKER_IP,
    DEPENDENCY_DAY,
    MALWARE_DAY,
)
from tests.oracle import rows


def scan_exe(store, agent, day, exe, op=None):
    flt = EventFilter(
        agent_ids=frozenset({agent}),
        window=TimeWindow(day, day + DAY),
        subject_pred=PredicateLeaf(AttrPredicate("exe_name", "=", exe)),
    )
    events = rows(store, flt)
    if op:
        events = [e for e in events if e.operation.value == op]
    return events


class TestAptCaseStudy:
    def test_c1_outlook_writes_attachment(self, store):
        events = scan_exe(store, 1, APT_DAY, "outlook.exe", "write")
        names = {store.registry.get(e.object_id).name for e in events}
        assert any("quarterly_report" in n for n in names)

    def test_c2_excel_starts_payload(self, store):
        events = scan_exe(store, 1, APT_DAY, "excel.exe", "start")
        children = {store.registry.get(e.object_id).exe_name for e in events}
        assert "payload.exe" in children

    def test_c3_gsecdump_reads_sam(self, store):
        events = scan_exe(store, 1, APT_DAY, "gsecdump.exe", "read")
        names = {store.registry.get(e.object_id).name for e in events}
        assert any("SAM" in n for n in names)

    def test_c4_wscript_drops_sbblv(self, store):
        events = scan_exe(store, 3, APT_DAY, "wscript.exe", "write")
        names = {store.registry.get(e.object_id).name for e in events}
        assert any("sbblv.exe" in n for n in names)

    def test_c5_exfiltration_to_attacker(self, store):
        events = scan_exe(store, 3, APT_DAY, "sbblv.exe", "write")
        ips = {
            store.registry.get(e.object_id).attribute("dst_ip")
            for e in events
            if e.object_type.value == "ip"
        }
        assert ATTACKER_IP in ips

    def test_c5_burst_amount_exceeds_beacons(self, store):
        events = scan_exe(store, 3, APT_DAY, "sbblv.exe", "write")
        amounts = sorted(e.amount for e in events if e.object_type.value == "ip")
        assert amounts[-1] > 100 * amounts[0]

    def test_attack_confined_to_attack_day(self, store):
        """sbblv.exe must not appear on other days (no ground-truth leak)."""
        for day in (APT_DAY - DAY, APT_DAY + DAY):
            assert not scan_exe(store, 3, day, "sbblv.exe")


class TestApt2:
    def test_a1_download(self, store):
        events = scan_exe(store, 5, APT2_DAY, "firefox", "write")
        names = {store.registry.get(e.object_id).name for e in events}
        assert any("flash_update" in n for n in names)

    def test_a4_shadow_read(self, store):
        events = scan_exe(store, 4, APT2_DAY, "sh", "read")
        names = {store.registry.get(e.object_id).name for e in events}
        assert "/etc/shadow" in names


class TestDependencyScenarios:
    def test_d3_cross_host_flow_same_tuple(self, store):
        """Both hosts record the info_stealer flow with identical
        (dst_ip, dst_port) — the correlation key of dependency rewriting."""
        reg = store.registry
        web_events = scan_exe(store, 4, DEPENDENCY_DAY, "apache2", "send")
        dev_events = scan_exe(store, 5, DEPENDENCY_DAY, "wget", "recv")
        web_tuples = {
            (reg.get(e.object_id).dst_ip, reg.get(e.object_id).dst_port)
            for e in web_events
        }
        dev_tuples = {
            (reg.get(e.object_id).dst_ip, reg.get(e.object_id).dst_port)
            for e in dev_events
        }
        assert web_tuples & dev_tuples


class TestMalwareScenarios:
    def test_all_five_samples_present(self, store, enterprise):
        from repro.workload.behaviors import MALWARE_SAMPLES

        for _vid, name, _cat, agent in MALWARE_SAMPLES:
            events = scan_exe(store, agent, MALWARE_DAY, f"{name}.exe")
            assert events, f"sample {name} missing on agent {agent}"

    def test_categories_behave_differently(self, store):
        # Hooker writes keys.log; Autorun writes autorun.inf
        hooker = scan_exe(store, 11, MALWARE_DAY,
                          "425327783e88bb6492753849bc43b7a0.exe", "write")
        names = {store.registry.get(e.object_id).name for e in hooker
                 if e.object_type.value == "file"}
        assert any("keys.log" in n for n in names)
        autorun = scan_exe(store, 12, MALWARE_DAY,
                           "ee111901739531d6963ab1ee3ecaf280.exe", "write")
        names = {store.registry.get(e.object_id).name for e in autorun}
        assert any("autorun.inf" in n for n in names)


class TestAbnormalScenarios:
    def test_s3_forty_distinct_ips(self, store):
        events = scan_exe(store, 11, ABNORMAL_DAY, "nmap", "connect")
        ips = {store.registry.get(e.object_id).dst_ip for e in events}
        assert len(ips) == 40

    def test_s4_delete_after_write(self, store):
        writes = scan_exe(store, 12, ABNORMAL_DAY, "shred", "write")
        deletes = scan_exe(store, 12, ABNORMAL_DAY, "shred", "delete")
        assert writes and deletes
        written = {e.object_id for e in writes}
        deleted = {e.object_id for e in deletes}
        assert written & deleted
