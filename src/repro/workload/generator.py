"""Deterministic background workload generator.

Replaces the paper's auditd/ETW agents: produces the benign system activity
of an enterprise — process trees, file I/O, service daemons, browsing,
mail — as ``<subject, operation, object>`` events with realistic attribute
values.  Everything is driven by a seeded :class:`random.Random`, so a given
``(seed, hosts, days, rate)`` always produces the identical event stream
(bit-for-bit reproducible benchmarks).

The mix is deliberately file-heavy (as real monitoring data is), which is
what gives the scheduler's process/network-before-file relationship sort
(Algorithm 1 step 2) its advantage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.model.time import DAY
from repro.storage.ingest import Ingestor
from repro.workload.topology import (
    BASE_DAY,
    HOSTS,
    Host,
    HostRole,
    MAIL_SERVER,
    SIMULATION_DAYS,
)

_SHELLS = ("bash", "sh")
_SHELL_CHILDREN = ("ls", "cat", "grep", "ps", "vim", "python", "make", "git")
_WIN_SHELL_CHILDREN = ("tasklist.exe", "notepad.exe", "ping.exe", "whoami.exe")
_BROWSERS = ("firefox", "chrome")
_WIN_BROWSERS = ("firefox.exe", "chrome.exe")
_USER_FILES = (
    "/home/{user}/notes.txt",
    "/home/{user}/report.doc",
    "/home/{user}/src/main.c",
    "/home/{user}/.cache/session",
    "/tmp/scratch-{n}",
)
_WIN_USER_FILES = (
    "C:/Users/{user}/Documents/notes.txt",
    "C:/Users/{user}/Documents/report.docx",
    "C:/Users/{user}/AppData/Local/Temp/tmp{n}.dat",
    "C:/Users/{user}/Downloads/setup-{n}.msi",
)
_EXTERNAL_SITES = tuple(f"93.184.216.{i}" for i in range(10, 40))


@dataclass
class GeneratorConfig:
    """Knobs for the synthetic enterprise."""

    seed: int = 20170101
    hosts: Sequence[Host] = HOSTS
    days: int = SIMULATION_DAYS
    base_day: float = BASE_DAY
    events_per_host_day: int = 400


@dataclass
class _HostState:
    """Long-lived per-host processes reused across the day's activity."""

    host: Host
    init: object = None
    shell: object = None
    next_pid: int = 1000
    user: str = "user"


class BackgroundGenerator:
    """Emits benign events through an :class:`Ingestor`."""

    def __init__(self, ingestor: Ingestor, config: Optional[GeneratorConfig] = None):
        self.ingestor = ingestor
        self.config = config or GeneratorConfig()
        self.rng = random.Random(self.config.seed)
        self._states: Dict[int, _HostState] = {}

    # -- public API -----------------------------------------------------------

    def run(self) -> int:
        """Generate the full simulation; returns the number of events."""
        before = self.ingestor.events_ingested
        for day in range(self.config.days):
            day_start = self.config.base_day + day * DAY
            for host in self.config.hosts:
                self._host_day(host, day_start)
        return self.ingestor.events_ingested - before

    def run_day(self, day_start: float) -> int:
        before = self.ingestor.events_ingested
        for host in self.config.hosts:
            self._host_day(host, day_start)
        return self.ingestor.events_ingested - before

    # -- per-host simulation ----------------------------------------------------

    def _state(self, host: Host) -> _HostState:
        state = self._states.get(host.agent_id)
        if state is None:
            state = _HostState(host=host, user=f"u{host.agent_id}")
            init_name = "services.exe" if host.windows else "systemd"
            state.init = self.ingestor.process(
                host.agent_id, 1, init_name, user="root", signature="os-vendor"
            )
            self._states[host.agent_id] = state
        return state

    def _pid(self, state: _HostState) -> int:
        state.next_pid += 1
        return state.next_pid

    def _host_day(self, host: Host, day_start: float) -> None:
        state = self._state(host)
        rng = self.rng
        budget = self.config.events_per_host_day
        emitted = 0
        t = day_start + rng.uniform(60, 600)

        # Morning: session shells / explorer start.
        shell_name = "explorer.exe" if host.windows else rng.choice(_SHELLS)
        shell = self.ingestor.process(
            host.agent_id, self._pid(state), shell_name, user=state.user
        )
        self.ingestor.emit(host.agent_id, t, "start", state.init, shell)
        state.shell = shell
        emitted += 1

        while emitted < budget:
            t += rng.expovariate(1.0 / (DAY * 0.6 / budget))
            if t >= day_start + DAY - 1:
                break
            activity = rng.random()
            if activity < 0.55:
                emitted += self._file_activity(state, t)
            elif activity < 0.75:
                emitted += self._process_activity(state, t)
            elif activity < 0.90:
                emitted += self._network_activity(state, t)
            elif activity < 0.95:
                emitted += self._ipc_activity(state, t)
            else:
                emitted += self._role_activity(state, t)

    def _file_activity(self, state: _HostState, t: float) -> int:
        rng = self.rng
        host = state.host
        templates = _WIN_USER_FILES if host.windows else _USER_FILES
        path = rng.choice(templates).format(user=state.user, n=rng.randrange(40))
        target = self.ingestor.file(host.agent_id, path, owner=state.user)
        op = rng.choice(("read", "read", "read", "write", "write", "delete"))
        amount = rng.randrange(64, 65536) if op != "delete" else 0
        self.ingestor.emit(host.agent_id, t, op, state.shell, target, amount=amount)
        return 1

    def _process_activity(self, state: _HostState, t: float) -> int:
        rng = self.rng
        host = state.host
        children = _WIN_SHELL_CHILDREN if host.windows else _SHELL_CHILDREN
        child = self.ingestor.process(
            host.agent_id,
            self._pid(state),
            rng.choice(children),
            user=state.user,
        )
        self.ingestor.emit(host.agent_id, t, "start", state.shell, child)
        emitted = 1
        # children usually touch a file or two
        for _ in range(rng.randrange(0, 3)):
            templates = _WIN_USER_FILES if host.windows else _USER_FILES
            path = rng.choice(templates).format(user=state.user, n=rng.randrange(40))
            target = self.ingestor.file(host.agent_id, path, owner=state.user)
            self.ingestor.emit(
                host.agent_id,
                t + rng.uniform(0.1, 5.0),
                rng.choice(("read", "write")),
                child,
                target,
                amount=rng.randrange(64, 8192),
            )
            emitted += 1
        return emitted

    def _network_activity(self, state: _HostState, t: float) -> int:
        rng = self.rng
        host = state.host
        browser_names = _WIN_BROWSERS if host.windows else _BROWSERS
        browser = self.ingestor.process(
            host.agent_id, 300 + rng.randrange(2), rng.choice(browser_names),
            user=state.user,
        )
        conn = self.ingestor.connection(
            host.agent_id,
            host.ip,
            rng.randrange(20000, 60000),
            rng.choice(_EXTERNAL_SITES),
            443,
        )
        self.ingestor.emit(host.agent_id, t, "connect", browser, conn)
        self.ingestor.emit(
            host.agent_id,
            t + rng.uniform(0.05, 2.0),
            "read",
            browser,
            conn,
            amount=rng.randrange(1024, 1 << 20),
        )
        emitted = 2
        if rng.random() < 0.5:
            cache = self.ingestor.file(
                host.agent_id,
                f"/home/{state.user}/.cache/web/{rng.randrange(200)}"
                if not host.windows
                else f"C:/Users/{state.user}/AppData/Cache/{rng.randrange(200)}",
                owner=state.user,
            )
            self.ingestor.emit(
                host.agent_id,
                t + rng.uniform(0.1, 3.0),
                "write",
                browser,
                cache,
                amount=rng.randrange(512, 65536),
            )
            emitted += 1
        return emitted

    def _ipc_activity(self, state: _HostState, t: float) -> int:
        """Registry reads on Windows, named-pipe traffic on Linux — the
        Sec. 7 monitoring-scope extension."""
        rng = self.rng
        host = state.host
        if host.windows:
            svchost = self.ingestor.process(
                host.agent_id, 900, "svchost.exe", user="SYSTEM",
                signature="microsoft",
            )
            value = self.ingestor.registry_value(
                host.agent_id,
                rng.choice(
                    (
                        "HKLM/SOFTWARE/Microsoft/Windows/CurrentVersion",
                        "HKLM/SYSTEM/CurrentControlSet/Services",
                        "HKCU/Software/Classes",
                    )
                ),
                value_name=f"v{rng.randrange(8)}",
            )
            self.ingestor.emit(host.agent_id, t, "read", svchost, value)
            return 1
        daemon = self.ingestor.process(
            host.agent_id, 901, "syslogd", user="root"
        )
        fifo = self.ingestor.pipe(
            host.agent_id, f"/run/pipe-{rng.randrange(4)}"
        )
        self.ingestor.emit(
            host.agent_id, t, rng.choice(("read", "write")), daemon, fifo,
            amount=rng.randrange(64, 4096),
        )
        return 1

    def _role_activity(self, state: _HostState, t: float) -> int:
        host = state.host
        if host.role is HostRole.WEB_SERVER:
            return self._apache_activity(state, t)
        if host.role is HostRole.DB_SERVER:
            return self._database_activity(state, t)
        if host.role is HostRole.MAIL_SERVER:
            return self._mail_activity(state, t)
        if host.windows:
            return self._outlook_activity(state, t)
        return self._file_activity(state, t)

    def _apache_activity(self, state: _HostState, t: float) -> int:
        rng = self.rng
        host = state.host
        apache = self.ingestor.process(
            host.agent_id, 80, "apache2", user="www-data", signature="apache.org"
        )
        doc = self.ingestor.file(
            host.agent_id,
            f"/var/www/html/page{rng.randrange(30)}.html",
            owner="www-data",
        )
        client = rng.choice(HOSTS)
        conn = self.ingestor.connection(
            host.agent_id, client.ip, rng.randrange(20000, 60000), host.ip, 80
        )
        self.ingestor.emit(host.agent_id, t, "accept", apache, conn)
        self.ingestor.emit(
            host.agent_id, t + 0.02, "read", apache, doc, amount=rng.randrange(1024, 65536)
        )
        self.ingestor.emit(
            host.agent_id, t + 0.05, "send", apache, conn, amount=rng.randrange(1024, 65536)
        )
        return 3

    def _database_activity(self, state: _HostState, t: float) -> int:
        rng = self.rng
        host = state.host
        db = self.ingestor.process(
            host.agent_id, 1433, "sqlservr.exe", user="mssql",
            signature="microsoft",
        )
        data = self.ingestor.file(
            host.agent_id, f"C:/MSSQL/DATA/users_{rng.randrange(4)}.mdf", owner="mssql"
        )
        self.ingestor.emit(
            host.agent_id,
            t,
            rng.choice(("read", "write")),
            db,
            data,
            amount=rng.randrange(4096, 1 << 20),
        )
        return 1

    def _mail_activity(self, state: _HostState, t: float) -> int:
        rng = self.rng
        host = state.host
        postfix = self.ingestor.process(
            host.agent_id, 25, "postfix", user="postfix"
        )
        spool = self.ingestor.file(
            host.agent_id, f"/var/spool/mail/msg{rng.randrange(500)}", owner="postfix"
        )
        self.ingestor.emit(
            host.agent_id, t, "write", postfix, spool, amount=rng.randrange(512, 131072)
        )
        conn = self.ingestor.connection(
            host.agent_id, host.ip, rng.randrange(20000, 60000), "198.51.100.25", 25
        )
        self.ingestor.emit(host.agent_id, t + 0.1, "connect", postfix, conn)
        return 2

    def _outlook_activity(self, state: _HostState, t: float) -> int:
        rng = self.rng
        host = state.host
        outlook = self.ingestor.process(
            host.agent_id, 400, "outlook.exe", user=state.user,
            signature="microsoft",
        )
        conn = self.ingestor.connection(
            host.agent_id, host.ip, rng.randrange(20000, 60000), MAIL_SERVER.ip, 143
        )
        self.ingestor.emit(host.agent_id, t, "connect", outlook, conn)
        self.ingestor.emit(
            host.agent_id, t + 0.2, "read", outlook, conn, amount=rng.randrange(512, 262144)
        )
        return 2
