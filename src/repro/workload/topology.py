"""The simulated enterprise (paper Fig. 4, scaled down).

The paper deploys on 150 hosts (10 servers, 140 employee stations) for 16
days.  The default simulation scales this to 15 hosts over 16 days; the
roles mirror Fig. 4's environment: a Windows domain with a mail server, a
database server, a web server, and employee stations behind a firewall.

All timestamps are anchored at ``BASE_DAY`` (2017-01-01 UTC) to match the
paper's example queries.  Scenario days are fixed so the query corpus can
carry literal ``(at "...")`` windows:

=============  ==========  ==================================================
scenario       date        contents
=============  ==========  ==================================================
APT c1-c5      2017-01-05  the case-study attack (Sec. 6.2)
s1-s6          2017-01-06  abnormal system behaviors
d1-d3          2017-01-07  dependency-tracking behaviors
a1-a5          2017-01-08  the second APT (Sec. 6.3.1)
v1-v5          2017-01-09  VirusSign malware samples (Table 4)
=============  ==========  ==================================================
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Tuple


def _ts(text: str) -> float:
    return (
        _dt.datetime.strptime(text, "%Y-%m-%d")
        .replace(tzinfo=_dt.timezone.utc)
        .timestamp()
    )


BASE_DAY = _ts("2017-01-01")
SIMULATION_DAYS = 16

APT_DAY = _ts("2017-01-05")
ABNORMAL_DAY = _ts("2017-01-06")
DEPENDENCY_DAY = _ts("2017-01-07")
APT2_DAY = _ts("2017-01-08")
MALWARE_DAY = _ts("2017-01-09")

# External addresses (TEST-NET-3 range; the paper obfuscates as XXX.129 etc.)
ATTACKER_IP = "203.0.113.129"
ATTACKER_IP2 = "203.0.113.122"
MALWARE_C2_IP = "203.0.113.128"
UPDATE_SERVER_IP = "198.51.100.10"
JAVA_UPDATE_IP = "198.51.100.11"
MAIL_RELAY_IP = "198.51.100.25"


class HostRole(str, Enum):
    WINDOWS_CLIENT = "windows_client"
    MAIL_SERVER = "mail_server"
    DB_SERVER = "db_server"
    WEB_SERVER = "web_server"
    DEV_STATION = "dev_station"
    EMPLOYEE_STATION = "employee_station"
    DOMAIN_CONTROLLER = "domain_controller"


@dataclass(frozen=True)
class Host:
    agent_id: int
    role: HostRole
    hostname: str
    ip: str
    windows: bool


def _host(agent_id: int, role: HostRole, name: str, windows: bool) -> Host:
    return Host(
        agent_id=agent_id,
        role=role,
        hostname=name,
        ip=f"10.0.0.{agent_id}",
        windows=windows,
    )


# Fig. 4 environment, scaled: agents 1-5 have fixed roles used by the attack
# scenarios; 6-15 are generic stations providing background noise.
HOSTS: Tuple[Host, ...] = (
    _host(1, HostRole.WINDOWS_CLIENT, "win-client-1", True),
    _host(2, HostRole.MAIL_SERVER, "mail-1", False),
    _host(3, HostRole.DB_SERVER, "db-1", True),
    _host(4, HostRole.WEB_SERVER, "web-1", False),
    _host(5, HostRole.DEV_STATION, "dev-1", False),
    _host(6, HostRole.DOMAIN_CONTROLLER, "dc-1", True),
    *(
        _host(i, HostRole.EMPLOYEE_STATION, f"station-{i}", i % 2 == 0)
        for i in range(7, 16)
    ),
)

HOSTS_BY_ID: Dict[int, Host] = {h.agent_id: h for h in HOSTS}

WINDOWS_CLIENT = HOSTS_BY_ID[1]
MAIL_SERVER = HOSTS_BY_ID[2]
DB_SERVER = HOSTS_BY_ID[3]
WEB_SERVER = HOSTS_BY_ID[4]
DEV_STATION = HOSTS_BY_ID[5]
