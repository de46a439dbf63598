"""AIQL: Enabling Efficient Attack Investigation from System Monitoring Data.

Full Python reproduction of Gao et al., USENIX ATC 2018.  The package
provides:

* :class:`~repro.core.system.AIQLSystem` -- the end-to-end system: optimized
  storage, the AIQL language, and the relationship-based query engine;
* :mod:`repro.lang` -- lexer, parser, semantic compiler for the AIQL query
  language (multievent, dependency and anomaly syntax);
* :mod:`repro.storage` -- partitioned/flat/MPP event stores;
* :mod:`repro.engine` -- relationship-based and fetch-and-filter schedulers,
  anomaly sliding windows, dependency rewriting;
* :mod:`repro.baselines` -- the PostgreSQL-, Neo4j- and Greenplum-like
  comparison systems and the SQL/Cypher/SPL conciseness corpus;
* :mod:`repro.workload` -- the synthetic enterprise and the paper's attack
  scenarios (APT case study, dependency chains, malware, abnormal behavior);
* :mod:`repro.service` -- the concurrent query service: shared executor,
  batched/deduplicated query submission, live ingest, standing queries;
* :mod:`repro.api` -- the versioned public wire schema (v1): query/page/
  alert/error messages with lossless JSON codecs and the stable error
  taxonomy, shared by the network service, the CLI and clients;
* :mod:`repro.server` -- the asyncio HTTP/WebSocket network front door
  (``AIQLSystem.serve()`` / ``python -m repro serve``).

The documented public surface is ``__all__`` below: the system facade
(:class:`AIQLSystem`, :class:`SystemConfig`, :class:`ResultSet`), the
language entry points (:func:`parse` and the ``AIQL*Error`` types), the
concurrent service (:class:`QueryService`) and the
network layer (:class:`AIQLServer`, lazily imported).  Everything else
is implementation detail and may move between releases.
"""

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.engine.result import ResultSet
from repro.lang.errors import AIQLError, AIQLSemanticError, AIQLSyntaxError
from repro.lang.parser import parse
from repro.service import QueryService

__version__ = "1.2.0"

__all__ = [
    "AIQLError",
    "AIQLSemanticError",
    "AIQLSyntaxError",
    "AIQLServer",
    "AIQLSystem",
    "QueryService",
    "ResultSet",
    "SystemConfig",
    "parse",
    "__version__",
]


def __getattr__(name: str):
    # AIQLServer is part of the public surface but imported lazily:
    # pulling the server stack (asyncio plumbing) on `import repro`
    # would tax every non-networked user.
    if name == "AIQLServer":
        from repro.server import AIQLServer

        return AIQLServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
