"""Concurrent query service subsystem.

Four pieces, layered:

* :mod:`repro.service.pool` — the process-wide shared thread pool that
  replaced every per-call ``ThreadPoolExecutor``;
* :mod:`repro.service.query_service` — the batch front-end that runs many
  AIQL queries concurrently and deduplicates overlapping work;
* :mod:`repro.service.stream` — live streaming ingestion: batched atomic
  commits concurrent with query execution, with a monotone watermark;
* :mod:`repro.service.continuous` — standing queries over the live
  stream: per-pattern compiled kernels, sliding windows, delta joins and
  alert callbacks driven by the stream's commit hooks.
"""

from repro.service.pool import (
    SharedExecutor,
    get_shared_executor,
    shutdown_shared_executor,
)
from repro.service.stream import StreamSession

__all__ = [
    "Alert",
    "ContinuousError",
    "ContinuousQueryEngine",
    "QueryService",
    "ServiceStats",
    "SharedExecutor",
    "StreamSession",
    "Subscription",
    "get_shared_executor",
    "shutdown_shared_executor",
]

_LAZY = {
    # QueryService and the continuous engine pull in the whole engine/lang
    # stack; resolving them lazily keeps an import of the pool or the stream
    # session (the shard worker's, the workload loader's) from pulling it in.
    "QueryService": "repro.service.query_service",
    "ServiceStats": "repro.service.query_service",
    "Alert": "repro.service.continuous",
    "ContinuousError": "repro.service.continuous",
    "ContinuousQueryEngine": "repro.service.continuous",
    "Subscription": "repro.service.continuous",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
