"""System events: the ``<subject, operation, object>`` triples (paper Table 2).

An event records one interaction: the *subject* is always a process; the
*object* is a file, a process or a network connection.  Events are
categorized by their object type into file events, process events and
network events — this categorization drives the relationship-sort order of
the query scheduler (Algorithm 1 sorts process/network events ahead of file
events, which are far more numerous in real monitoring data).

Event attributes (Table 2): operation, start/end time, per-agent sequence
number, subject/object ids, failure code, and for data-movement operations
an ``amount`` (bytes) used by anomaly queries such as Query 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet

from repro.model.entities import Entity, EntityType


class Operation(str, Enum):
    """Operation types between subject and object (Table 2)."""

    READ = "read"
    WRITE = "write"
    EXECUTE = "execute"
    START = "start"
    END = "end"
    RENAME = "rename"
    DELETE = "delete"
    CONNECT = "connect"
    ACCEPT = "accept"
    SEND = "send"
    RECV = "recv"

    @classmethod
    def parse(cls, text: str) -> "Operation":
        key = text.strip().lower()
        if key in _OPERATION_ALIASES:
            return _OPERATION_ALIASES[key]
        raise ValueError(f"unknown operation: {text!r}")


_OPERATION_ALIASES: Dict[str, Operation] = {op.value: op for op in Operation}
_OPERATION_ALIASES.update(
    {
        "exec": Operation.EXECUTE,
        "fork": Operation.START,
        "spawn": Operation.START,
        "unlink": Operation.DELETE,
        "remove": Operation.DELETE,
        "mv": Operation.RENAME,
        "receive": Operation.RECV,
    }
)

# Operations valid per object entity type; used by semantic validation.
OPERATIONS_BY_OBJECT: Dict[EntityType, FrozenSet[Operation]] = {
    EntityType.FILE: frozenset(
        {
            Operation.READ,
            Operation.WRITE,
            Operation.EXECUTE,
            Operation.RENAME,
            Operation.DELETE,
        }
    ),
    EntityType.PROCESS: frozenset({Operation.START, Operation.END}),
    EntityType.NETWORK: frozenset(
        {
            Operation.READ,
            Operation.WRITE,
            Operation.CONNECT,
            Operation.ACCEPT,
            Operation.SEND,
            Operation.RECV,
        }
    ),
    # Sec. 7 monitoring-scope extension:
    EntityType.REGISTRY: frozenset(
        {Operation.READ, Operation.WRITE, Operation.DELETE}
    ),
    EntityType.PIPE: frozenset({Operation.READ, Operation.WRITE}),
}


class EventType(str, Enum):
    """Event categories by object entity type (paper Sec. 3.1)."""

    FILE = "file"
    PROCESS = "process"
    NETWORK = "network"
    REGISTRY = "registry"
    PIPE = "pipe"


_EVENT_TYPE_BY_OBJECT: Dict[EntityType, EventType] = {
    EntityType.FILE: EventType.FILE,
    EntityType.PROCESS: EventType.PROCESS,
    EntityType.NETWORK: EventType.NETWORK,
    EntityType.REGISTRY: EventType.REGISTRY,
    EntityType.PIPE: EventType.PIPE,
}

# Process and network events carry the most pruning power in Algorithm 1's
# relationship sort; everything else (file-like bulk categories) goes last.
HIGH_PRUNING_EVENT_TYPES = frozenset({EventType.PROCESS, EventType.NETWORK})


def event_type_of(object_type: EntityType) -> EventType:
    return _EVENT_TYPE_BY_OBJECT[object_type]


@dataclass(frozen=True)
class SystemEvent:
    """One recorded system-call-level interaction.

    ``event_id`` is globally unique; ``seq`` increases monotonically per
    agent (Table 2's Event Sequence), which the storage layer relies on for
    temporal ordering within a host.
    """

    event_id: int
    agent_id: int
    seq: int
    start_time: float
    end_time: float
    operation: Operation
    subject_id: int
    object_id: int
    object_type: EntityType
    amount: int = 0
    failure_code: int = 0

    def __post_init__(self) -> None:
        if self.end_time < self.start_time:
            raise ValueError(
                f"event {self.event_id}: end_time {self.end_time} precedes "
                f"start_time {self.start_time}"
            )

    @property
    def event_type(self) -> EventType:
        return event_type_of(self.object_type)

    def attribute(self, name: str) -> object:
        """Event attribute lookup used by ``evt`` constraints and returns."""
        key = name.strip().lower()
        if key in _EVENT_ATTRIBUTE_GETTERS:
            return _EVENT_ATTRIBUTE_GETTERS[key](self)
        raise AttributeError(f"event has no attribute {name!r}")


_EVENT_ATTRIBUTE_GETTERS = {
    "id": lambda e: e.event_id,
    "event_id": lambda e: e.event_id,
    "agentid": lambda e: e.agent_id,
    "agent_id": lambda e: e.agent_id,
    "seq": lambda e: e.seq,
    "sequence": lambda e: e.seq,
    "starttime": lambda e: e.start_time,
    "start_time": lambda e: e.start_time,
    "endtime": lambda e: e.end_time,
    "end_time": lambda e: e.end_time,
    "optype": lambda e: e.operation.value,
    "operation": lambda e: e.operation.value,
    "amount": lambda e: e.amount,
    "access": lambda e: e.operation.value,
    "failure_code": lambda e: e.failure_code,
    "failurecode": lambda e: e.failure_code,
    "subject_id": lambda e: e.subject_id,
    "object_id": lambda e: e.object_id,
}

EVENT_ATTRIBUTES = tuple(sorted(_EVENT_ATTRIBUTE_GETTERS))


def validate_event(event: SystemEvent, subject: Entity, obj: Entity) -> None:
    """Check an event against the data model; raises ``ValueError``.

    Subjects must be processes; the operation must be legal for the object's
    entity type (e.g. only processes can be ``start``-ed).
    """
    if subject.entity_type is not EntityType.PROCESS:
        raise ValueError(
            f"event {event.event_id}: subject must be a process, got "
            f"{subject.entity_type.value}"
        )
    if event.operation not in OPERATIONS_BY_OBJECT[obj.entity_type]:
        raise ValueError(
            f"event {event.event_id}: operation {event.operation.value!r} is "
            f"invalid for object type {obj.entity_type.value!r}"
        )
    if subject.id != event.subject_id or obj.id != event.object_id:
        raise ValueError(f"event {event.event_id}: entity ids do not match")
