"""Time handling for system monitoring data and AIQL queries.

Timestamps are represented as floats: seconds since the Unix epoch (UTC).
AIQL accepts common US time formats and ISO 8601 at several granularities
(paper Sec. 4.1); durations are written as ``<number> <unit>`` where unit is
one of sec/min/hour/day (with common aliases).

The module also implements the ingest-side clock synchronization described in
Sec. 3.2: agents may drift, and the server corrects event timestamps against
its own clock (an NTP-style offset correction).
"""

from __future__ import annotations

import datetime as _dt
import functools
import re
from dataclasses import dataclass
from typing import Optional

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0

_UNIT_SECONDS = {
    "s": SECOND,
    "sec": SECOND,
    "secs": SECOND,
    "second": SECOND,
    "seconds": SECOND,
    "m": MINUTE,
    "min": MINUTE,
    "mins": MINUTE,
    "minute": MINUTE,
    "minutes": MINUTE,
    "h": HOUR,
    "hour": HOUR,
    "hours": HOUR,
    "d": DAY,
    "day": DAY,
    "days": DAY,
}

# US formats first (the paper's examples use mm/dd/yyyy), then ISO 8601
# at every granularity: date, minutes, seconds, fractional seconds.
_DATETIME_FORMATS = (
    "%m/%d/%Y %H:%M:%S.%f",
    "%m/%d/%Y %H:%M:%S",
    "%m/%d/%Y %H:%M",
    "%m/%d/%Y",
    "%Y-%m-%dT%H:%M:%S.%f",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%dT%H:%M",
    "%Y-%m-%d %H:%M:%S.%f",
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
)

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([a-zA-Z]+)\s*$")

# ISO 8601 timezone designator at the end of a literal: ``Z`` (UTC) or an
# explicit ``+HH:MM`` / ``-HHMM`` offset.  The sign requirement keeps date
# literals like ``2017-01-01`` (whose tail is digits and hyphens preceded
# by a digit) from matching: an offset must follow a time component, and
# only there does a bare ``+``/``-`` appear.
_TZ_SUFFIX_RE = re.compile(r"(?:[Zz]|(?P<sign>[+-])(?P<hh>\d{2}):?(?P<mm>\d{2}))$")


class TimeParseError(ValueError):
    """Raised when a datetime or duration literal cannot be parsed."""


@functools.lru_cache(maxsize=1024)
def parse_datetime(text: str) -> float:
    """Parse a datetime literal into an epoch timestamp (UTC).

    Memoized (a failure is not): an investigation re-asks the same few
    days, and ``strptime`` tries the formats in order at ~3 us each.

    Accepts US formats (``01/01/2017``, ``01/01/2017 10:30:00``) and
    ISO 8601 at any granularity (``2017-01-01``, ``2017-01-01T10:30``,
    ``2017-01-01T10:30:00``, ``2017-01-01T10:30:00.500``), with an
    optional timezone designator (``...T10:30:00Z``, ``...+00:00``,
    ``...-08:00``); offset forms are normalized to UTC.
    """
    cleaned = text.strip().strip('"').strip("'")
    offset_seconds = 0.0
    tz = _TZ_SUFFIX_RE.search(cleaned)
    # A designator is only valid after a time component (``2017-01-01Z``
    # is not ISO 8601); the ``:`` test keeps date-only literals intact.
    if tz is not None and ":" not in cleaned[: tz.start()]:
        tz = None
    if tz is not None:
        if tz.group("sign"):
            magnitude = int(tz.group("hh")) * HOUR + int(tz.group("mm")) * MINUTE
            offset_seconds = magnitude if tz.group("sign") == "+" else -magnitude
        cleaned = cleaned[: tz.start()]
    for fmt in _DATETIME_FORMATS:
        try:
            parsed = _dt.datetime.strptime(cleaned, fmt)
        except ValueError:
            continue
        # A wall-clock at +HH:MM is that many seconds *ahead of* UTC.
        return parsed.replace(tzinfo=_dt.timezone.utc).timestamp() - offset_seconds
    raise TimeParseError(f"unrecognized datetime literal: {text!r}")


def parse_duration(amount: float, unit: str) -> float:
    """Convert ``amount`` in ``unit`` (sec/min/hour/day aliases) to seconds."""
    key = unit.strip().lower()
    if key not in _UNIT_SECONDS:
        raise TimeParseError(f"unrecognized time unit: {unit!r}")
    return float(amount) * _UNIT_SECONDS[key]


def parse_duration_text(text: str) -> float:
    """Parse a duration literal such as ``"1 min"`` or ``"10 sec"``."""
    match = _DURATION_RE.match(text)
    if not match:
        raise TimeParseError(f"unrecognized duration literal: {text!r}")
    return parse_duration(float(match.group(1)), match.group(2))


def format_timestamp(ts: float) -> str:
    """Render an epoch timestamp as an ISO 8601 UTC string."""
    return (
        _dt.datetime.fromtimestamp(ts, tz=_dt.timezone.utc)
        .strftime("%Y-%m-%d %H:%M:%S")
    )


def day_of(ts: float) -> int:
    """Return the day ordinal (days since epoch) containing ``ts``.

    Used for the per-day database rollover and the time-window partitioning
    of data queries (paper Secs. 3.2 and 5.2).
    """
    return int(ts // DAY)


def day_start(day: int) -> float:
    """Return the first timestamp of day ordinal ``day``."""
    return day * DAY


@dataclass(frozen=True)
class TimeWindow:
    """A half-open time interval ``[start, end)``.

    ``None`` on either side means unbounded.  This is the runtime form of the
    AIQL ``(at "...")`` / ``from ... to ...`` global and per-pattern time
    windows.
    """

    start: Optional[float] = None
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if (
            self.start is not None
            and self.end is not None
            and self.end < self.start
        ):
            raise ValueError(
                f"time window end ({self.end}) precedes start ({self.start})"
            )

    @classmethod
    def at_day(cls, text: str) -> "TimeWindow":
        """Window covering the single calendar day named by ``text``."""
        start = parse_datetime(text)
        return cls(start=start, end=start + DAY)

    @classmethod
    def span(cls, start_text: str, end_text: str) -> "TimeWindow":
        return cls(start=parse_datetime(start_text), end=parse_datetime(end_text))

    def contains(self, ts: float) -> bool:
        if self.start is not None and ts < self.start:
            return False
        if self.end is not None and ts >= self.end:
            return False
        return True

    def intersect(self, other: "TimeWindow") -> "TimeWindow":
        """Intersection of two windows (may be empty)."""
        starts = [w for w in (self.start, other.start) if w is not None]
        ends = [w for w in (self.end, other.end) if w is not None]
        start = max(starts) if starts else None
        end = min(ends) if ends else None
        if start is not None and end is not None and end < start:
            end = start  # empty window
        return TimeWindow(start=start, end=end)

    def is_empty(self) -> bool:
        return (
            self.start is not None
            and self.end is not None
            and self.start >= self.end
        )

    def is_bounded(self) -> bool:
        return self.start is not None and self.end is not None

    def days(self) -> Optional[range]:
        """Day ordinals covered by this window, or ``None`` if unbounded."""
        if not self.is_bounded():
            return None
        first = day_of(self.start)
        # End is exclusive: a window ending exactly at midnight does not
        # touch the next day.
        last = day_of(self.end) if self.end % DAY else day_of(self.end) - 1
        return range(first, last + 1)


class ClockSynchronizer:
    """NTP-style clock correction applied at ingest (paper Sec. 3.2).

    Agents report their local clock alongside batches of events; the server
    computes the offset against its own clock and shifts event timestamps so
    that the stored data has a consistent timeline.
    """

    def __init__(self, server_clock: Optional[float] = None) -> None:
        self._server_clock = server_clock
        self._offsets: dict[int, float] = {}

    def observe(self, agent_id: int, agent_clock: float, server_clock: float) -> float:
        """Record a clock sample for ``agent_id`` and return its offset."""
        offset = server_clock - agent_clock
        self._offsets[agent_id] = offset
        return offset

    def offset(self, agent_id: int) -> float:
        return self._offsets.get(agent_id, 0.0)

    def correct(self, agent_id: int, ts: float) -> float:
        """Correct a raw agent timestamp into server time."""
        return ts + self.offset(agent_id)
