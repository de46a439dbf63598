"""Child processes of the harness: crash recovery and the load generator.

Both are started by ``lifecycle`` with ``sys.executable`` and talk JSON
over stdin/stdout.  They are processes of their own on purpose:

* a **recovery** must start from a cold interpreter heap, as a restarted
  service would, and must not inherit the parent's warm caches;
* the **generator** of the served workload must not share the server's
  GIL — a generator thread inside the server process waits up to one
  switch interval (5 ms) for the interpreter, and that wait would land in
  the latency it reports.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import ensure_program_on_path, processes  # noqa: E402


def digest_rows(rows) -> list:
    """Rows in comparable form: each as its JSON text, sorted."""
    return sorted(json.dumps(list(row)) for row in rows)


def answer_digest(result) -> list:
    """A query answer in comparable form, as the wire would carry it."""
    from repro.api import wire_value

    return digest_rows([wire_value(value) for value in row] for row in result.rows)


# -- recovery ---------------------------------------------------------------------


def recover(spec: dict) -> dict:
    """Recover ``spec['data_dir']`` and answer the probes.

    ``recovery_s`` runs from just before the deployment is constructed
    (which *is* crash recovery: snapshot load + WAL replay, per shard when
    sharded) until the first probe query has answered.  Interpreter start
    and imports are done by then and excluded.
    """
    from repro import AIQLSystem
    from repro.core.config import SystemConfig

    phases = {}
    if spec.get("trace"):
        _time_recovery_phases(phases)

    config = SystemConfig(data_dir=spec["data_dir"], **spec["config"])
    started = time.perf_counter()
    system = AIQLSystem(config)
    constructed = time.perf_counter()
    try:
        probes = spec["probes"]
        answers = [answer_digest(system.query(probes[0]))]
        recovery_s = time.perf_counter() - started
        answers.extend(answer_digest(system.query(text)) for text in probes[1:])
        return {
            "recovery_s": recovery_s,
            "construct_s": constructed - started,
            "events": system.ingestor.events_ingested,
            "report": system.recovery.to_dict(),
            "answers": answers,
            "phases": phases,
        }
    finally:
        system.close()


def _time_recovery_phases(phases: dict) -> None:
    """Time snapshot load and WAL replay from outside (in-process
    deployments; a shard worker recovers in its own process)."""
    from repro.tier import recovery
    from repro.tier.wal import WriteAheadLog

    def timed(name, inner):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                phases[name] = time.perf_counter() - started

        return wrapper

    recovery.load_snapshot = timed("snapshot_load_s", recovery.load_snapshot)
    WriteAheadLog.replay_into = timed(
        "wal_replay_s", WriteAheadLog.replay_into
    )


# -- load generator -----------------------------------------------------------------


class _Connection:
    """One keep-alive HTTP connection; requests on it are sequential."""

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
        self._conn = None
        self._port = None

    def _connected(self, port: int) -> http.client.HTTPConnection:
        if self._conn is None or self._port != port:
            self.close()
            self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            self._conn.connect()
            self._port = port
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
        self._conn = None

    def query(self, port: int, text: str):
        """One ``POST /v1/query``; returns (sent, latency_ms, status, body).

        The clock stops when the whole chunked body has arrived; decoding
        it is the caller's business and is not timed.
        """
        from repro import api

        body = api.QueryRequest(text=text, client_id=self.client_id).to_json()
        conn = self._connected(port)
        sent = time.perf_counter()
        conn.request(
            "POST", "/v1/query", body=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = response.read()
        latency_ms = (time.perf_counter() - sent) * 1000.0
        return sent, latency_ms, response.status, payload

    def healthz(self, port: int) -> float:
        conn = self._connected(port)
        sent = time.perf_counter()
        conn.request("GET", "/healthz")
        conn.getresponse().read()
        return (time.perf_counter() - sent) * 1000.0


def _decode_rows(payload: bytes):
    """(row count, wire rows) of one NDJSON page stream."""
    from repro import api

    pages = [
        api.from_json(line)
        for line in payload.decode("utf-8").splitlines()
        if line.strip()
    ]
    _, rows, _ = api.result_from_pages(pages)
    return len(rows), digest_rows(rows)


def _serve_round(connections, command: dict) -> dict:
    """A round dealt alternately to the connections, closed loop each."""
    port, texts = command["port"], command["texts"]
    check = set(command.get("check", ()))
    count = len(texts)
    sent = [0.0] * count
    latency = [0.0] * count
    status = [0] * count
    rows = [0] * count
    answers = {}
    errors = []

    def work(lane: int) -> None:
        connection = connections[lane]
        for index in range(lane, count, len(connections)):
            try:
                sent[index], latency[index], status[index], payload = (
                    connection.query(port, texts[index])
                )
                if status[index] == 200:
                    rows[index], decoded = _decode_rows(payload)
                    if index in check:
                        answers[str(index)] = decoded
            except Exception as exc:  # reported to the parent as a failure
                connection.close()
                status[index] = -1
                errors.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=work, args=(lane,)) for lane in range(len(connections))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "wall_s": time.perf_counter() - started,
        "sent": sent,
        "lat_ms": latency,
        "status": status,
        "rows": rows,
        "answers": answers,
        "errors": errors[:5],
    }


def generator(connections_count: int) -> None:
    """Serve commands from stdin until ``exit`` or end of input."""
    connections = [_Connection(f"gen-{i}") for i in range(connections_count)]
    try:
        for line in sys.stdin:
            command = json.loads(line)
            if command["op"] == "exit":
                break
            if command["op"] == "round":
                reply = _serve_round(connections, command)
            elif command["op"] == "disconnect":
                for connection in connections:
                    connection.close()
                reply = {}
            elif command["op"] == "healthz":
                reply = {
                    "lat_ms": [
                        connections[0].healthz(command["port"])
                        for _ in range(command["count"])
                    ]
                }
            else:
                reply = {"error": f"unknown op {command['op']!r}"}
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        for connection in connections:
            connection.close()


def main(argv) -> int:
    ensure_program_on_path()
    if argv[0] == "recover":
        spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
        try:
            report = recover(spec)
        finally:
            # A sharded recovery started workers and a resource tracker.
            processes.stop_and_reap()
        print(json.dumps(report))
        return 0
    if argv[0] == "generator":
        generator(int(argv[1]))
        return 0
    print(f"unknown child mode {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
