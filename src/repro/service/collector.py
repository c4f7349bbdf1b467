"""The result collector: the fleet's coordinator and live result fan-in.

``python -m repro.experiments collect --listen host:port`` runs one
:class:`ResultCollector`: a :class:`~repro.service.protocol.LineServer`
that leases cells to fleet workers (``run <suite> --fleet host:port``)
and whose ``push`` verb appends their streamed
:class:`~repro.experiments.store.CellResult` records into one
fingerprint-deduplicated :class:`~repro.experiments.store.ResultStore`
the moment each cell finishes.  The collector's store is a perfectly
ordinary store: ``report`` consumes it unchanged, and the ``report``
verb serves the rendered bundle straight off it.

Deduplication applies :func:`repro.experiments.store.resolve_duplicate`
— the *same* policy as file-based merging, under one lock, so the
verified-outranks-unverified rule holds regardless of the order in which
concurrent streams deliver a fingerprint:

* first record for a fingerprint: accepted and appended;
* a verified record never displaced by an unverified one: dropped;
* otherwise the newcomer wins and is appended (the store's readers
  resolve duplicates last-write-wins, so the append order *is* the
  resolution order);
* equal-rank records with differing semantic payloads are appended but
  counted as conflicts — diverging code or environments produced them.

Verbs
-----
``ping``
    Liveness + ingest counters.
``push``
    ``{"op": "push", "records": [<cell record>, ...]}`` → per-batch
    ``accepted`` / ``dropped`` / ``conflicts`` counts.
``status``
    Cumulative ingest counters, the store path, uptime and the
    cumulative records/sec ingest rate.
``report``
    The rendered report bundle over everything collected so far — the
    same bytes ``report --json`` would write from the store.  A ``job``
    field is refused: jobs are the daemon's, and the collector's bundle
    covers every cell it holds, not one job's.
``metrics``
    The collector's full Prometheus-text exposition (ingest counters by
    fate, push-batch sizes, stream lag, per-verb latency).
``metrics_history``
    The retained scrape history (ring buffer snapshotted every
    ``scrape_interval_s``), optionally restricted by ``window_s`` and
    capped by ``max_points`` — what windowed SLO burn checks and
    dashboard sparklines consume.
``register`` / ``heartbeat`` / ``lease`` / ``fleet_status``
    The elastic-fleet control plane (:mod:`repro.service.leases`):
    workers started with ``run <suite> --fleet host:port`` register,
    pull batches of pending cells under heartbeat-renewed leases, and
    stream results back through ``push`` — which doubles as lease
    completion, so a record from *any* stream retires its lease.  A
    worker that stops heartbeating has its leases expired and handed to
    whoever asks next; ``fleet_status`` shows workers, active leases
    and the lifecycle counters.
``shutdown``
    Stop serving (the store is already durable; nothing to flush).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any

from repro.experiments.report import report_payload
from repro.obs import MetricsRegistry, ScrapeHistory
from repro.obs.timeseries import (
    DEFAULT_HISTORY_CAPACITY,
    DEFAULT_SCRAPE_INTERVAL_S,
)
from repro.experiments.store import (
    DEFAULT_OUT,
    CellResult,
    ResultStore,
    resolve_duplicate,
)
from repro.service.leases import (
    DEFAULT_HEARTBEAT_INTERVAL_S,
    DEFAULT_LEASE_BATCH,
    LeaseTable,
)
from repro.service.protocol import (
    LineServer,
    ServiceError,
    error_response,
    metrics_history_response,
    ok_response,
    parse_endpoint,
    resolve_token,
)

__all__ = ["ResultCollector"]


class ResultCollector:
    """Lease cells to fleet workers and collect their results into one
    deduplicated store."""

    def __init__(
        self,
        out: str | Path = DEFAULT_OUT,
        listen: str | None = None,
        socket_path: str | Path | None = None,
        token: str | None = None,
        scrape_interval_s: float = DEFAULT_SCRAPE_INTERVAL_S,
        history_capacity: int = DEFAULT_HISTORY_CAPACITY,
        history_spill: str | Path | None = None,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        lease_ttl_s: float | None = None,
    ) -> None:
        self.store = ResultStore(out)
        self.listen = listen
        self.socket_path = Path(socket_path) if socket_path is not None else None
        self.token = resolve_token(token)
        self._latest: dict[str, dict[str, Any]] = {}
        self._lock = threading.Lock()
        self._shutdown = threading.Event()
        self._server: LineServer | None = None
        # Cumulative ingest counters (served by ping/status).
        self.accepted = 0
        self.dropped = 0
        self.duplicates = 0
        self.conflicts = 0
        #: Store records skipped at startup for lacking a fingerprint —
        #: surfaced by status/metrics instead of refusing to serve.
        self.malformed_store_records = 0
        self.leases = LeaseTable(
            heartbeat_interval_s=heartbeat_interval_s,
            lease_ttl_s=lease_ttl_s,
            on_event=self._on_lease_event,
        )
        self._started_monotonic: float | None = None
        self._last_push_monotonic: float | None = None
        self.registry = MetricsRegistry()
        self.history = ScrapeHistory(
            self.registry,
            interval_s=scrape_interval_s,
            capacity=history_capacity,
            spill_path=history_spill,
        )
        self._register_metrics()

    def _register_metrics(self) -> None:
        # collector_records_ingested_total counts store *appends* only —
        # CI pins it equal to the streamed store's record count, so a
        # dropped record must not tick it.
        self._ingested_metric = self.registry.counter(
            "collector_records_ingested_total",
            "Records appended to the collector's store.",
        )
        self._fate_metric = self.registry.counter(
            "collector_records_total",
            "Pushed records by duplicate-policy fate.",
            ("fate",),
        )
        self._push_batch_records = self.registry.histogram(
            "collector_push_batch_records",
            "Records per push batch.",
            buckets=(1, 2, 5, 10, 25, 50, 100, 500),
        )
        self.registry.gauge(
            "collector_uptime_seconds", "Seconds since the collector started."
        ).set_function(self._uptime_s)
        self.registry.gauge(
            "collector_seconds_since_last_push",
            "Per-stream lag: seconds since the last push batch arrived "
            "(0 before the first push).",
        ).set_function(self._seconds_since_last_push)
        self.registry.gauge(
            "collector_store_malformed_records",
            "Store records skipped at startup for lacking a fingerprint.",
        ).set_function(lambda: float(self.malformed_store_records))
        # Fleet scheduling: lease lifecycle counters fed by the lease
        # table's event callback, liveness gauges read straight off it.
        self._lease_fates = self.registry.counter(
            "fleet_leases_total",
            "Lease lifecycle events by fate (granted/renewed/expired/"
            "released/reassigned/completed).",
            ("fate",),
        )
        self._lease_age = self.registry.histogram(
            "fleet_lease_age_seconds",
            "Lease age when it completed, expired or was released.",
            buckets=(0.5, 1.0, 2.0, 5.0, 15.0, 60.0, 300.0, 1800.0),
        )
        workers_gauge = self.registry.gauge(
            "fleet_workers",
            "Registered fleet workers, by liveness state.",
            ("state",),
        )
        for state in ("alive", "lost"):
            workers_gauge.labels(state=state).set_function(
                lambda state=state: float(
                    self.leases.worker_counts().get(state, 0)
                )
            )
        self.registry.gauge(
            "fleet_oldest_lease_age_seconds",
            "Age of the oldest active lease (0 when none are held).",
        ).set_function(self.leases.oldest_lease_age_s)
        self.registry.gauge(
            "fleet_lease_ttl_seconds",
            "The TTL a lease must be renewed within (the lease-stuck "
            "SLO's budget unit).",
        ).set_function(lambda: self.leases.lease_ttl_s)

    def _on_lease_event(self, fate: str, age_s: float | None) -> None:
        self._lease_fates.labels(fate=fate).inc()
        if age_s is not None:
            self._lease_age.observe(age_s)

    def _uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def _seconds_since_last_push(self) -> float:
        if self._last_push_monotonic is None:
            return 0.0
        return time.monotonic() - self._last_push_monotonic

    def _records_per_s(self) -> float:
        uptime = self._uptime_s()
        return self.accepted / uptime if uptime > 0 else 0.0

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        """The bound ``(host, port)`` of the TCP listener, if any."""
        return self._server.tcp_address if self._server is not None else None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Seed the dedup index from the existing store and start serving.

        A restarted collector picks up exactly where it stopped: the
        store's records are replayed through the same duplicate policy,
        so a verified record that survived the previous run still blocks
        unverified latecomers.
        """
        if self._server is not None:
            raise RuntimeError("collector already started")
        if self.listen is None and self.socket_path is None:
            raise ServiceError(
                "a collector needs an endpoint: --listen host:port and/or "
                "--socket path"
            )
        for record in self.store.records():
            fingerprint = record.get("fingerprint")
            if not isinstance(fingerprint, str) or not fingerprint:
                # One corrupt line must not brick a restart (and with it
                # collector-aware resume): skip it, count it, surface the
                # count via status and the malformed-records gauge.  The
                # line stays in the JSONL file untouched for forensics.
                self.malformed_store_records += 1
                continue
            previous = self._latest.get(fingerprint)
            if previous is None or resolve_duplicate(previous, record).keep_newcomer:
                self._latest[fingerprint] = record
        # Seed the fleet scheduler with what is already done: verified
        # records only, mirroring the store's completed_fingerprints()
        # resume policy, so an unverified record is re-leased and re-run.
        self.leases.seed_completed(
            fingerprint
            for fingerprint, record in self._latest.items()
            if record.get("verified")
        )
        server = LineServer(
            self._dispatch,
            token=self.token,
            name="result-collector",
            close_after=lambda request, _: request.get("op") == "shutdown",
            registry=self.registry,
            verbs=("ping", "push", "status", "report", "metrics",
                   "metrics_history", "register", "heartbeat", "lease",
                   "fleet_status", "shutdown"),
        )
        try:
            if self.socket_path is not None:
                server.listen_unix(self.socket_path)
            if self.listen is not None:
                endpoint = parse_endpoint(self.listen)
                if not endpoint.is_tcp:
                    raise ServiceError(
                        f"--listen takes a host:port TCP address, "
                        f"got {self.listen!r}"
                    )
                server.listen_tcp(endpoint.host, endpoint.port)
            server.start()
        except BaseException:
            server.close()
            raise
        self._server = server
        self._started_monotonic = time.monotonic()
        if self.history.interval_s > 0:
            self.history.start()

    def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`stop`) arrives."""
        if self._server is None:
            self.start()
        try:
            while not self._shutdown.is_set():
                self._shutdown.wait(0.2)
        finally:
            self.close()

    def stop(self) -> None:
        self._shutdown.set()

    def close(self) -> None:
        self.stop()
        self.history.stop()
        if self._server is not None:
            self._server.close()
            self._server = None

    def __enter__(self) -> "ResultCollector":
        self.start()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(self, record: dict[str, Any]) -> str:
        """Apply the duplicate policy to one record; append if it wins.

        Returns the record's fate: ``"accepted"`` (new fingerprint or a
        winning newcomer), ``"dropped"`` (an unverified record losing to
        a stored verified one) or ``"conflict"`` (accepted, but an
        equal-rank record with a different semantic payload was already
        present).  The decision and the append happen under one lock, so
        two streams racing the same fingerprint serialise and the policy
        — not arrival timing — picks the survivor.
        """
        fingerprint = record.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise ValueError("pushed record lacks a fingerprint field")
        result = CellResult.from_record(record)
        with self._lock:
            previous = self._latest.get(fingerprint)
            if previous is not None:
                self.duplicates += 1
                resolution = resolve_duplicate(previous, record)
                if not resolution.keep_newcomer:
                    self.dropped += 1
                    self._fate_metric.labels(fate="dropped").inc()
                    fate = "dropped"
                else:
                    fate = "conflict" if resolution.conflict else "accepted"
            else:
                fate = "accepted"
            if fate != "dropped":
                self._latest[fingerprint] = result.to_record()
                self.store.append(result)
                self.accepted += 1
                self._ingested_metric.inc()
                self._fate_metric.labels(fate=fate).inc()
                if fate == "conflict":
                    self.conflicts += 1
        # Push doubles as lease completion — outside the ingest lock
        # (the lease table has its own), and for *every* fate: even a
        # dropped duplicate proves the cell ran somewhere.
        self.leases.complete(fingerprint)
        return fate

    # ------------------------------------------------------------------
    # protocol handling
    # ------------------------------------------------------------------
    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return ok_response(role="collector", **self._counters())
        if op == "push":
            return self._handle_push(request)
        if op == "status":
            return ok_response(
                uptime_s=self._uptime_s(),
                records_per_s=self._records_per_s(),
                **self._counters(),
            )
        if op == "report":
            if "job" in request:
                return error_response(
                    "the collector's report verb takes no 'job' field: its "
                    "bundle covers the whole collected store"
                )
            with self._lock:
                records = list(self._latest.values())
            if not records:
                return error_response("the collector has no results to report on")
            return ok_response(records=len(records), **report_payload(records))
        if op == "metrics":
            return ok_response(metrics=self.registry.render())
        if op == "metrics_history":
            return metrics_history_response(self.history, request)
        if op == "register":
            return self._handle_register(request)
        if op == "heartbeat":
            return self._handle_heartbeat(request)
        if op == "lease":
            return self._handle_lease(request)
        if op == "fleet_status":
            return ok_response(**self.leases.fleet_status())
        if op == "shutdown":
            self.stop()
            return ok_response(stopping=True)
        return error_response(
            f"unknown op {op!r} (expected ping/push/status/report/"
            f"metrics/metrics_history/register/heartbeat/lease/"
            f"fleet_status/shutdown)"
        )

    def _counters(self) -> dict[str, Any]:
        return {
            "records": len(self._latest),
            "accepted": self.accepted,
            "duplicates": self.duplicates,
            "dropped": self.dropped,
            "conflicts": self.conflicts,
            "malformed_store_records": self.malformed_store_records,
            "store": str(self.store.path),
        }

    # ------------------------------------------------------------------
    # fleet verbs (the lease-based control plane)
    # ------------------------------------------------------------------
    def _handle_register(self, request: dict[str, Any]) -> dict[str, Any]:
        worker = request.get("worker")
        if not isinstance(worker, str) or not worker:
            return error_response(
                "register requires a non-empty 'worker' name string"
            )
        return ok_response(**self.leases.register(worker))

    def _handle_heartbeat(self, request: dict[str, Any]) -> dict[str, Any]:
        worker_id = request.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            return error_response("heartbeat requires a 'worker_id' string")
        beat = self.leases.heartbeat(worker_id)
        if beat is None:
            # Not an error: a restarted collector has an empty worker
            # table, and the cure (re-register) belongs to the worker.
            return ok_response(known=False)
        return ok_response(known=True, **beat)

    def _handle_lease(self, request: dict[str, Any]) -> dict[str, Any]:
        worker_id = request.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            return error_response("lease requires a 'worker_id' string")
        fingerprints = request.get("fingerprints")
        if not isinstance(fingerprints, list) or not all(
            isinstance(item, str) and item for item in fingerprints
        ):
            return error_response(
                "lease requires a 'fingerprints' list of cell fingerprint "
                "strings (the worker's offered universe)"
            )
        limit = request.get("limit", DEFAULT_LEASE_BATCH)
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            return error_response(
                f"lease: 'limit' must be a positive integer, got {limit!r}"
            )
        release = request.get("release", [])
        if not isinstance(release, list) or not all(
            isinstance(item, str) for item in release
        ):
            return error_response(
                "lease: 'release' must be a list of fingerprint strings"
            )
        grant = self.leases.grant(
            worker_id, fingerprints, limit=limit, release=release
        )
        if grant is None:
            return ok_response(known=False, granted=[], done=False)
        return ok_response(known=True, **grant)

    def _handle_push(self, request: dict[str, Any]) -> dict[str, Any]:
        records = request.get("records")
        if not isinstance(records, list):
            return error_response("push requires a 'records' list")
        # Validate the whole batch before ingesting any of it: a bad
        # record mid-batch must not leave a half-ingested prefix whose
        # counts are lost and whose retry would double-ingest.
        for index, record in enumerate(records):
            if not isinstance(record, dict):
                return error_response(
                    f"push record {index} is not a JSON object (cell record)"
                )
            fingerprint = record.get("fingerprint")
            if not isinstance(fingerprint, str) or not fingerprint:
                return error_response(
                    f"push record {index} lacks a fingerprint field"
                )
            try:
                CellResult.from_record(record)
            except (KeyError, TypeError, ValueError) as error:
                return error_response(
                    f"push record {index} is not a valid cell record ({error!r})"
                )
        self._push_batch_records.observe(len(records))
        self._last_push_monotonic = time.monotonic()
        counts = {"accepted": 0, "dropped": 0, "conflicts": 0}
        for record in records:
            fate = self.ingest(record)
            if fate == "dropped":
                counts["dropped"] += 1
            else:
                counts["accepted"] += 1
                if fate == "conflict":
                    counts["conflicts"] += 1
        return ok_response(**counts)
