"""The distributed sweep service.

Four layers spread the single-machine experiment runner over many
processes and machines.  Sweeps themselves always execute through
:class:`~repro.experiments.runner.SweepRunner` on a
:class:`~repro.experiments.runner.WorkerPool`; across machines, the
lease fleet (``collect`` + ``run <suite> --fleet``) is the one way a
sweep is spread, and offline ``merge`` unions finished stores:

* :mod:`repro.service.protocol` — the transport-neutral line-JSON wire
  protocol: :class:`Endpoint` addresses (Unix path or ``host:port``),
  the shared :class:`LineServer` listener (accept loops, per-connection
  threads, TCP token auth) that the daemon and the collector are verb
  tables on top of;
* :mod:`repro.service.daemon` / :mod:`repro.service.client` — a job
  queue speaking the protocol over a local socket and, with
  ``--listen``, over token-authenticated TCP (``serve`` / ``submit``
  subcommands), so many clients feed one long-lived pool; the ``report``
  verb serves rendered report bundles for finished jobs;
* :mod:`repro.service.collector` — :class:`ResultCollector`, the fleet's
  coordinator: workers push each completed cell record over the wire
  into one fingerprint-deduplicated store that ``report`` consumes
  unchanged, under the same duplicate policy as file-based merging
  (:func:`repro.experiments.store.resolve_duplicate`);
* :mod:`repro.service.leases` — the elastic control plane:
  :class:`LeaseTable` tracks registered workers, heartbeats and
  per-fingerprint leases inside the collector (``register`` /
  ``heartbeat`` / ``lease`` / ``fleet_status`` verbs; a ``push``
  completes the cell's lease), and :class:`FleetWorker` is the pull
  side behind ``run <suite> --fleet host:port`` — workers lease batches,
  dead workers' leases expire and are reassigned to survivors, and
  replacement workers resume from the collector's completed
  fingerprints.
"""

from repro.service.client import (
    CollectorSink,
    ServiceClient,
    ServiceConnection,
    ServiceError,
    ServiceTransportError,
)
from repro.service.collector import ResultCollector
from repro.service.daemon import DEFAULT_SOCKET, Job, SweepDaemon
from repro.service.leases import (
    DEFAULT_HEARTBEAT_INTERVAL_S,
    DEFAULT_LEASE_BATCH,
    LEASE_FATES,
    FleetWorker,
    LeaseTable,
)
from repro.service.protocol import (
    AUTH_TOKEN_ENV,
    Endpoint,
    LineServer,
    ProtocolError,
    connect_endpoint,
    parse_endpoint,
)

__all__ = [
    "CollectorSink",
    "ServiceClient",
    "ServiceConnection",
    "ServiceError",
    "ServiceTransportError",
    "ResultCollector",
    "DEFAULT_SOCKET",
    "Job",
    "SweepDaemon",
    "DEFAULT_HEARTBEAT_INTERVAL_S",
    "DEFAULT_LEASE_BATCH",
    "LEASE_FATES",
    "FleetWorker",
    "LeaseTable",
    "AUTH_TOKEN_ENV",
    "Endpoint",
    "LineServer",
    "ProtocolError",
    "connect_endpoint",
    "parse_endpoint",
]
