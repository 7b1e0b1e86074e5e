"""Serving gateway: async HTTP front-end + sharded, SLO-scheduled pools.

The production-facing layer over :mod:`repro.serve`:

* :mod:`repro.gateway.protocol` — stdlib HTTP/NDJSON wire layer and the
  job-submission codec;
* :mod:`repro.gateway.scheduler` — the :class:`SLOScheduler`: cost-model
  wall-time prediction (:mod:`repro.simt.predictor`) driving admission
  control, shard routing, weighted-deficit-round-robin tenant fairness
  and backlog-based autoscaling;
* :mod:`repro.gateway.server` — the :class:`Gateway`: asyncio front-end,
  one worker-pool thread per content-hash shard, append-only manifest log;
* :mod:`repro.gateway.client` — :class:`GatewayClient` for the CLI's
  ``gateway submit``/``watch`` subcommands and the tests.
"""

from repro.gateway.client import (GatewayClient, GatewayError,
                                  GatewayRejected)
from repro.gateway.protocol import job_from_request
from repro.gateway.scheduler import (AdmissionError, ScheduledJob,
                                     SLOScheduler)
from repro.gateway.server import Gateway, GatewayConfig

__all__ = [
    "AdmissionError",
    "Gateway",
    "GatewayClient",
    "GatewayConfig",
    "GatewayError",
    "GatewayRejected",
    "ScheduledJob",
    "SLOScheduler",
    "job_from_request",
]
