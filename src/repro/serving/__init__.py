"""Async multi-tenant serving over the NKA decision engine.

The serving tier that makes a fleet of per-tenant
:class:`~repro.engine.NKAEngine` sessions answer concurrent traffic:
admission with per-tenant quotas, a batch coalescer that turns concurrent
``equal?`` requests into one planned engine batch, backpressure by
rejection, graceful drain, and a ``/stats`` surface merging engine and
serving metrics.  See ``README.md`` in this package for the architecture
and the locking discipline, and :mod:`repro.serving.service` for the
core.

Quick start::

    from repro import parse
    from repro.serving import NKAService, ServingHTTPServer, TenantConfig

    async def main():
        async with NKAService([TenantConfig("team-a", max_batch=32)]) as svc:
            result = await svc.equal_detailed(
                "team-a", parse("(a b)* a"), parse("a (b a)*")
            )
            async with ServingHTTPServer(svc) as http:
                print(f"serving on :{http.port}")
                ...
"""

from repro.serving.coalescer import SHUTDOWN, PendingRequest, collect_batch
from repro.serving.http import ServingHTTPServer
from repro.serving.metrics import LatencyWindow, TenantMetrics
from repro.serving.service import (
    NKAService,
    ServiceClosed,
    ServingError,
    TenantConfig,
    TenantQuotaExceeded,
    UnknownTenant,
)

__all__ = [
    "LatencyWindow",
    "NKAService",
    "PendingRequest",
    "SHUTDOWN",
    "ServiceClosed",
    "ServingError",
    "ServingHTTPServer",
    "TenantConfig",
    "TenantMetrics",
    "TenantQuotaExceeded",
    "UnknownTenant",
    "collect_batch",
]
