"""Synthesis-as-a-service: a fault-tolerant job service over the sweep engine.

Layers the sweep engine (:mod:`repro.eval.parallel`) and the
content-addressed cache (:mod:`repro.eval.cache`) behind a small HTTP API
with the reliability features a shared deployment needs:

* durable, idempotent job store keyed by sweep signature
  (:mod:`repro.service.store`);
* bounded fair queue plus admission control, load shedding with informed
  ``Retry-After``, and a worker-pool circuit breaker
  (:mod:`repro.service.queue`, :mod:`repro.service.admission`);
* per-request budgets clamped to server ceilings and a deadline reaper
  (:mod:`repro.service.budgets`);
* deterministic artifact generation shared with the CLI, so served bytes
  equal exported bytes (:mod:`repro.service.artifacts`);
* graceful signal-driven drain (:mod:`repro.service.signals`);
* a resilient stdlib-only client SDK — deadline budgets, decorrelated
  jitter retries, a client-side circuit breaker, idempotent resubmission
  and long-poll ``wait_for`` (:mod:`repro.service.client`).

The HTTP front end is stdlib-only (``http.server``).
"""

from .admission import AdmissionController, CircuitBreaker, DurationEwma
from .app import (
    ServiceConfig,
    ServiceHTTPHandler,
    SynthesisService,
    make_server,
)
from .artifacts import (
    ARTIFACT_KINDS,
    artifact_catalog_entries,
    fetch_artifact,
    generate_artifact,
)
from .budgets import BudgetPolicy, Reaper
from .client import ClientConfig, ServiceClient, TERMINAL_STATES
from .queue import FairQueue, QueueFull
from .signals import run_forever
from .store import JobRecord, JobSpec, JobState, JobStore

__all__ = [
    "ARTIFACT_KINDS",
    "AdmissionController",
    "BudgetPolicy",
    "CircuitBreaker",
    "ClientConfig",
    "DurationEwma",
    "FairQueue",
    "JobRecord",
    "JobSpec",
    "JobState",
    "JobStore",
    "QueueFull",
    "Reaper",
    "ServiceClient",
    "ServiceConfig",
    "ServiceHTTPHandler",
    "SynthesisService",
    "TERMINAL_STATES",
    "artifact_catalog_entries",
    "fetch_artifact",
    "generate_artifact",
    "make_server",
    "run_forever",
]
