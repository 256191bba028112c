"""Distributed proof service: network-sharded obligation solving.

Three processes cooperate (all speaking the length-prefixed,
checksummed JSON protocol of :mod:`repro.dist.protocol`, behind a
versioned handshake):

* the **broker** (:class:`repro.dist.broker.Broker`, ``repro serve``)
  queues sliced :class:`~repro.engine.obligation.ProofObligation`
  batches, tracks worker registration and heartbeats, requeues work
  from dead or stale workers, memoizes verdicts by fingerprint, and
  relays network-wide sibling early-cancel;
* **workers** (:class:`repro.dist.worker.Worker`, ``repro worker``)
  pull obligations and solve them with the exact in-process stack
  (preprocessing included), fronted by a local
  :class:`~repro.engine.cache.ResultCache` kept warm by broker verdict
  gossip;
* **clients** hold a :class:`repro.dist.remote.RemoteEngine` — a
  :class:`~repro.engine.pool.ProofEngine` whose pool ships batches to
  the broker — and pass it as ``engine=`` to ``UpecChecker``,
  ``UpecMethodology``, ``InductiveDiffProof``, ``BmcEngine`` or
  ``ScenarioSweep`` (CLI: ``--connect HOST:PORT``).

Because solving an obligation is a pure function of its bytes,
distributed and local runs produce bit-identical verdict streams; the
broker's fault recovery can change wall-clock, never outcomes.
"""

from repro.dist.broker import Broker
from repro.dist.chaos import ChaosPlan, ChaosProxy
from repro.dist.protocol import (
    PROTO_VERSION,
    Connection,
    ProtocolError,
    obligation_from_wire,
    obligation_to_wire,
    parse_address,
)
from repro.dist.remote import CONNECT_ENV, RemoteEngine, RemotePool, \
    env_connect
from repro.dist.worker import Worker, run_worker

__all__ = [
    "Broker",
    "CONNECT_ENV",
    "ChaosPlan",
    "ChaosProxy",
    "Connection",
    "PROTO_VERSION",
    "ProtocolError",
    "RemoteEngine",
    "RemotePool",
    "Worker",
    "env_connect",
    "obligation_from_wire",
    "obligation_to_wire",
    "parse_address",
    "run_worker",
]
