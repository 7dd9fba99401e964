"""repro.serve — synthesis-as-a-service daemon, protocol and client.

A long-running ``repro serve`` process amortizes everything the batch
CLI pays per invocation: the Python import tax, the in-process codegen
memos (:mod:`repro.simc.codecache`), and one warm, thread-safe
:class:`~repro.lab.cache.SynthesisCache` handle. Clients submit synth /
sweep / campaign / difftest jobs over a local socket
(:mod:`repro.serve.protocol`) and identical concurrent requests are
**coalesced** — fingerprinted with the same content key the cache uses,
so N clients asking for the same synthesis cost one execution
(:mod:`repro.serve.coalesce`) — under explicit admission control
(:mod:`repro.serve.admission`).

There is one daemon per workflow and it knows of no peers: campaigns
scale out with ``--shard K/N`` and ``repro merge``, and daemons that
happen to share a ``--cache`` directory fill each key once through the
cache's fill leases.

Import layering: this package top level only re-exports the light pieces
(protocol + client), so ``repro submit`` stays fast to import; the
server (which pulls in the whole synthesis stack) is imported lazily by
``repro serve``.
"""

from __future__ import annotations

from repro.lab.shard import canonical_record
from repro.serve.client import ServeClient, SubmitReply, parse_address
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    campaign_summary,
    difftest_summary,
    sweep_summary,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ServeClient",
    "SubmitReply",
    "campaign_summary",
    "canonical_record",
    "difftest_summary",
    "parse_address",
    "sweep_summary",
]
