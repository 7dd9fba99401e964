"""Per-point retry policy with backoff, jitter and a circuit breaker.

At campaign scale (thousands of fault scenarios and fuzz seeds), worker
crashes and hangs are routine, not exceptional — a single flaky point must
not cost a rerun of the whole sweep, and a systematically broken
configuration must not triple its wall-clock by retrying every point
three times. This module is the policy half of that trade:

* :class:`RetryPolicy` decides *whether* a failed point runs again
  (transient-vs-permanent classification from the structured RPR
  diagnostic codes the executor attaches: worker crashes ``RPR-E001``,
  timeouts ``RPR-E002`` and repeated pool breaks ``RPR-E003`` are
  transient; synthesis/toolchain errors are permanent) and *when*
  (exponential backoff with deterministic jitter, so two shards retrying
  the same cache do not stampede in lockstep);
* :class:`CircuitBreaker` bounds retry storms: once more than
  ``threshold`` of a statistically meaningful sample of points has
  failed, the campaign degrades to no-retry mode with a single
  ``RPR-E004`` diagnostic — a broken config fails fast instead of
  failing three times slower.

Determinism: jitter is derived from :func:`stable_fingerprint` over
``(seed, token, attempt)``, never from ``random`` or the clock, so a
resumed or re-sharded run backs off identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.diagnostics.core import Diagnostic
from repro.utils.idgen import stable_fingerprint

__all__ = [
    "TRANSIENT_CODES",
    "BREAKER_CODE",
    "CircuitBreaker",
    "RetryPolicy",
    "is_transient",
    "is_transient_exception",
]

#: executor-harness diagnostic codes that mark an outcome as retryable:
#: the *fabric* failed (crash, hang, broken pool), not the point itself.
#: The serve layer contributes its own transients — capacity rejections
#: (RPR-V002), a draining daemon (RPR-V004), an unreachable daemon
#: (RPR-V006) and a mid-stream disconnect after acceptance (RPR-V007) —
#: so the daemon client classifies network faults with the *same*
#: policy campaigns use for worker faults.
TRANSIENT_CODES = frozenset({
    "RPR-E001", "RPR-E002", "RPR-E003",
    "RPR-V002", "RPR-V004", "RPR-V006", "RPR-V007",
})

#: emitted once when the circuit breaker trips a campaign into no-retry
BREAKER_CODE = "RPR-E004"


def is_transient(outcome) -> bool:
    """True when a non-ok :class:`PointOutcome` is worth re-running.

    Classification is by diagnostic code, not status string: a ``failed``
    point whose diagnostics carry a synthesis error (``RPR-L...``,
    ``RPR-T...``) is deterministic and will fail again; one whose
    diagnostics carry only harness codes (crash/timeout) is transient.
    """
    codes = {d.get("code") for d in (outcome.diagnostics or ())
             if isinstance(d, dict)}
    codes.discard(None)
    if not codes:
        # no structured diagnostics at all: an unclassified harness
        # failure — treat as transient (a retry can only help)
        return outcome.status in ("timeout", "failed")
    return bool(codes) and codes <= TRANSIENT_CODES


def is_transient_exception(exc: BaseException) -> bool:
    """True when an exception carries a transient diagnostic code.

    The one classification seam for exception-shaped failures (the serve
    client's connection errors, a daemon's capacity rejection): a
    :class:`~repro.errors.ReproError` whose ``code`` is in
    :data:`TRANSIENT_CODES` is worth retrying elsewhere or later.
    """
    return getattr(exc, "code", None) in TRANSIENT_CODES


@dataclass
class CircuitBreaker:
    """Degrades a campaign to no-retry mode when failures are systemic.

    ``observe`` is fed every *final* point outcome; once at least
    ``min_points`` have been seen and the failure fraction exceeds
    ``threshold``, the breaker opens and stays open — retrying is then a
    wall-clock tax on a configuration that is broken, not unlucky.
    """

    threshold: float = 0.25
    min_points: int = 20
    ok: int = 0
    failed: int = 0
    open: bool = False
    #: the one-shot diagnostic dict recorded when the breaker tripped
    tripped_diagnostic: dict | None = None

    def observe(self, point_ok: bool) -> None:
        if point_ok:
            self.ok += 1
        else:
            self.failed += 1
        total = self.ok + self.failed
        if (not self.open and total >= self.min_points
                and self.failed / total > self.threshold):
            self.open = True
            self.tripped_diagnostic = Diagnostic(
                code=BREAKER_CODE,
                severity="warning",
                message=(
                    f"retry circuit breaker open: {self.failed}/{total} "
                    f"points failing (> {self.threshold:.0%}); degrading "
                    "to no-retry mode — fix the configuration instead of "
                    "retrying it"),
            ).to_dict()

    def as_dict(self) -> dict:
        return {"ok": self.ok, "failed": self.failed, "open": self.open,
                "threshold": self.threshold, "min_points": self.min_points}


@dataclass
class RetryPolicy:
    """How many times, and how fast, one point may run.

    ``max_attempts`` counts every execution (1 = no retries). Delay for
    attempt ``n`` (the one about to run, 2-based for retries) is
    ``base_delay * 2**(n - 2)`` capped at ``max_delay``, stretched by up
    to ``jitter`` (a deterministic fraction derived from the point token,
    so concurrent shards desynchronize without a shared RNG).
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    max_delay: float = 30.0
    jitter: float = 0.5
    seed: int = 0
    breaker: CircuitBreaker | None = field(default_factory=CircuitBreaker)

    def should_retry(self, outcome, attempt: int) -> bool:
        """May ``outcome`` (from execution number ``attempt``) re-run?"""
        if attempt >= self.max_attempts:
            return False
        if self.breaker is not None and self.breaker.open:
            return False
        return is_transient(outcome)

    def delay(self, attempt: int, token: object = "") -> float:
        """Seconds to wait before execution number ``attempt`` (>= 2)."""
        backoff = self.base_delay * (2.0 ** max(0, attempt - 2))
        backoff = min(backoff, self.max_delay)
        u = (stable_fingerprint(self.seed, token, attempt) % 10_000) / 10_000
        return backoff * (1.0 + self.jitter * u)

    def observe(self, point_ok: bool) -> None:
        """Feed one *final* outcome to the breaker (no-op without one)."""
        if self.breaker is not None:
            self.breaker.observe(point_ok)

    @property
    def breaker_open(self) -> bool:
        return self.breaker is not None and self.breaker.open

    def as_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "max_delay": self.max_delay,
            "jitter": self.jitter,
            "breaker": self.breaker.as_dict() if self.breaker else None,
        }
