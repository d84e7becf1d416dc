"""Retrain policy and observability (§4.1.4 and §5.3).

E2-NVM "set[s] a minimum threshold to [the] number of addresses in each
cluster and will trigger the re-training process in the background when one
of the clusters reaches the threshold".  The policy here decides *when*; the
engine performs the retrain in a background worker and swaps models
atomically, so — per §5.3 — "the writing process does not have to be
stopped because the retraining is done in the background lazily".

Three pieces live here:

- :class:`RetrainDecision` — what the policy wants *right now*: nothing,
  fire a background retrain, or defer because the pool is too empty to
  train on (fewer free segments than clusters);
- :class:`RetrainPolicy` — the threshold-plus-cooldown trigger;
- :class:`RetrainStats` — counters the engine exposes so benchmarks and
  tests can observe retrain/recovery behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class RetrainDecision(enum.Enum):
    """Outcome of one :meth:`RetrainPolicy.decide` evaluation."""

    #: Nothing to do: threshold not tripped (or cooldown active).
    SKIP = "skip"
    #: Start a retrain now.
    FIRE = "fire"
    #: A retrain is wanted but fewer than ``n_clusters`` segments are free;
    #: retry later, once capacity returns.
    DEFER = "defer"


@dataclass
class RetrainStats:
    """Retrain/recovery counters exposed as ``engine.retrain_stats``.

    Only *re*-trains are counted — the initial ``train()`` that boots the
    engine is not.  ``pool_restores`` counts the times a failed swap rolled
    the Dynamic Address Pool back to its pre-retrain snapshot.
    """

    started: int = 0
    succeeded: int = 0
    failed: int = 0
    deferred: int = 0
    pool_restores: int = 0
    last_duration_s: float = 0.0
    total_duration_s: float = 0.0
    #: Student placers distilled alongside a successful (re)train — the
    #: fast placement layer's tier-2 model is refreshed at each of these.
    student_refreshes: int = 0
    #: Distillation fidelity of the most recent student (fraction of the
    #: training sample where its argmax matched the teacher's label).
    last_student_agreement: float = 0.0
    #: Distillations whose teacher agreement fell below
    #: ``config.student_agreement_warn`` — such a student rarely clears
    #: the ``student_confidence`` serving threshold and sits dormant.
    student_low_agreement_warnings: int = 0

    def as_dict(self) -> dict[str, float]:
        """Flat dict view (benchmark reporting)."""
        return {
            "retrains_started": self.started,
            "retrains_succeeded": self.succeeded,
            "retrains_failed": self.failed,
            "retrains_deferred": self.deferred,
            "pool_restores": self.pool_restores,
            "last_retrain_s": self.last_duration_s,
            "total_retrain_s": self.total_duration_s,
            "student_refreshes": self.student_refreshes,
            "last_student_agreement": self.last_student_agreement,
            "student_low_agreement_warnings": (
                self.student_low_agreement_warnings
            ),
        }


@dataclass
class RetrainPolicy:
    """Threshold-plus-cooldown retrain trigger.

    Attributes:
        min_free_per_cluster: trigger when any cluster's free list shrinks
            below this.
        cooldown_writes: suppress triggers within this many writes of the
            previous retrain (successful or failed — a failure resets the
            cooldown too, giving retries a back-off).
    """

    min_free_per_cluster: int = 1
    cooldown_writes: int = 256
    triggers: int = field(default=0, init=False)
    _writes_since_retrain: int = field(default=0, init=False)

    def record_write(self, count: int = 1) -> None:
        """Count ``count`` writes toward the cooldown window."""
        self._writes_since_retrain += count

    def record_retrain(self) -> None:
        """Reset the cooldown after a retrain attempt (success or failure)."""
        self._writes_since_retrain = 0

    def decide(
        self,
        min_cluster_free: int,
        total_free: int,
        n_clusters: int,
        pending: bool = False,
    ) -> RetrainDecision:
        """Decide what the engine should do about retraining right now.

        Args:
            min_cluster_free: smallest per-cluster free count.
            total_free: total free addresses across clusters.
            n_clusters: cluster count (minimum viable training set size).
            pending: a previously wanted retrain was deferred (not enough
                free segments) or failed; it retries as soon as the
                cooldown allows, regardless of the threshold.

        Returns ``FIRE`` when a retrain should start, ``DEFER`` when one is
        wanted but fewer than ``n_clusters`` segments are free (training
        would be impossible), and ``SKIP`` otherwise.  ``DEFER`` never
        fails a write: the engine keeps placing via the pool's first-fit
        fallback and retries later.
        """
        wanted = pending or min_cluster_free < self.min_free_per_cluster
        if not wanted or self._writes_since_retrain < self.cooldown_writes:
            return RetrainDecision.SKIP
        if total_free < n_clusters:
            return RetrainDecision.DEFER
        if not pending:
            # Retries of a deferred/failed retrain are not new triggers.
            self.triggers += 1
        return RetrainDecision.FIRE
