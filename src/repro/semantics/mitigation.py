"""Predictive mitigation runtime (Sec. 7, Fig. 6).

``mitigate_eta (e, l) c`` promises that observing the execution time of the
block leaks only a bounded amount of information about levels above ``l``'s
observers.  The runtime keeps, per mitigation level, a misprediction counter
``Miss[l]``, and enforces::

    predict(n, l) = max(n, 1) * 2^Miss[l]          (fast doubling)

The block is padded so its total time is exactly the current prediction; if
the body overruns the prediction, ``Miss[l]`` is incremented until the
prediction exceeds the elapsed time (rule S-UPDATE), and the block is padded
to the *new* prediction.  Because each level's prediction can only take
``Miss`` values that grow monotonically, the number of distinct observable
durations after time ``T`` is ``O(log T)`` -- the source of the paper's
``|L^| * log(K+1) * (1 + log T)`` leakage bound.

Two penalty policies from the predictive-mitigation line of work are
provided (Fig. 6 uses the *local* policy):

* local: one ``Miss`` counter per mitigation level -- a misprediction at H
  does not inflate predictions for blocks mitigated at an incomparable
  level;
* global: a single shared counter -- simpler, leaks less across levels, but
  penalizes everyone for anyone's misprediction.

Prediction *schemes* are pluggable; besides fast doubling the polynomial
scheme ``max(n,1) * (Miss+1)^q`` from the earlier predictive-mitigation
papers is included for the ablation benchmarks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional

from ..lattice import Label
from ..telemetry.recorder import TraceRecorder


class PredictionScheme(ABC):
    """Maps (initial estimate, misprediction count) to a prediction."""

    @abstractmethod
    def predict(self, estimate: int, misses: int) -> int:
        """The prediction for a block with initial estimate ``estimate``
        after ``misses`` recorded mispredictions."""

    def name(self) -> str:
        """Human-readable scheme name for reports."""
        return type(self).__name__


class DoublingScheme(PredictionScheme):
    """The paper's fast doubling: ``predict(n, l) = max(n, 1) * 2^Miss[l]``."""

    def predict(self, estimate: int, misses: int) -> int:
        """``max(n, 1) * 2^misses``."""
        return max(estimate, 1) * (2 ** misses)


class PolynomialScheme(PredictionScheme):
    """``max(n, 1) * (Miss + 1)^q`` -- slower growth, more mispredictions,
    tighter padding; q=1 is linear backoff."""

    def __init__(self, power: int = 2):
        if power < 1:
            raise ValueError("power must be >= 1")
        self.power = power

    def predict(self, estimate: int, misses: int) -> int:
        """``max(n, 1) * (misses + 1)^q``."""
        return max(estimate, 1) * ((misses + 1) ** self.power)

    def name(self) -> str:
        """Human-readable scheme name for reports."""
        return f"PolynomialScheme(q={self.power})"


#: Scheme names accepted by :func:`make_scheme` (the CLI's ``--scheme``
#: choices and the workload spec's ``scheme`` field).
SCHEME_CHOICES = ("doubling", "polynomial")


def make_scheme(name: str, power: int = 2) -> PredictionScheme:
    """Build a prediction scheme from its spec/CLI name."""
    if name == "doubling":
        return DoublingScheme()
    if name == "polynomial":
        return PolynomialScheme(power=power)
    raise ValueError(
        f"unknown prediction scheme {name!r}; choose from {SCHEME_CHOICES}"
    )


class MitigationState:
    """The ``Miss`` array plus policy/scheme choices.

    The state is shared across all ``mitigate`` commands of one execution --
    mispredictions inflate *subsequent* predictions (Sec. 2.3), which is what
    makes total leakage polylogarithmic in time rather than linear in the
    number of blocks.
    """

    def __init__(
        self,
        scheme: Optional[PredictionScheme] = None,
        policy: str = "local",
    ):
        if policy not in ("local", "global"):
            raise ValueError("policy must be 'local' or 'global'")
        self.scheme = scheme if scheme is not None else DoublingScheme()
        self.policy = policy
        self._miss: Dict[Optional[Label], int] = {}
        #: Telemetry seam; the interpreter assigns each run's recorder
        #: (``None`` when unobserved, see :mod:`repro.telemetry`).
        self.recorder: Optional[TraceRecorder] = None

    def _key(self, level: Label) -> Optional[Label]:
        return level if self.policy == "local" else None

    def misses(self, level: Label) -> int:
        """Current value of ``Miss[level]`` (or the shared counter)."""
        return self._miss.get(self._key(level), 0)

    def predict(self, estimate: int, level: Label) -> int:
        """``predict(n, l)`` under the current scheme and counters."""
        return self.scheme.predict(estimate, self.misses(level))

    def settle(self, estimate: int, level: Label, elapsed: int) -> int:
        """Apply S-UPDATE and return the padded total duration.

        Mirrors Fig. 6: while the elapsed time has reached the prediction,
        record a misprediction; the block is then padded to the first
        prediction strictly greater than the elapsed time.
        """
        key = self._key(level)
        recorder = self.recorder
        while elapsed >= self.scheme.predict(
            estimate, self._miss.get(key, 0)
        ):
            self._miss[key] = self._miss.get(key, 0) + 1
            if recorder is not None:
                recorder.on_miss_update(key, self._miss[key])
        return self.scheme.predict(estimate, self._miss.get(key, 0))

    def describe(self) -> str:
        """``scheme/policy`` -- the configuration string attached to run
        spans by the telemetry layer."""
        return f"{self.scheme.name()}/{self.policy}"

    def snapshot(self) -> Dict[Optional[Label], int]:
        """Current counters (for inspection and tests)."""
        return dict(self._miss)

    def copy(self) -> "MitigationState":
        """An independent copy (counters included)."""
        clone = MitigationState(self.scheme, self.policy)
        clone._miss = dict(self._miss)
        return clone
