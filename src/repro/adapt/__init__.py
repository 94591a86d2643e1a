"""Adaptive recompilation: the epoch-based feedback controller.

The one-shot pipeline (:meth:`Jrpm.run`) trusts the TEST profile
forever; this subsystem closes the loop between execution telemetry and
compilation decisions.  See :mod:`repro.adapt.controller` for the
measure -> decide -> recompile cycle, :mod:`repro.adapt.policy` for the
threshold decision policy, :mod:`repro.adapt.epochs` for realized
per-STL telemetry, and :mod:`repro.adapt.log` for the serialized
decision log (``docs/adaptation.md`` has the full design).
"""

from .controller import AdaptController
from .epochs import EpochTelemetry, StlObservation, observe_epoch
from .log import (ACTION_DECOMMIT, ACTION_LOCK_ESCALATE, ACTION_PROMOTE,
                  ACTIONS, AdaptDecision, AdaptationLog, EpochRecord,
                  validate_log_dict)
from .policy import AdaptState, ThresholdPolicy

__all__ = [
    "ACTIONS", "ACTION_DECOMMIT", "ACTION_LOCK_ESCALATE",
    "ACTION_PROMOTE", "AdaptController", "AdaptDecision", "AdaptState",
    "AdaptationLog", "EpochRecord", "EpochTelemetry", "StlObservation",
    "ThresholdPolicy", "observe_epoch", "validate_log_dict",
]
