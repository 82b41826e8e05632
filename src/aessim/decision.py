"""Triggering and supervisory control: time-to-evade, time-to-collision,
the warning/engage inequalities and the state machine that owns the
manoeuvre lifecycle. The time-to-collision of the no-action path is one
call of the contact-time kernel, geometry.earliest_contact_time."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

from .geometry import Footprint, earliest_contact_time
from .pathgen import CurvatureProfile, SampledPath

logger = logging.getLogger(__name__)


@dataclass
class TriggerConfig:
    t_margin: float = 0.15       # engage window on top of the TTE [s]
    t_warning: float = 0.3      # warning lead time [s]
    tte_reduction: float = 0.0  # constant subtracted from the evasive duration [s]
    ttc_horizon: float = 5.0    # look-ahead for the no-action check [s]

    def __post_init__(self) -> None:
        if min(self.t_margin, self.t_warning, self.tte_reduction) < 0:
            raise ValueError("trigger times must be non-negative")
        if self.ttc_horizon <= 0:
            raise ValueError("ttc_horizon must be positive")


class Trigger(Enum):
    NONE = "none"
    WARN = "warn"
    ENGAGE = "engage"


class AesState(Enum):
    STANDBY = "standby"
    MONITORING = "monitoring"
    WARNING = "warning"
    IN_REGULATION = "in_regulation"
    ABORTED = "aborted"


@dataclass(frozen=True)
class SupervisorState:
    state: AesState = AesState.STANDBY
    selected_path: SampledPath | None = None  # executed, iff IN_REGULATION
    abort_reason: str | None = None


@dataclass
class SupervisorEvents:
    """Per-tick inputs to the state machine, computed by the pipeline."""

    targets_present: bool = False
    trigger: Trigger = Trigger.NONE
    path_valid: bool = True
    candidate_path: SampledPath | None = None
    replanned_path: SampledPath | None = None
    manoeuvre_complete: bool = False


def compute_tte(profile: CurvatureProfile, cfg: TriggerConfig) -> float:
    """Time to evade: evasive-phase duration shortened by the tunable factor."""
    return max(0.0, (profile.t8 - float(profile.times[0])) - cfg.tte_reduction)


def compute_ttc(ego, v_x: float, targets, fp: Footprint,
                horizon: float) -> float:
    """Earliest predicted contact time of the no-action path within the
    horizon, inf if clear.

    The no-action path holds the ego's speed v_x and heading; ego needs only
    X, Y and psi. The targets move at their predicted constant velocity,
    each given as the kernel row (X, Y, footprint, cos, sin, vx, vy) of
    geometry.earliest_contact_time, which the loop forms from constants of
    the run. It is the least per-target geometry.first_contact_time: the
    ego heading's cos/sin is formed once, for the velocity and the
    rectangle alike, and a car in the next lane is cleared before its
    corners are.
    """
    c, s = math.cos(ego.psi), math.sin(ego.psi)
    return earliest_contact_time(ego, fp, c, s, (v_x * c, v_x * s), targets,
                                 horizon)


def evaluate_triggers(ttc: float, tte: float, cfg: TriggerConfig) -> Trigger:
    """Engage inside [TTE, TTE + t_margin]; warn within t_warning above it."""
    if tte <= ttc <= tte + cfg.t_margin:
        return Trigger.ENGAGE
    if ttc <= tte + cfg.t_margin + cfg.t_warning:
        return Trigger.WARN
    return Trigger.NONE


_TRIGGERLESS_STATES = (AesState.STANDBY, AesState.ABORTED)


def _illegal(s: SupervisorState, ev: SupervisorEvents) -> str | None:
    if ev.trigger is not Trigger.NONE and s.state in _TRIGGERLESS_STATES:
        return f"trigger {ev.trigger.value} while {s.state.value}"
    if s.state is not AesState.IN_REGULATION and (
            ev.replanned_path is not None or ev.manoeuvre_complete
            or not ev.path_valid):
        return f"regulation event while {s.state.value}"
    return None


def step_state_machine(s: SupervisorState,
                       ev: SupervisorEvents) -> SupervisorState:
    """One supervisor transition; deterministic and side-effect free.

    Event combinations unreachable by construction are rejected and logged.
    A rejected transition, or one that changes nothing, returns s itself.
    ABORTED is absorbing.
    """
    reason = _illegal(s, ev)
    if reason is not None:
        logger.warning("illegal event rejected (%s)", reason)
        return s

    if s.state is AesState.STANDBY:
        if ev.targets_present:
            return SupervisorState(AesState.MONITORING)
        return s

    if s.state is AesState.MONITORING:
        if not ev.targets_present:
            return SupervisorState(AesState.STANDBY)
        if ev.trigger is not Trigger.NONE and ev.candidate_path is not None:
            # an engage-grade trigger still passes through the warning state
            return SupervisorState(AesState.WARNING)
        return s

    if s.state is AesState.WARNING:
        if ev.trigger is Trigger.NONE:
            return SupervisorState(AesState.MONITORING)
        if ev.trigger is Trigger.ENGAGE:
            if ev.candidate_path is None:
                return SupervisorState(AesState.ABORTED,
                                       abort_reason="no feasible path at engage")
            return SupervisorState(AesState.IN_REGULATION,
                                   selected_path=ev.candidate_path)
        return s

    if s.state is AesState.IN_REGULATION:
        if ev.manoeuvre_complete:
            return SupervisorState(AesState.MONITORING)
        if not ev.path_valid:
            if ev.replanned_path is not None:
                return SupervisorState(AesState.IN_REGULATION,
                                       selected_path=ev.replanned_path)
            return SupervisorState(AesState.ABORTED,
                                   abort_reason="replanning failed")
        return s

    return s  # ABORTED
