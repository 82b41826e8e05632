"""Closed-loop scenario orchestration.

One deterministic loop steps the plant at dt_plant, the controller and
supervisor at dt_control and the planner at planner_period. Each tick runs
the paper's three steps: while monitoring or warning, trigger on the TTC of
the no-action path against the TTE of the best candidate path, which each
planner cycle replans; once in regulation, track the supervisor's selected
path, re-check its remainder each planner cycle, and replan from the
current state on its side when the check rejects it. The supervisor state is
the only record of the manoeuvre; a new selected path re-anchors tracking.
Each tick opens with one pass over the targets: a target's true position
and speed at the tick, as floats, give its trace cells and, once it has
appeared, its kernel row for the TTC, its distance and the ground-truth
contact that ends a run as collided. Only a tick that plans or monitors the
selected path builds the targets' TargetTrack records, from those floats.
plan_cycle is the planning entry point; it writes no trace, and the loop
logs the PlanCycle it returns with TraceLog.log_cycle and derives the TTE
from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .capability import CapabilityScenario, EgoState, lateral_capability
from .control import (ControlCommand, control_step, path_to_vehicle_frame,
                      tracking_errors)
from .decision import (AesState, SupervisorEvents, SupervisorState, Trigger,
                       compute_ttc, compute_tte, evaluate_triggers,
                       step_state_machine)
from .errors import (DegenerateSpeed, NoFeasiblePath, NumericalDivergence,
                     PathExhausted)
from .geometry import Pose, TargetTrack, sat_check
from .pathgen import SampledPath, generate_path_set
from .plant import (PlantState, _lateral_coeffs, assert_stable_vehicle,
                    lateral_acceleration, plant_step)
from .ranking import (RankedPath, best_survivor, monitor_selected, rank_paths,
                      select_path)
from .scenario import ScenarioConfig
from .trace import TraceLog

OUTCOME_AVOIDED = "avoided"
OUTCOME_COLLIDED = "collided"
OUTCOME_ABORTED = "aborted"
OUTCOME_NO_TRIGGER = "no-trigger"

EXIT_CODES = {
    OUTCOME_AVOIDED: 0,
    OUTCOME_NO_TRIGGER: 0,
    OUTCOME_COLLIDED: 1,
    OUTCOME_ABORTED: 2,
}


@dataclass(frozen=True)
class PlanCycle:
    """One planner cycle: its start point (X, Y), which places every family
    path it ranked, those ranked paths in side order, and the best
    survivor's family path, or None."""

    X: float
    Y: float
    ranked: tuple[RankedPath, ...] = ()
    best: SampledPath | None = None


@dataclass
class RunResult:
    outcome: str
    reason: str
    summary: dict
    trace: TraceLog

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.outcome]


_NO_TRIGGER = Trigger.NONE.value


def _ego_state(plant: PlantState) -> EgoState:
    return EgoState(X=plant.X, Y=plant.Y, psi=plant.psi, v_x=plant.u_v,
                    yaw_rate=plant.r)


def _tracks(seen) -> list[TargetTrack]:
    """The TargetTrack of each appeared target, given as (TargetDef, X, Y,
    speed) at the tick."""
    return [TargetTrack(td.track_id, td.footprint, Pose(X, Y, td.pose.psi), v)
            for td, X, Y, v in seen]


def plan_cycle(ego: EgoState, preds: list[TargetTrack], cfg: ScenarioConfig,
               scenario: CapabilityScenario, sides: list[str],
               families: dict) -> PlanCycle:
    """Capability, path sets on the given sides and one ranking of all
    their paths from ego, with families as generate_path_set's memo. Only
    the selected path is resampled and placed, by select_path."""
    try:
        cap = lateral_capability(scenario, cfg.vehicle, ego.v_x, cfg.cap_tuning)
    except DegenerateSpeed:
        return PlanCycle(ego.X, ego.Y)
    paths: list[SampledPath] = []
    for side in sides:
        try:
            paths += generate_path_set(ego, cap, cfg.road, cfg.path_tuning,
                                       side, families).paths
        except NoFeasiblePath:
            continue
    ranked = rank_paths(paths, preds, cfg.road, cfg.footprint, cfg.weights,
                        cfg.sim.dt_check, ego.X, ego.Y)
    best = best_survivor(ranked)
    return PlanCycle(ego.X, ego.Y, tuple(ranked),
                     None if best is None else best.path)


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Run one scenario to completion and return the outcome and trace."""
    params, fp = cfg.vehicle, cfg.footprint
    assert_stable_vehicle(params, cfg.ego.v_x)
    space = cfg.road
    trace = TraceLog([td.track_id for td in cfg.targets])

    plant = PlantState(u_v=cfg.ego.v_x, X=cfg.ego.X, Y=cfg.ego.Y,
                       psi=cfg.ego.psi)
    sup = SupervisorState(AesState.STANDBY)

    dt_ctrl = cfg.sim.dt_control
    substeps = round(dt_ctrl / cfg.sim.dt_plant)
    planner_every = round(cfg.sim.planner_period / dt_ctrl)
    n_ticks = round(cfg.sim.duration / dt_ctrl)

    families: dict = {}   # generate_path_set's family memo, for this run
    cycle = PlanCycle(plant.X, plant.Y)   # the last plan, none yet
    tte: float | None = None   # of cycle's best, while triggering
    anchor = brake_until = a_x_min = 0.0  # set at engage
    force_complete = False
    outcome = None
    engage_info: dict = {}
    max_abs_ay = 0.0
    max_abs_ye = 0.0
    min_dist = {td.track_id: math.inf for td in cfg.targets}
    coeffs_speed = None   # the speed the lateral coefficients belong to
    idle = ControlCommand()  # the command of a tick out of regulation
    # the events of a tick with no target present: the supervisor is in
    # standby (a target never disappears), where no branch writes them
    quiet = SupervisorEvents()
    # what the run holds constant per target: its heading's cos and sin (a
    # target's heading never turns), its footprint centre's offset from its
    # reference point and its contact radius with the ego
    targets = []
    for td in cfg.targets:
        c, s = math.cos(td.pose.psi), math.sin(td.pose.psi)
        off = td.footprint.ref_offset
        targets.append((td, c, s, off * c, off * s, fp.circumscribed_radius
                        + td.footprint.circumscribed_radius))

    state_value = sup.state.value
    for k in range(n_ticks + 1):
        t = k * dt_ctrl
        # one pass over the targets: each one's true track and trace cells,
        # and for one that has appeared its kernel row, distance and contact
        cells, rows, seen, dists = [], [], [], {}
        collided_with = None
        if targets:
            ecx, ecy = fp.center(plant)  # reads only X, Y and psi
        for td, c, s, ox, oy, reach in targets:
            X, Y, speed = td.track_at(t)
            d = math.hypot((X + ox) - ecx, (Y + oy) - ecy)
            cells += (d, X, Y)
            if t < td.appear_time:   # not there yet: nothing but the cells
                continue
            # speed * c and * s are the bits of TargetTrack.velocity
            rows.append((X, Y, td.footprint, c, s, speed * c, speed * s))
            seen.append((td, X, Y, speed))
            dists[td.track_id] = d
            min_dist[td.track_id] = min(min_dist[td.track_id], d)
            if d <= reach and sat_check(plant, fp, Pose(X, Y, td.pose.psi),
                                        td.footprint):
                collided_with = td.track_id
        planner_tick = (k % planner_every == 0)
        events = SupervisorEvents(targets_present=True) if rows else quiet
        ttc = None
        triggering = sup.state in (AesState.MONITORING, AesState.WARNING)

        # trigger: TTC of the no-action path against the candidate's TTE;
        # a run monitors only with targets present, and none disappears
        if triggering:
            ttc = compute_ttc(plant, plant.u_v, rows, fp,
                              cfg.trigger.ttc_horizon)
            if not planner_tick:
                events.trigger = (Trigger.NONE if tte is None else
                                  evaluate_triggers(ttc, tte, cfg.trigger))
            if planner_tick or (events.trigger is Trigger.ENGAGE
                                and sup.state is AesState.WARNING):
                # off the planner period, regenerate at the engage tick so
                # the executed path starts exactly at the current state
                cycle = plan_cycle(_ego_state(plant), _tracks(seen), cfg,
                                   cfg.cap_scenario, cfg.sides, families)
                trace.log_cycle(t, "plan" if planner_tick else "engage_plan",
                                cycle)
                tte = (None if cycle.best is None
                       else compute_tte(cycle.best.profile, cfg.trigger))
                events.trigger = (Trigger.NONE if tte is None else
                                  evaluate_triggers(ttc, tte, cfg.trigger))
            events.candidate_path = cycle.best

        # regulation: monitor the selected path, replan from it when invalid
        if sup.state is AesState.IN_REGULATION:
            path = sup.selected_path
            tau = t - anchor
            complete = force_complete or tau >= path.profile.duration - 1e-9
            events.manoeuvre_complete = complete
            if not complete and planner_tick:
                preds = _tracks(seen)
                rejected = monitor_selected(path.suffix_from(tau), preds,
                                            space, fp, cfg.sim.dt_check)
                if rejected is not None:
                    events.path_valid = False
                    cycle = plan_cycle(_ego_state(plant), preds, cfg,
                                       cfg.cap_scenario.without_prebraking,
                                       [path.side], families)
                    trace.log_cycle(t, "replan", cycle)
                    events.replanned_path = cycle.best
                    if cycle.best is not None:
                        trace.replan_events.append({
                            "t": float(t), "reason": rejected,
                            "rho0_path": float(cycle.best.profile.rhos[0]),
                            "rho0_plant": float(plant.r / plant.u_v)})

        prev = sup
        sup = step_state_machine(sup, events)
        regulating = sup.state is AesState.IN_REGULATION

        # a new selected path, at engage or replan, is the best of the plan
        # just made: it is placed in the road frame and re-anchors tracking
        if regulating and sup.selected_path is not prev.selected_path:
            sup = replace(sup, selected_path=select_path(
                cycle.best, cycle.X, cycle.Y, dt_ctrl))
            anchor, force_complete = t, False
            if prev.state is not AesState.IN_REGULATION:
                cap = sup.selected_path.profile.capability
                brake_until, a_x_min = t + cap.t_pb, cap.a_x_min
                engage_info = {
                    "engage_time": t, "engage_ttc": ttc, "engage_tte": tte,
                    "engage_path_id": sup.selected_path.path_id,
                    "engage_side": sup.selected_path.side,
                    "engage_speed": plant.u_v, "engage_distances": dists,
                }
                trace.snapshot_candidates(cycle)
        if sup is not prev:
            state_value = sup.state.value

        # control and actuation for this tick
        cmd = idle
        a_x_cmd = 0.0
        y_e = psi_e = None
        if regulating:
            if t < brake_until:
                a_x_cmd = a_x_min
            local = path_to_vehicle_frame(sup.selected_path, plant)
            try:
                err = tracking_errors(local, plant)
                cmd = control_step(err, plant, params, cfg.controller)
                y_e, psi_e = err.y_e, err.psi_e
                max_abs_ye = max(max_abs_ye, abs(err.y_e))
            except PathExhausted:
                force_complete = True

        if plant.u_v != coeffs_speed:   # only pre-braking moves it
            coeffs_speed = plant.u_v
            coeffs = _lateral_coeffs(params, coeffs_speed)
        a_y = lateral_acceleration(plant, cmd, coeffs)
        max_abs_ay = max(max_abs_ay, abs(a_y))

        trace.rows.append([
            t, state_value, plant.X, plant.Y, plant.psi, plant.u_v,
            plant.v_v, plant.r, a_y, plant.ay_saturated, ttc,
            tte if triggering else None,
            events.trigger.value if triggering else _NO_TRIGGER,
            sup.selected_path.path_id if regulating else None, y_e, psi_e,
            cmd.delta_g, cmd.M_z_ext, cmd.brakes.fl, cmd.brakes.fr,
            cmd.brakes.rl, cmd.brakes.rr, *cells])

        if collided_with is not None:
            outcome, reason = OUTCOME_COLLIDED, f"contact with {collided_with}"
            break
        if sup.state is AesState.ABORTED:
            outcome, reason = OUTCOME_ABORTED, sup.abort_reason or "aborted"
            break
        if (prev.state is AesState.IN_REGULATION
                and sup.state is AesState.MONITORING):
            outcome, reason = OUTCOME_AVOIDED, "manoeuvre completed"
            break

        # advance the plant to the next tick
        if k < n_ticks:
            try:
                plant = plant_step(plant, cmd, params, a_x_cmd,
                                   cfg.sim.dt_plant, substeps)
            except NumericalDivergence as exc:
                # the run ends at the last substep that stayed in bounds
                plant = exc.state
                outcome, reason = OUTCOME_ABORTED, str(exc)
                break

    if outcome is None:
        outcome = OUTCOME_AVOIDED if engage_info else OUTCOME_NO_TRIGGER
        reason = "duration reached"

    summary = {
        "schema_version": 1,
        "scenario": cfg.name,
        "outcome": outcome,
        "reason": reason,
        "final_state": sup.state.value,
        "t_end": plant.t,
        "engaged": bool(engage_info),
        "max_abs_ay": max_abs_ay,
        "max_abs_ye": max_abs_ye,
        "min_distance": {k: (v if math.isfinite(v) else None)
                         for k, v in min_dist.items()},
        "t_margin": cfg.trigger.t_margin,
        "tte_reduction": cfg.trigger.tte_reduction,
    }
    summary.update(engage_info)
    trace.summary = summary
    return RunResult(outcome=outcome, reason=reason, summary=summary,
                     trace=trace)
