"""Path rejection, cost ranking, selection and validity monitoring.

Paths failing the driveable-area check or the collision check are rejected;
survivors are scored with a severity term (RMS-style sums of lateral and
longitudinal acceleration along the path) plus a proximity term (mean of the
per-step minimum distance to any target, sign of the weight left to the
configuration).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (DriveableSpace, Footprint, Prediction, check_paths,
                       collision_check, driveable_area_check, predict)
from .pathgen import SampledPath, anchor_path, presample_profile

REJECT_NOT_DRIVEABLE = "not_driveable"
REJECT_COLLISION = "collision"


@dataclass
class CostWeights:
    K_ay: float = 1.0
    K_ax: float = 1.0
    K_prox: float = 0.0


@dataclass
class RankedPath:
    path: SampledPath
    rejected: str | None = None
    severity: float | None = None   # costs of a survivor only
    proximity: float | None = None
    total: float | None = None


def _acceleration_norms(path: SampledPath) -> tuple[float, float]:
    """Root sums of squares of the lateral (v^2 rho) and longitudinal
    (dv/dt) accelerations."""
    a_lat = path.v ** 2 * path.rho
    a_lon = np.diff(path.v) / np.diff(path.t)
    return (math.sqrt(float(np.sum(np.abs(a_lat) ** 2))),
            math.sqrt(float(np.sum(np.abs(a_lon) ** 2))))


def severity_cost(path: SampledPath, w: CostWeights) -> float:
    """Severity from lateral (v^2 rho) and longitudinal (dv/dt) terms; a
    read-only path keeps its acceleration norms."""
    if len(path) < 2:
        return 0.0
    lat, lon = path.cached("severity", _acceleration_norms)
    return w.K_ay * lat + w.K_ax * lon


def proximity_cost(path: SampledPath, targets, w: CostWeights, X: float,
                   Y: float, pred: Prediction) -> float:
    """Mean over samples of the distance from the path translated by (X, Y)
    to the nearest target; pred holds the targets on a grid with path.t as
    its prefix, as in geometry.check_paths."""
    if not targets:
        return 0.0
    n = len(path)
    x, y = pred.pos[:, :, :n]
    d = np.hypot(x - (X + path.x), y - (Y + path.y))
    return w.K_prox * float(np.mean(d.min(axis=0)))


def rank_paths(paths, targets, space: DriveableSpace, fp: Footprint,
               w: CostWeights, dt_check: float = 0.1, X: float = 0.0,
               Y: float = 0.0) -> list[RankedPath]:
    """Reject or cost every path; input order is preserved.

    The paths translated by (X, Y) must be in the frame of the space and
    the target predictions. A path failing the driveable check is rejected
    as not_driveable; the others are checked for collisions in one
    geometry.check_paths call. The targets are predicted once, on the
    longest path's grid, of which every family path's grid is a prefix
    (pathgen.presample_profile).
    """
    pred = predict(targets, max((p.t for p in paths), key=len,
                                default=np.zeros(0)))
    driveable = [driveable_area_check(path, space, fp, X, Y)
                 for path in paths]
    candidates = [p for p, ok in zip(paths, driveable) if ok]
    collides = iter(check_paths(candidates, targets, fp, dt_check, X, Y,
                                pred) if candidates else ())
    ranked: list[RankedPath] = []
    for path, ok in zip(paths, driveable):
        if not ok:
            ranked.append(RankedPath(path, rejected=REJECT_NOT_DRIVEABLE))
        elif next(collides):
            ranked.append(RankedPath(path, rejected=REJECT_COLLISION))
        else:
            sev = severity_cost(path, w)
            prox = proximity_cost(path, targets, w, X, Y, pred)
            ranked.append(RankedPath(path, severity=sev, proximity=prox,
                                     total=sev + prox))
    return ranked


def best_survivor(ranked: list[RankedPath]) -> RankedPath | None:
    """Lowest-cost survivor, or None; ties break toward lower severity, then
    lower path index."""
    return min((r for r in ranked if r.rejected is None),
               key=lambda r: (r.total, r.severity, r.path.index), default=None)


def select_path(path: SampledPath, X: float, Y: float,
                dt_fine: float = 0.01) -> SampledPath:
    """The path, resampled to the fine control grid and placed at (X, Y)
    in fresh arrays."""
    if path.profile is not None and abs(path.dt - dt_fine) > 1e-12:
        path = replace(presample_profile(path.profile, dt_fine),
                       index=path.index, path_id=path.path_id)
    return anchor_path(path, X, Y)


def monitor_selected(path: SampledPath, targets, space: DriveableSpace,
                     fp: Footprint, dt_check: float = 0.1) -> str | None:
    """Re-check the remaining part of the active path against fresh data:
    the rejection reason, or None while the path stays valid. The
    driveable check runs first, so a path failing both is not_driveable."""
    if not driveable_area_check(path, space, fp):
        return REJECT_NOT_DRIVEABLE
    if collision_check(path, targets, fp, dt_check).collides:
        return REJECT_COLLISION
    return None
