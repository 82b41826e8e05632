from pathlib import Path

import numpy as np
import pytest

from aessim.capability import EgoState, VehicleParams

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture
def ref_params() -> VehicleParams:
    """Mid-size vehicle used throughout the numeric examples."""
    return VehicleParams(m=2000.0, a=1.4, b=1.6, h_cog=0.55, w=1.6,
                         C_f=1.0e5, C_r=1.0e5, I_zz=3500.0, delta_max=0.1)


@pytest.fixture
def ego20() -> EgoState:
    return EgoState(v_x=20.0)


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


def reference_corners(path, fp, X=0.0, Y=0.0) -> list:
    """(x, y) arrays of each footprint corner at every sample, formed on the
    path's own samples and then translated by (X, Y) (reference)."""
    c, s = np.cos(path.psi), np.sin(path.psi)
    cx = path.x + fp.ref_offset * c
    cy = path.y + fp.ref_offset * s
    hl, hw = 0.5 * fp.length, 0.5 * fp.width
    return [(X + (cx + dx * c - dy * s), Y + (cy + dx * s + dy * c))
            for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]


def reference_driveable(path, space, fp, X=0.0, Y=0.0) -> bool:
    """The per-sample corner test of the driveable check (reference): every
    corner translated by (X, Y) at every sample inside the corridor,
    boundary included."""
    return all(bool(np.all((x >= space.x_start) & (x <= space.x_end)
                           & (y >= space.y_right) & (y <= space.y_left)))
               for x, y in reference_corners(path, fp, X, Y))
