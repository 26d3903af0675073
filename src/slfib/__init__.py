"""Numerical laboratory for U(1)-invariant special Lagrangian geometry in C^3."""

from .calibration import (
    ComplexPoint3,
    FiberChartPoint,
    TangentFrame,
    fiber_points,
    frame_from_chart,
    imomega_residual,
    omega_residual,
    sl_defect,
)
from .elliptic import (
    BoundarySpec,
    DomainSpec,
    SolutionField,
    load_field,
    reconstruct_u,
    save_field,
    solve_disc,
    solve_disc_limit,
    solve_strip,
    solve_strip_limit,
)
from .models import (
    BaseCoordF,
    BaseCoordHL,
    NaSlice,
    explicit_F,
    explicit_Fprime,
    hl_discriminant_contains,
    hl_map,
    na_oracle,
    na_oracle_grid,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
