"""Generation of candidate sawtooth dive profiles from depth-band parameters."""

from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class DiveProfileParams:
    """Depth bands and level counts driving profile generation (depths in m)."""

    z_min: float = 0.0
    z_max: float = 200.0
    z_climb_to_max: float = 40.0
    d_min_range: float = 50.0
    n_climb_levels: int = 4
    n_dive_levels: int = 6

    def __post_init__(self):
        if not 0 <= self.z_min <= self.z_climb_to_max:
            raise ParameterError("require 0 <= z_min <= z_climb_to_max")
        if not self.z_climb_to_max < self.z_max:
            raise ParameterError("require z_climb_to_max < z_max")
        if not self.d_min_range > 0:
            raise ParameterError("d_min_range must be > 0")
        if self.n_climb_levels < 1:
            raise ParameterError("n_climb_levels must be >= 1")
        if self.n_dive_levels < 1:
            raise ParameterError("n_dive_levels must be >= 1")
        if self.z_max - self.z_min < self.d_min_range:
            raise ParameterError("require z_max - z_min >= d_min_range")


@dataclass(frozen=True)
class DiveProfile:
    """One climb-to/dive-to depth pair (m) bounding a sawtooth."""

    z_climb_to: float
    z_dive_to: float
    index: int

    def __post_init__(self):
        if not 0 <= self.z_climb_to < self.z_dive_to:
            raise ParameterError("require 0 <= z_climb_to < z_dive_to")


def _levels(lo, hi, n):
    """n equally spaced values from lo to hi inclusive, endpoints exact."""
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    vals = [lo + i * step for i in range(n - 1)]
    vals.append(hi)
    return vals


def generate_dive_profiles(p):
    """Cross product of climb-to and dive-to levels, filtered by the minimum
    dive amplitude (inclusive), in outer-climb ascending / inner-dive
    descending order. Indices follow emission order from 0."""
    climb_levels = _levels(p.z_min, p.z_climb_to_max, p.n_climb_levels)
    dive_levels = _levels(p.z_max, p.z_min + p.d_min_range, p.n_dive_levels)
    out = []
    for zc in climb_levels:
        for zd in dive_levels:
            if zd - zc >= p.d_min_range:
                out.append(DiveProfile(zc, zd, len(out)))
    if not out:
        raise ParameterError("no feasible dive profile for the given parameters")
    return out
