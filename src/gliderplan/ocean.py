"""Analytic time-varying ocean current field.

An eastward meandering jet derived from a stream function, plus a
wind-driven surface term that decays linearly to zero at a fixed depth.
Horizontal coordinates and velocities are dimensionless; depth is in
meters, positive down.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ParameterError

MODE_FULL = "full"
MODE_JET = "jet"
MODE_SURFACE = "surface"
MODE_UNIFORM = "uniform"
MODE_STILL = "still"

MODES = (MODE_FULL, MODE_JET, MODE_SURFACE, MODE_UNIFORM, MODE_STILL)


@dataclass(frozen=True)
class JetParams:
    """Meandering-jet parameters (dimensionless)."""

    B0: float = 1.2
    epsilon: float = 0.3
    omega: float = 0.4
    theta: float = math.pi / 2
    k: float = 0.84
    c: float = 0.12

    def __post_init__(self):
        if not self.B0 > 0:
            raise ParameterError("jet B0 must be > 0")
        if self.epsilon < 0:
            raise ParameterError("jet epsilon must be >= 0")
        if not self.k > 0:
            raise ParameterError("jet k must be > 0")


@dataclass(frozen=True)
class SurfaceCurrentParams:
    """Wind-driven surface current: amplitude W0, frequency multiplier d,
    and the depth z_decay (m) at which the influence vanishes."""

    W0: float = 0.5
    d: float = 2.0
    z_decay: float = 15.0

    def __post_init__(self):
        if not self.z_decay > 0:
            raise ParameterError("surface z_decay must be > 0")


class FlowSample(NamedTuple):
    u: float
    v: float


# Builds a FlowSample from a (u, v) tuple. FlowSample(u, v) runs the
# named tuple's generated __new__, a Python frame that made up about a
# fifth of each velocity() call.
_sample = tuple.__new__


@dataclass(frozen=True)
class FlowEnvironment:
    """A current field in one of several modes.

    ``full`` composes the jet and surface terms; ``jet`` and ``surface``
    isolate one term; ``uniform`` and ``still`` are constant test fields.
    """

    jet: JetParams = field(default_factory=JetParams)
    surface: SurfaceCurrentParams = field(default_factory=SurfaceCurrentParams)
    mode: str = MODE_FULL
    ux: float = 0.0
    uy: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError("unknown flow mode %r" % (self.mode,))

    @classmethod
    def still(cls):
        return cls(mode=MODE_STILL)

    @classmethod
    def uniform(cls, ux, uy):
        return cls(mode=MODE_UNIFORM, ux=ux, uy=uy)


def meander_amplitude(t, jet):
    """Time-dependent meander amplitude B(t)."""
    return jet.B0 + jet.epsilon * math.cos(jet.omega * t + jet.theta)


def stream_function(x, y, t, jet):
    """Stream function of the meandering jet at (x, y, t)."""
    k = jet.k
    a = k * (x - jet.c * t)
    B = meander_amplitude(t, jet)
    sa = math.sin(a)
    num = y - B * math.cos(a)
    den = math.sqrt(1.0 + k * k * B * B * sa * sa)
    return 1.0 - math.tanh(num / den)


def _jet_uv(x, y, t, jet):
    """Horizontal jet velocity as a plain (u, v) tuple from the analytic
    stream-function gradient: u = -dphi/dy, v = dphi/dx."""
    k = jet.k
    a = k * (x - jet.c * t)
    B = meander_amplitude(t, jet)
    sa = math.sin(a)
    ca = math.cos(a)
    n = y - B * ca
    g = 1.0 + k * k * B * B * sa * sa
    d = math.sqrt(g)
    q = n / d
    ch = math.cosh(q)
    sech2 = 1.0 / (ch * ch)
    # dq/dx = (dn/dx * d - n * dd/dx) / g with
    # dn/dx = B k sin(a), dd/dx = k^3 B^2 sin(a) cos(a) / d
    dq_dx = (B * k * sa * d - n * (k ** 3) * B * B * sa * ca / d) / g
    return sech2 / d, -sech2 * dq_dx


def jet_velocity(x, y, t, jet):
    """Horizontal jet velocity (u, v) at (x, y, t)."""
    return _sample(FlowSample, _jet_uv(x, y, t, jet))


def surface_term(z, t, surf, omega):
    """Wind-driven u contribution at depth z (m); zero below z_decay.

    The v contribution is identically zero.
    """
    if z < 0:
        raise ParameterError("depth z must be >= 0")
    shape = 1.0 - z / surf.z_decay
    if shape <= 0.0:
        return 0.0
    return surf.W0 * math.cos(surf.d * omega * t) * shape


def depth_independent_below(env):
    """The depth (m) at and below which env's field does not vary with
    depth, or None if no such depth is known.

    The surface term is the only depth-dependent part, and surface_term
    is exactly 0.0 at z >= z_decay; the other modes ignore depth.
    """
    if env.mode in (MODE_FULL, MODE_SURFACE):
        return env.surface.z_decay
    if env.mode in (MODE_JET, MODE_UNIFORM, MODE_STILL):
        return 0.0
    return None


def velocity(x, y, z, t, env):
    """Current sample at horizontal position (x, y), depth z (m), time t."""
    if z < 0:
        raise ParameterError("depth z must be >= 0")
    mode = env.mode
    if mode == MODE_FULL:
        jet = env.jet
        u, v = _jet_uv(x, y, t, jet)
        return _sample(FlowSample,
                       (u + surface_term(z, t, env.surface, jet.omega), v))
    if mode == MODE_JET:
        return _sample(FlowSample, _jet_uv(x, y, t, env.jet))
    if mode == MODE_SURFACE:
        return _sample(FlowSample,
                       (surface_term(z, t, env.surface, env.jet.omega), 0.0))
    if mode == MODE_UNIFORM:
        return _sample(FlowSample, (env.ux, env.uy))
    return _sample(FlowSample, (0.0, 0.0))
