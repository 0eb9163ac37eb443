"""Analytic time-varying ocean current field.

An eastward meandering jet derived from a stream function, plus a
wind-driven surface term that decays linearly to zero at a fixed depth.
Horizontal coordinates and velocities are dimensionless; depth is in
meters, positive down.

Each FlowEnvironment binds its field once, when it is made: _bind builds
one closure uv(x, y, z, t) -> (u, v) for its mode, with the jet and
surface constants read once. field_uv() checks the depth and calls it, so
an integrator step pays neither a mode dispatch nor parameter reads, and
returns its plain tuple: cost.velocity, the integrator's per-step call and
the name the benchmark's tracer wraps, is field_uv. velocity(), the public
API, wraps the same tuple in a FlowSample.

The jet velocity is written once, in _jet_field, and the surface term
once, in _surface_field; velocity() in jet or surface mode gives either
alone. meander_amplitude's expression is repeated inline in _jet_field,
and the tests pin the two bit for bit. The closures keep the formulas'
float expressions: only k * k, k ** 3 and d * omega, each the first
operation of its product, are computed ahead. So every sample is
bit-identical to the formulas evaluated term by term.
"""

import math
from dataclasses import dataclass, field, fields
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
        # A plain attribute, not a field: fields() of this class is the
        # <flow> element's schema (mission._section), and ==, hash and
        # repr read the fields alone.
        object.__setattr__(self, "_uv", _bind(self))

    def __reduce__(self):
        # pickle cannot carry the bound closure; rebuild it from the fields
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def still(cls):
        return cls(mode=MODE_STILL)

    @classmethod
    def uniform(cls, ux, uy):
        return cls(mode=MODE_UNIFORM, ux=ux, uy=uy)


def meander_amplitude(t, jet):
    """Time-dependent meander amplitude B(t).

    _jet_field writes the same expression; tests pin the two bit for bit.
    """
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


def _jet_field(jet, surface_u):
    """The jet velocity as a closure uv(x, y, z, t) -> (u, v), from the
    analytic stream-function gradient (u = -dphi/dy, v = dphi/dx), with
    surface_u(z, t) added to u."""
    k = jet.k
    c = jet.c
    B0 = jet.B0
    epsilon = jet.epsilon
    omega = jet.omega
    theta = jet.theta
    # Exact pre-binds: each is the first operation of its product below.
    k2 = k * k
    k3 = k ** 3
    sin = math.sin
    cos = math.cos
    cosh = math.cosh
    sqrt = math.sqrt

    def uv(x, y, z, t):
        a = k * (x - c * t)
        B = B0 + epsilon * cos(omega * t + theta)
        sa = sin(a)
        ca = cos(a)
        n = y - B * ca
        g = 1.0 + k2 * B * B * sa * sa
        d = sqrt(g)
        q = n / d
        ch = cosh(q)
        sech2 = 1.0 / (ch * ch)
        # dq/dx = (dn/dx * d - n * dd/dx) / g with
        # dn/dx = B k sin(a), dd/dx = k^3 B^2 sin(a) cos(a) / d
        dq_dx = (B * k * sa * d - n * k3 * B * B * sa * ca / d) / g
        return sech2 / d + surface_u(z, t), -sech2 * dq_dx

    return uv


def _no_surface(z, t):
    # The jet alone: its u = sech2 / d is never -0.0, so u + 0.0 is u.
    return 0.0


def _surface_field(surf, omega):
    """The surface term's u contribution as a closure surface_u(z, t);
    zero at and below z_decay. It does not check the depth."""
    W0 = surf.W0
    z_decay = surf.z_decay
    d_omega = surf.d * omega  # exact: the first operation of the product
    cos = math.cos

    def surface_u(z, t):
        shape = 1.0 - z / z_decay
        if shape <= 0.0:
            return 0.0
        return W0 * cos(d_omega * t) * shape

    return surface_u


def _bind(env):
    """env's field as one closure uv(x, y, z, t) -> (u, v) for its mode.
    The depth is checked by field_uv(), not here."""
    mode = env.mode
    if mode == MODE_FULL:
        return _jet_field(env.jet, _surface_field(env.surface, env.jet.omega))
    if mode == MODE_JET:
        return _jet_field(env.jet, _no_surface)
    if mode == MODE_SURFACE:
        surface_u = _surface_field(env.surface, env.jet.omega)

        def uv(x, y, z, t):
            return surface_u(z, t), 0.0

        return uv
    sample = (env.ux, env.uy) if mode == MODE_UNIFORM else (0.0, 0.0)

    def uv(x, y, z, t):
        return sample

    return uv


def depth_independent_below(env):
    """The depth (m) at and below which env's field does not vary with
    depth.

    The surface term is the only depth-dependent part, and it is exactly
    0.0 at z >= z_decay; the other modes ignore depth.
    """
    if env.mode in (MODE_FULL, MODE_SURFACE):
        return env.surface.z_decay
    return 0.0


def current_disk(env):
    """A disk (cx, cy, r) in the (u, v) plane that holds every sample of
    env's field, at every point, depth and time.

    still: (0, 0, 0); uniform: (ux, uy, 0). The surface term is
    W0 cos(d omega t) (1 - z / z_decay) with 0 < 1 - z / z_decay <= 1
    where it is not zero, so |u| <= |W0| and v = 0: (0, 0, |W0|).

    The jet's u = sech^2(q) / d lies in (0, 1], since sech^2 <= 1 and
    d = sqrt(1 + k^2 B^2 sin^2 a) >= 1. Its v = -sech^2(q) dq/dx, with
    dq/dx = B k sin(a) / d - q k^3 B^2 sin(a) cos(a) / d^2. The first
    term's size is x / sqrt(1 + x^2) <= 1 with x = k B sin(a). The second
    is sech^2(q) |q| <= 0.4478 times k^2 |B| |cos(a)| x / (1 + x^2), and
    x / (1 + x^2) <= 1/2. With |B| <= B0 + epsilon:
    |v| <= vb = 1 + 0.2239 k^2 (B0 + epsilon). So the jet's samples lie in
    the box [0, 1] x [-vb, vb], inside (0.5, 0, hypot(0.5, vb)); full
    mode adds the surface term to u, which widens the box's half-width to
    0.5 + |W0| about the same centre.
    """
    mode = env.mode
    if mode == MODE_STILL:
        return 0.0, 0.0, 0.0
    if mode == MODE_UNIFORM:
        return env.ux, env.uy, 0.0
    w0 = abs(env.surface.W0)
    if mode == MODE_SURFACE:
        return 0.0, 0.0, w0
    jet = env.jet
    vb = 1.0 + 0.2239 * jet.k * jet.k * (jet.B0 + jet.epsilon)
    half_u = 0.5 + (w0 if mode == MODE_FULL else 0.0)
    return 0.5, 0.0, math.hypot(half_u, vb)


def field_uv(x, y, z, t, env):
    """Current (u, v) at horizontal position (x, y), depth z (m), time t,
    as a plain tuple.

    The field is env's closure, bound once when env was made."""
    if z < 0:
        raise ParameterError("depth z must be >= 0")
    return env._uv(x, y, z, t)


def velocity(x, y, z, t, env):
    """Current sample at horizontal position (x, y), depth z (m), time t,
    as a FlowSample: field_uv's tuple, bit for bit."""
    return FlowSample._make(field_uv(x, y, z, t, env))
