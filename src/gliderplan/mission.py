"""Mission configuration (XML) and result serialization (XML/CSV).

The mission file initializes every module of the planner; the identified
path is stored back as XML after a search. The schema is documented in
the README; every element is optional, unknown elements and attributes
are rejected. The elements that configure a module are read from the
fields of its config dataclass, whose field defaults fill omitted values.
"""

import csv
import math
import xml.etree.ElementTree as ET
from dataclasses import MISSING, dataclass, fields, is_dataclass

from .cost import IntegrationParams, VehicleParams
from .engine import EngineConfig
from .errors import ConfigError, ParameterError
from .grid import GridSpec
from .ocean import FlowEnvironment, JetParams, SurfaceCurrentParams
from .profiles import DiveProfileParams


@dataclass(frozen=True)
class MissionConfig:
    env: FlowEnvironment
    vehicle: VehicleParams
    integration: IntegrationParams
    grid: GridSpec
    profile_params: DiveProfileParams
    start: tuple
    goal: tuple
    t0: float
    engine: EngineConfig
    auto_sleep: bool
    run_mode: str


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError("not a boolean: %r" % text)


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _attr(el, name, conv, default=MISSING):
    """el's attribute name converted by conv, or default if it is absent;
    a ConfigError names the element and the attribute if it is absent with
    no default or conv rejects it."""
    raw = el.attrib.get(name)
    if raw is None:
        if default is MISSING:
            raise ConfigError("<%s>: missing attribute %r" % (el.tag, name))
        return default
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError("<%s %s=%r>: %s" % (el.tag, name, raw, exc))


def _attrs(el, schema):
    """Attribute dict per schema {name: (converter, default)}; rejects
    unknown attribute names."""
    for key in el.attrib:
        if key not in schema:
            raise ConfigError("<%s>: unknown attribute %r" % (el.tag, key))
    return {name: _attr(el, name, conv, default)
            for name, (conv, default) in schema.items()}


def _build(factory, element_name, **kwargs):
    try:
        return factory(**kwargs)
    except ParameterError as exc:
        raise ConfigError("<%s>: %s" % (element_name, exc))


def _schema(cls):
    """XML schema of a config dataclass, from its fields: each scalar field
    is an attribute {name: (converter, default)}, the converter its type or
    _finite for a float, each dataclass-typed field a child element
    {name: class}."""
    attrs, nested = {}, {}
    for f in fields(cls):
        if is_dataclass(f.type):
            nested[f.name] = f.type
        else:
            attrs[f.name] = (_finite if f.type is float else f.type,
                             f.default)
    return attrs, nested


_SCHEMAS = {cls: _schema(cls) for cls in (
    FlowEnvironment, JetParams, SurfaceCurrentParams, VehicleParams,
    IntegrationParams, GridSpec, DiveProfileParams)}
_START = {"x": (_finite, 0.2), "y": (_finite, 0.0)}
_GOAL = {"x": (_finite, 7.8), "y": (_finite, 0.0)}
_SEARCH = {"t0": (_finite, 0.0)}
_ENGINE = {"n_workers": (int, 4),
           "sleep_poll_interval_ms": (
               _finite, EngineConfig.sleep_poll_interval * 1e3),
           "auto_sleep": (_parse_bool, False)}
_RUN = {"mode": (str, "serial")}
_ELEMENTS = {"flow", "vehicle", "integration", "grid", "dive_profiles",
             "start", "goal", "search", "engine", "run"}
_ABSENT = ET.Element("absent")  # stands in for an omitted element


def _children(el, allowed, tag):
    """Child elements of el by tag; each must be in allowed and appear at
    most once."""
    out = {}
    for child in el:
        if child.tag not in allowed:
            raise ConfigError("unknown element <%s> inside <%s>"
                              % (child.tag, tag))
        if child.tag in out:
            raise ConfigError("duplicate element <%s> inside <%s>"
                              % (child.tag, tag))
        out[child.tag] = child
    return out


def _section(el, cls, tag):
    """Instance of config dataclass cls from element el: attributes set its
    scalar fields, child elements its dataclass fields; omitted values take
    the field defaults."""
    attrs, nested = _SCHEMAS[cls]
    kwargs = _attrs(el, attrs)
    for name, child in _children(el, nested, tag).items():
        kwargs[name] = _section(child, nested[name], name)
    return _build(cls, tag, **kwargs)


def parse_mission(path):
    """Parse and validate a mission XML file into a MissionConfig."""
    try:
        tree = ET.parse(path)
    except (ET.ParseError, OSError) as exc:
        raise ConfigError("cannot parse mission file %s: %s" % (path, exc))
    root = tree.getroot()
    if root.tag != "mission":
        raise ConfigError("root element must be <mission>, got <%s>" % root.tag)
    children = _children(root, _ELEMENTS, "mission")

    def section(tag, cls):
        return _section(children.get(tag, _ABSENT), cls, tag)

    def attrs(tag, schema):
        el = children.get(tag, _ABSENT)
        _children(el, (), tag)
        return _attrs(el, schema)

    env = section("flow", FlowEnvironment)
    vehicle = section("vehicle", VehicleParams)
    integration = section("integration", IntegrationParams)
    grid = section("grid", GridSpec)
    profile_params = section("dive_profiles", DiveProfileParams)
    start = attrs("start", _START)
    goal = attrs("goal", _GOAL)
    t0 = attrs("search", _SEARCH)["t0"]
    ea = attrs("engine", _ENGINE)
    engine = _build(EngineConfig, "engine", n_workers=ea["n_workers"],
                    sleep_poll_interval=ea["sleep_poll_interval_ms"] / 1e3)
    run_mode = attrs("run", _RUN)["mode"]
    if run_mode not in ("serial", "parallel"):
        raise ConfigError("<run>: mode must be 'serial' or 'parallel'")

    return MissionConfig(env=env, vehicle=vehicle, integration=integration,
                         grid=grid, profile_params=profile_params,
                         start=(start["x"], start["y"]),
                         goal=(goal["x"], goal["y"]), t0=t0, engine=engine,
                         auto_sleep=ea["auto_sleep"], run_mode=run_mode)


def write_path_xml(result, path):
    """Serialize a PathResult; float attributes use repr so the document
    round-trips bit-exactly and is byte-stable across runs."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    lines.append('<path t0="%s" arrival="%s">' % (repr(result.t0),
                                                  repr(result.arrival)))
    for leg in result.legs:
        lines.append(
            '  <leg from="%d" to="%d" departure="%s" travel_time="%s" '
            'profile="%d"/>' % (leg.frm, leg.to, repr(leg.departure),
                                repr(leg.travel_time), leg.profile_index))
    lines.append('</path>')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path, header, rows):
    """CSV with a one-line header; floats written via repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
