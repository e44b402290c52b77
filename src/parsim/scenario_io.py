"""YAML persistence for scenarios.

File layout: a required integer ``format_version`` plus one mapping per
component (gas, cell, laser, particle, detector) and an optional top-level
``spore_density_m3``.  Keys carry their unit as a suffix so a file never
needs out-of-band documentation; a few convenience aliases convert on load
(``*_hz`` keys are multiplied by 2 pi into angular frequencies,
``molecule_mass_amu`` converts to kilograms).

Loading is strict by default: unknown keys are an error, and every missing
required key is reported in one message.  A key is required exactly when its
field of the ``quantities`` dataclass has no default, and an omitted optional
key takes that default (``detector_coverage`` 1, for one).  Lenient mode
downgrades unknown keys to warnings (typo-tolerant exploration) but never
silently drops a required field.  Plain YAML loaders parse exponent literals
like ``1.0e12`` as strings, so numeric fields are coerced from strings when
needed.  PyYAML, imported only to parse or write, parses with libyaml's C
parser when it was built with it, and in pure Python otherwise.  Both
resolve scalars the same way; they word a syntax error differently and may
place it on a different line (an unclosed ``{`` at the end of the text,
for one).

Writing uses repr precision, which round-trips doubles exactly.
``scenario_hash`` digests the canonical flattened form, so any two equal
scenarios hash identically regardless of which aliases the source file used.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from pathlib import Path

from .quantities import (
    ATOMIC_MASS,
    CellGeometry,
    DetectorNoiseSpec,
    GasProperties,
    LaserDrive,
    ParticleSpec,
    Scenario,
    validate_scenario,
)

__all__ = [
    "ParseError",
    "SchemaError",
    "LoadResult",
    "load_scenario",
    "loads_scenario",
    "dumps_scenario",
    "scenario_hash",
    "FORMAT_VERSION",
    "SECTION_NAMES",
]

FORMAT_VERSION = 1

_TWO_PI = 2.0 * math.pi


class ParseError(ValueError):
    """YAML syntax failure, with source position when available."""


class SchemaError(ValueError):
    """Structurally valid YAML that does not describe a scenario."""


@dataclasses.dataclass(frozen=True)
class _Field:
    attr: str
    key: str
    # alias key -> multiplicative conversion into the canonical unit
    aliases: tuple[tuple[str, float], ...] = ()


_GAS_FIELDS = (
    _Field("pressure", "pressure_pa"),
    _Field("temperature", "temperature_k"),
    _Field("density", "density_kg_m3"),
    _Field("gamma", "adiabatic_index"),
    _Field("molecule_mass", "molecule_mass_kg",
           aliases=(("molecule_mass_amu", ATOMIC_MASS),)),
)

_CELL_FIELDS = (
    _Field("length", "length_m"),
    _Field("radius", "radius_m"),
    _Field("detector_coverage", "detector_coverage"),
)

_LASER_FIELDS = (
    _Field("pump_omega", "pump_omega_rad_s",
           aliases=(("pump_hz", _TWO_PI),)),
    _Field("stokes_omega", "stokes_omega_rad_s",
           aliases=(("stokes_hz", _TWO_PI),)),
    _Field("pump_intensity", "pump_intensity_w_m2"),
    _Field("stokes_intensity", "stokes_intensity_w_m2"),
    _Field("refractive_index", "refractive_index"),
    _Field("modulation_omega", "modulation_omega_rad_s",
           aliases=(("modulation_hz", _TWO_PI),)),
)

_PARTICLE_FIELDS = (
    _Field("volume", "volume_m3"),
    _Field("molecule_count", "molecule_count"),
    _Field("raman_fraction", "raman_fraction"),
    _Field("active_density", "active_density_m3"),
    _Field("raman_cross_section", "raman_cross_section_m2_sr"),
    _Field("linewidth_hz", "linewidth_hz"),
    _Field("collisional_rate", "collisional_rate_rad_s"),
    _Field("radiative_rate", "radiative_rate_rad_s"),
    _Field("molar_heat", "molar_heat_j_mol_k"),
    _Field("radius_override", "equivalent_radius_m"),
)

_DETECTOR_FIELDS = (
    _Field("noise_mode_omega", "noise_mode_omega_rad_s",
           aliases=(("noise_mode_hz", _TWO_PI),)),
    _Field("noise_damping", "noise_damping_rad_s"),
    _Field("signal_damping", "signal_damping_rad_s"),
)

_SECTIONS = (
    ("gas", GasProperties, _GAS_FIELDS),
    ("cell", CellGeometry, _CELL_FIELDS),
    ("laser", LaserDrive, _LASER_FIELDS),
    ("particle", ParticleSpec, _PARTICLE_FIELDS),
    ("detector", DetectorNoiseSpec, _DETECTOR_FIELDS),
)

SECTION_NAMES = tuple(name for name, _, _ in _SECTIONS)

# the fields a file must give: those whose dataclass field has no default
_REQUIRED = {cls: {f.name for f in dataclasses.fields(cls)
                   if f.default is dataclasses.MISSING}
             for _, cls, _ in _SECTIONS}


@dataclasses.dataclass(frozen=True)
class LoadResult:
    scenario: Scenario
    warnings: tuple[str, ...]


def _coerce_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise SchemaError(
                f"{where}: expected a number, got {value!r}") from None
    return float(value)


def _loader():
    import yaml

    return yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _parse_yaml(text: str):
    import yaml

    try:
        return yaml.load(text, Loader=_loader())
    except yaml.YAMLError as exc:
        # a MarkedYAMLError carries a position, which may be None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ParseError(
                f"line {mark.line + 1}, column {mark.column + 1}: "
                f"{exc.problem}") from exc
        raise ParseError(str(exc)) from exc


def loads_scenario(text: str, lenient: bool = False) -> LoadResult:
    """Parse and validate a scenario from YAML text.  See module docstring
    for rules."""
    doc = _parse_yaml(text)
    if doc is None:
        raise SchemaError("empty document")
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a mapping")

    warnings: list[str] = []
    missing: list[str] = []
    unknown: list[str] = []

    version = doc.get("format_version")
    if version is None:
        missing.append("format_version")
    elif _coerce_number(version, "format_version") != FORMAT_VERSION:
        raise SchemaError(
            f"format_version {version!r} not supported "
            f"(this reader handles {FORMAT_VERSION})")

    known_top = {"format_version", "spore_density_m3", *SECTION_NAMES}
    for key in doc:
        if key not in known_top:
            unknown.append(str(key))

    built = {}
    for name, cls, fields in _SECTIONS:
        section = doc.get(name)
        if section is None:
            section = {}
        elif not isinstance(section, dict):
            raise SchemaError(f"{name}: expected a mapping")
        kwargs, sec_unknown = _read_section(name, section, fields)
        unknown.extend(sec_unknown)
        # an omitted optional key takes its dataclass default
        sec_missing = [f"{name}.{f.key}" for f in fields
                       if f.attr in _REQUIRED[cls] and f.attr not in kwargs]
        missing.extend(sec_missing)
        if not sec_missing:
            built[name] = cls(**kwargs)

    if unknown:
        message = "unknown keys: " + ", ".join(sorted(unknown))
        if lenient:
            warnings.append(message + " (ignored)")
        else:
            raise SchemaError(message)
    if missing:
        raise SchemaError("missing required keys: " + ", ".join(missing))

    spore_density = doc.get("spore_density_m3")
    if spore_density is not None:
        spore_density = _coerce_number(spore_density, "spore_density_m3")

    scenario = Scenario(gas=built["gas"], cell=built["cell"],
                        laser=built["laser"], particle=built["particle"],
                        detector=built["detector"],
                        spore_density=spore_density)
    validate_scenario(scenario)
    return LoadResult(scenario, tuple(warnings))


def _read_section(name: str, section: dict, fields: tuple[_Field, ...]):
    kwargs = {}
    unknown = []
    known = {key: (f, factor) for f in fields
             for key, factor in ((f.key, 1.0), *f.aliases)}

    seen: dict[str, str] = {}
    for key, raw in section.items():
        hit = known.get(key)
        if hit is None:
            unknown.append(f"{name}.{key}")
            continue
        f, factor = hit
        if f.attr in seen:
            raise SchemaError(
                f"{name}: {key} and {seen[f.attr]} specify the same quantity")
        seen[f.attr] = key
        kwargs[f.attr] = _coerce_number(raw, f"{name}.{key}") * factor
    return kwargs, unknown


def load_scenario(path, lenient: bool = False) -> LoadResult:
    text = Path(path).read_text(encoding="utf-8")
    return loads_scenario(text, lenient=lenient)


def _canonical_sections(scenario: Scenario) -> dict:
    doc: dict = {"format_version": FORMAT_VERSION}
    for name, _cls, fields in _SECTIONS:
        obj = getattr(scenario, name)
        section = {}
        for f in fields:
            value = getattr(obj, f.attr)
            if value is None:
                continue
            section[f.key] = float(value)
        doc[name] = section
    if scenario.spore_density is not None:
        doc["spore_density_m3"] = float(scenario.spore_density)
    return doc


def dumps_scenario(scenario: Scenario) -> str:
    import yaml

    return yaml.safe_dump(_canonical_sections(scenario), sort_keys=False,
                          default_flow_style=False)


def scenario_hash(scenario: Scenario) -> str:
    """Stable digest of the canonical flattened scenario."""
    doc = _canonical_sections(scenario)
    lines = []
    for section, content in doc.items():
        if isinstance(content, dict):
            for key in sorted(content):
                lines.append(f"{section}.{key}={content[key]!r}")
        else:
            lines.append(f"{section}={content!r}")
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
