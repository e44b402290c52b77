"""YAML persistence for scenarios.

File layout: a required integer ``format_version`` plus one mapping per
component (gas, cell, laser, particle, detector) and an optional top-level
``spore_density_m3``.  Each key, with its unit as a suffix, and its
aliases live on the field of the ``quantities`` dataclass, which
``quantities.schema`` lists; an alias converts on load (``*_hz`` keys are
multiplied by 2 pi into angular frequencies, ``molecule_mass_amu``
converts to kilograms).

Loading is strict: unknown keys are an error, and every missing required
key is reported in one message.  A key is required exactly when its field
has no default, and an omitted optional key takes that default
(``detector_coverage`` 1, for one).  A key given twice in one mapping is
an error, where PyYAML alone would keep the last value, and so are an
integer of any length beyond the range of a double and collections
nested deeper than 100 levels, which the loader counts while it composes
and refuses at the first collection past the limit.  Plain YAML loaders
parse exponent literals like ``1.0e12`` as strings, so numeric fields are
coerced from strings when needed.  PyYAML, imported only to parse or
write, parses with one pure-Python loader, built once, in one pass, so a
syntax error reads the same on every machine, whether or not PyYAML was
built with libyaml.

Writing uses repr precision, which round-trips doubles exactly.
``scenario_hash`` digests the canonical flattened form, so any two equal
scenarios hash identically regardless of which aliases the source file used.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from pathlib import Path

from .quantities import COMPONENTS, Scenario, schema, validate_scenario

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
_MAX_NESTING = 100   # scenario files nest two deep; deeper ones are refused


class ParseError(ValueError):
    """YAML syntax failure, with source position when available."""


class SchemaError(ValueError):
    """Structurally valid YAML that does not describe a scenario."""


SECTION_NAMES = tuple(COMPONENTS)


@dataclasses.dataclass(frozen=True)
class LoadResult:
    scenario: Scenario


def _coerce_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except ValueError:
        raise SchemaError(
            f"{where}: expected a number, got {value!r}") from None
    except OverflowError:
        # an int past the double range; a string of it converts to inf
        raise SchemaError(
            f"{where}: an integer beyond the range of a double") from None


class _HugeInt(str):
    """An integer literal past int()'s digit limit, kept as written: a key
    prints its own digits, and float() of a value overflows."""

    def __float__(self):
        raise OverflowError


@functools.cache
def _loader():
    """The one loader class, carrying parsim's YAML dialect."""
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        """Refuses a mapping key given twice, where PyYAML keeps the last,
        and collections nested deeper than _MAX_NESTING."""

        depth = 0

        def compose_node(self, parent, index):
            # composing recurses once per level: too deep, it would reach
            # the recursion limit
            event = self.peek_event()
            opens = isinstance(event, yaml.CollectionStartEvent)
            self.depth += opens
            if self.depth > _MAX_NESTING:
                raise yaml.composer.ComposerError(
                    None, None, f"collections nested deeper than {_MAX_NESTING}",
                    event.start_mark)
            node = super().compose_node(parent, index)
            self.depth -= opens
            return node

        def construct_yaml_int(self, node):
            # more digits than int() converts (sys.get_int_max_str_digits)
            # are past a double too: _coerce_number refuses it by key
            try:
                return super().construct_yaml_int(node)
            except ValueError:
                return _HugeInt(node.value)

        def construct_mapping(self, node, deep=False):
            # a merge key ("<<") has no constructor: the flattening replaces
            # it by the merged pairs, which the mapping's own keys override
            keys = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep=deep)
            seen = set()
            for key_node in keys:
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}",
                        key_node.start_mark)
                seen.add(key)
            return mapping

    UniqueKeyLoader.add_constructor("tag:yaml.org,2002:int",
                                    UniqueKeyLoader.construct_yaml_int)
    return UniqueKeyLoader


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


def loads_scenario(text: str) -> LoadResult:
    """Parse and validate a scenario from YAML text.  See module docstring
    for rules."""
    doc = _parse_yaml(text)
    if doc is None:
        raise SchemaError("empty document")
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a mapping")

    missing: list[str] = []
    unknown: list[str] = []

    version = doc.get("format_version")
    if version is None:
        missing.append("format_version")
    elif _coerce_number(version, "format_version") != FORMAT_VERSION:
        raise SchemaError(
            f"format_version {version!r} not supported "
            f"(this reader handles {FORMAT_VERSION})")

    top = schema(Scenario)
    known_top = {"format_version", *SECTION_NAMES, *(key for _, key, _, _ in top)}
    for key in doc:
        if key not in known_top:
            unknown.append(str(key))

    built = {}
    for name, cls in COMPONENTS.items():
        section = doc.get(name)
        if section is None:
            section = {}
        elif not isinstance(section, dict):
            raise SchemaError(f"{name}: expected a mapping")
        kwargs = _read_section(name, section, cls, unknown)
        # an omitted optional key takes its dataclass default
        sec_missing = [f"{name}.{f.metadata['key']}"
                       for f in dataclasses.fields(cls)
                       if f.default is dataclasses.MISSING and f.name not in kwargs]
        missing.extend(sec_missing)
        if not sec_missing:
            built[name] = cls(**kwargs)

    if unknown:
        raise SchemaError("unknown keys: " + ", ".join(sorted(unknown)))
    if missing:
        raise SchemaError("missing required keys: " + ", ".join(missing))

    for attr, key, _, _ in top:
        if doc.get(key) is not None:
            built[attr] = _coerce_number(doc[key], key)
    scenario = Scenario(**built)
    validate_scenario(scenario)
    return LoadResult(scenario)


def _read_section(name: str, section: dict, cls, unknown: list) -> dict:
    """The fields that section sets, converted into cls's units; keys cls
    does not know go on unknown."""
    known = {k: (attr, factor) for attr, key, _, aliases in schema(cls)
             for k, factor in ((key, 1.0), *aliases.items())}
    kwargs = {}
    seen: dict[str, str] = {}
    for key, raw in section.items():
        hit = known.get(key)
        if hit is None:
            unknown.append(f"{name}.{key}")
            continue
        attr, factor = hit
        if attr in seen:
            raise SchemaError(
                f"{name}: {key} and {seen[attr]} specify the same quantity")
        seen[attr] = key
        kwargs[attr] = _coerce_number(raw, f"{name}.{key}") * factor
    return kwargs


def load_scenario(path) -> LoadResult:
    return loads_scenario(Path(path).read_text(encoding="utf-8"))


def _canonical_sections(scenario: Scenario) -> dict:
    doc: dict = {"format_version": FORMAT_VERSION}
    for name, cls in COMPONENTS.items():
        doc[name] = _values(getattr(scenario, name), cls)
    doc.update(_values(scenario, Scenario))
    return doc


def _values(obj, cls) -> dict:
    """obj's fields under their file keys, the unset optional ones left out."""
    return {key: float(value) for attr, key, _, _ in schema(cls)
            if (value := getattr(obj, attr)) is not None}


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
