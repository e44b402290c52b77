"""Scenario files: a strict two-level reader and its writer.

File layout: a required integer ``format_version`` plus one section per
component (gas, cell, laser, particle, detector) and an optional top-level
``spore_density_m3``.  Each key, with its unit as a suffix, and its
aliases live on the field of the ``quantities`` dataclass, which
``quantities.schema`` lists; an alias converts on load (``*_hz`` keys are
multiplied by 2 pi into angular frequencies, ``molecule_mass_amu``
converts to kilograms).

The grammar:

- the text is lines of UTF-8; blank lines and ``#`` comment lines are
  skipped, and a tab anywhere is refused;
- at top level a line is ``key: value``, or ``key:`` to open a section;
- the lines of a section are indented by one consistent run of spaces and
  read ``key: value``: sections do not nest;
- a key starts with a letter or an underscore and runs to the colon;
- a value is one plain decimal number (``101325.0``, ``1e-05``,
  ``4.0e+26``; an integer part has no leading zero), or ``.inf``,
  ``-.inf`` or ``.nan`` (also as ``.Inf``, ``.INF``, ``.NaN``, ``.NAN``),
  and may be followed by `` # comment``.

Any other line is a ``ParseError`` reading ``line L, column C: ...``: flow
collections, quotes, anchors, aliases, tags, block scalars, ``? `` keys,
merge keys and document markers among them, and a key given twice in one
section.  A value that is one plain word but not a number (``warm``,
``true``, ``inf``, ``1_000``, ``010``, ``0x1F``) is a ``SchemaError``
naming its key, and so is an integer whose value is beyond the range of a
double.

Loading is strict: unknown keys are an error, and every missing required
key is reported in one message.  A key is required exactly when its field
has no default, and an omitted optional key takes that default
(``detector_coverage`` 1, for one).  ``load_scenario`` refuses a file
longer than MAX_SCENARIO_CHARS (2^20) characters, reading no further.

Writing uses repr precision, which round-trips doubles exactly, and the
same bytes as earlier versions.
``scenario_hash`` digests the canonical flattened form, so any two equal
scenarios hash identically regardless of which aliases the source file used.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re

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
    "MAX_SCENARIO_CHARS",
    "SECTION_NAMES",
]

FORMAT_VERSION = 1

# a scenario file is about a kilobyte (tests/golden/spore.yaml is 872 bytes)
MAX_SCENARIO_CHARS = 1 << 20

_KEY = re.compile(r"[A-Za-z_][^ :]*")
_NUMBER = re.compile(r"[-+]?(?:(?:0|[1-9][0-9]*)(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
                     r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)")
# characters that open syntax a scenario file does not use when they
# start a value: collections, quotes, anchors, aliases, tags, block scalars
_NOT_PLAIN = "[]{}'\"&*!|>%@`,"


class ParseError(ValueError):
    """Text outside the scenario grammar, with its line and column."""


class SchemaError(ValueError):
    """Text in the grammar that does not describe a scenario."""


SECTION_NAMES = tuple(COMPONENTS)


@dataclasses.dataclass(frozen=True)
class LoadResult:
    scenario: Scenario


def _coerce_number(value, where: str) -> float:
    if not isinstance(value, str) or not _NUMBER.fullmatch(value):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    if value[-1].isalpha():   # .inf, -.inf, .nan
        return float(value.replace(".", ""))
    number = float(value)
    if value.lstrip("+-").isdigit():
        if math.isinf(number):
            raise SchemaError(f"{where}: an integer beyond the range of a double")
        return number or 0.0   # an integer has no sign of zero: -0 is 0
    return number


def _error(row: int, index: int, problem: str) -> ParseError:
    return ParseError(f"line {row}, column {index + 1}: {problem}")


def _parse(text: str) -> dict:
    """The file's top-level keys, each mapped to its value's text or, for a
    section, to a dict of its keys and values' texts."""
    doc: dict = {}
    section = indent = None   # the open section and its lines' indentation
    for row, line in enumerate(text.split("\n"), 1):
        line = line.removesuffix("\r")
        if "\t" in line:
            raise _error(row, line.index("\t"), "found a tab")
        at = len(line) - len(line.lstrip(" "))
        if at == len(line) or line[at] == "#":
            continue
        match = _KEY.match(line, at)
        if match is None:
            raise _error(row, at, f"expected a key, found {line[at]!r}")
        key, end = match[0], match.end()
        if line[end:end + 1] != ":":
            raise _error(row, end, "expected ':' after the key")
        rest = line[end + 1:]
        if rest[:1] not in ("", " "):
            raise _error(row, end + 1, "expected a space after ':'")
        value = rest.partition(" #")[0].strip(" ")
        if at == 0:
            mapping, section, indent = doc, None, None
        elif section is None or at != (indent or at):
            raise _error(row, at, "unexpected indentation")
        else:
            mapping, indent = section, at
        if key in mapping:
            raise _error(row, at, f"found duplicate key {key!r}")
        if not value:
            if mapping is not doc:
                raise _error(row, end + 1, "expected a value: sections do not nest")
            mapping[key] = section = {}
        elif value[0] in _NOT_PLAIN:
            raise _error(row, len(line) - len(rest.lstrip(" ")),
                         f"found {value[0]!r}: a value is a plain number")
        else:
            mapping[key] = value
    return doc


def loads_scenario(text: str) -> LoadResult:
    """Parse and validate a scenario from the text of a scenario file.  See
    module docstring for rules."""
    doc = _parse(text)
    if not doc:
        raise SchemaError("empty document")

    missing: list[str] = []
    version = doc.get("format_version")
    if version is None:
        missing.append("format_version")
    elif _coerce_number(version, "format_version") != FORMAT_VERSION:
        raise SchemaError(
            f"format_version {version} not supported "
            f"(this reader handles {FORMAT_VERSION})")

    top = schema(Scenario)
    known_top = {"format_version", *SECTION_NAMES, *(key for _, key, _, _ in top)}
    unknown = [key for key in doc if key not in known_top]

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
    # one character past the limit tells a longer file, or /dev/zero, apart
    with open(path, encoding="utf-8") as file:
        text = file.read(MAX_SCENARIO_CHARS + 1)
    if len(text) > MAX_SCENARIO_CHARS:
        raise ValueError(f"scenario file {str(path)!r} is longer than "
                         f"{MAX_SCENARIO_CHARS} characters")
    return loads_scenario(text)


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


def _number(value) -> str:
    """repr, spelled as the grammar reads it and as earlier versions wrote
    it: .inf, -.inf, .nan, and a fraction before an exponent (2.0e-18)."""
    text = repr(value).replace("inf", ".inf").replace("nan", ".nan")
    return text if "." in text else text.replace("e", ".0e")


def dumps_scenario(scenario: Scenario) -> str:
    lines = []
    for key, content in _canonical_sections(scenario).items():
        if isinstance(content, dict):
            lines.append(f"{key}:")
            lines.extend(f"  {k}: {_number(v)}" for k, v in content.items())
        else:
            lines.append(f"{key}: {_number(content)}")
    return "\n".join(lines) + "\n"


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
