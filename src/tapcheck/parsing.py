"""Loading, validating, and serializing ruleset documents.

A document is a single YAML file with sections ``registry``, ``rules``,
``feature_deps``, ``action_relations``, and ``detector``, plus an optional
``day_length`` and, for simulation fixtures, ``house`` and ``sources``
sections that are validated by the simulator; the house's momentary
actuators are checked when a run starts. Parsing checks only shape: every
mapping goes through ``_keys``, so a key it does not declare is an error;
then list shapes, tokens, and each sensor, actuator and feature id declared
once. It reads a leaf's type only where it must hash the leaf before a
record exists, turns a list leaf into a tuple where a record holds one, and
passes every other leaf on as it is. The records (``Sensor``, ``Registry``,
``RuleSet`` and the rest) check every value and name, as for a library
caller, so a document and a library caller get one error for each fault.

``load_document``/``serialize_document`` round-trip through a canonical
form: a serialized document loads back to an equal ruleset and detector
config, and serializing that again gives the same text.

Documents are read and written with libyaml when PyYAML was built with it,
and with PyYAML's pure-Python classes otherwise; both write the same bytes.
A document has two readers. The first builds it straight from the loader's
event stream into dicts and lists, skipping PyYAML's node graph; plain
scalars still go through the loader's own resolver and constructor. It
steps aside on an anchor, an alias, an explicit tag, a merge (``<<``) or
value (``=``) key, an unhashable key, a second document, nesting deeper
than ``_MAX_DEPTH`` and any error, and for a text holding a byte-order mark
past its first character, which libyaml skips at the start of any line.
The pure parser (``yaml.safe_load``) then reads the document, so every YAML
error carries the pure parser's text, line and column, and a document that
nests too deeply or a scalar that cannot be built (``0b_``, ``2001-13-01``)
is one ``ParseError`` too. Both readers build the same object from a
document both accept. Under libyaml the walk reads a few documents the pure
parser rejects, for example a tab after a colon (``a:\tb``) or a ``?``
inside a flow plain scalar (``[temperature?room1]``); the checks that
follow the load judge their content as usual. With an anchor, a tag or a
merge key in it, such a document goes to the pure parser, which rejects it.
A character YAML forbids, such as NUL, is reported on one line with its line
and column.
"""

from dataclasses import dataclass
from pathlib import Path

import yaml
from yaml import (
    AliasEvent,
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    ScalarNode,
    SequenceEndEvent,
    SequenceStartEvent,
)

from .errors import (
    DuplicateIdError,
    ParseError,
    ReferentialIntegrityError,
    TapcheckError,
)
from .model import (
    ActionRelationTable,
    ActionSpec,
    Actuator,
    Cmp,
    DEFAULT_DAY_LENGTH,
    DetectorConfig,
    EventSignature,
    FeatureDependencyGraph,
    Registry,
    Relation,
    Rule,
    RuleSet,
    Sensor,
    TriggerCondition,
    value_problem,
)

_SECTIONS = ("rules", "feature_deps", "action_relations", "detector",
             "day_length", "house", "sources", "scenario")

_WINDOWS = ("overlap_window", "duplicate_window", "same_tick_epsilon")
_CMP_TOKENS = {c.value: c for c in Cmp}
_RELATION_TOKENS = {r.value: r for r in Relation}


@dataclass(frozen=True)
class Document:
    """Everything a document declares: the ruleset, the detector config
    assembled from its ``feature_deps``/``action_relations``/``detector``
    sections, and raw simulator sections (``house``, ``sources``,
    ``scenario``) for the simulator to validate."""

    ruleset: RuleSet
    config: DetectorConfig
    house: dict | None = None
    sources: list | None = None
    scenario: dict | None = None


def read_text(path) -> str:
    """The text of a UTF-8 file, or a ``TapcheckError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TapcheckError(f"cannot read {path}: {exc}") from exc


# libyaml when PyYAML was built with it, the pure-Python classes otherwise.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


_MISSING = object()
# The tags of a plain ``<<`` and ``=``: as keys, ``flatten_mapping`` treats
# them specially; as values, ``SafeConstructor`` cannot construct them.
_MERGE_AND_VALUE = ("tag:yaml.org,2002:merge", "tag:yaml.org,2002:value")
# Documents nest about six levels deep: a trigger's schedule is the fifth,
# inside the trigger, the rule, the rule list and the top-level mapping.
# Past this depth the walk leaves a document to the pure parser, whose
# recursive composer reports it as too deep if its stack runs out.
_MAX_DEPTH = 64


class _Declined(Exception):
    """The event walk met a construct it leaves to the pure parser."""


def _walk_events(text: str):
    """The object ``_LOADER`` constructs from ``text``, built from the
    loader's event stream into dicts and lists without composing nodes.

    A quoted or block scalar is its text. A plain scalar goes through the
    loader's own ``resolve`` and ``construct_object``, once per distinct
    text. A repeated key keeps its first position and its last value, as in
    ``SafeLoader``. Raises on an anchor, an alias, an explicit tag, a plain
    ``<<`` or ``=``, an unhashable key, a second document, a collection
    nested deeper than ``_MAX_DEPTH`` and any YAML error.
    """
    loader = _LOADER(text)
    try:
        plain = {}
        built, keys = [], []  # open collections; each one's parent's key
        key, root, documents = _MISSING, None, 0
        for event in iter(loader.get_event, None):
            kind = type(event)
            if kind is ScalarEvent:
                if event.anchor is not None or event.tag is not None:
                    raise _Declined
                if not event.implicit[0]:
                    value = event.value
                else:
                    value = plain.get(event.value, _MISSING)
                    if value is _MISSING:
                        node = ScalarNode(loader.resolve(
                            ScalarNode, event.value, (True, False)),
                            event.value)
                        if node.tag in _MERGE_AND_VALUE:
                            raise _Declined
                        value = plain[event.value] = \
                            loader.construct_object(node)
            elif kind is MappingStartEvent or kind is SequenceStartEvent:
                if (event.anchor is not None or event.tag is not None
                        or len(built) >= _MAX_DEPTH):
                    raise _Declined
                keys.append(key)
                key = _MISSING
                built.append({} if kind is MappingStartEvent else [])
                continue
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                value = built.pop()
                key = keys.pop()
            elif kind is DocumentStartEvent:
                documents += 1
                if documents > 1:
                    raise _Declined
                continue
            elif kind is AliasEvent:
                raise _Declined
            else:  # the stream's start and end, a document's end
                continue
            if not built:
                root = value
            elif type(built[-1]) is list:
                built[-1].append(value)
            elif key is _MISSING:
                key = value
            else:
                built[-1][key] = value  # TypeError for an unhashable key
                key = _MISSING
        return root
    finally:
        loader.dispose()


def _load_yaml(text: str):
    # libyaml skips a byte-order mark that starts any line; the pure parser
    # skips only a leading one and reads the others as text.
    if text.find("\ufeff", 1) < 0:
        try:
            return _walk_events(text)
        except Exception:
            # Whatever the walk cannot answer, including every error, the
            # pure parser reads again and has the last word.
            pass
    try:
        return yaml.safe_load(text)
    except yaml.reader.ReaderError as exc:
        # A character YAML forbids; PyYAML's own text spans two lines. The
        # characters before it are all allowed, so ``splitlines`` breaks
        # them where YAML does. Like YAML's marks, the column skips
        # byte-order marks; the appended character makes it 1-based.
        lines = (text[:exc.position] + "x").splitlines()
        raise ParseError(
            f"invalid YAML: unacceptable character #x{exc.character:04x}"
            f": {exc.reason}", line=len(lines),
            column=len(lines[-1]) - lines[-1].count("\ufeff")) from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ParseError(f"invalid YAML: {getattr(exc, 'problem', exc)}",
                             line=mark.line + 1, column=mark.column + 1) from exc
        raise ParseError(f"invalid YAML: {exc}") from exc
    except RecursionError as exc:
        # PyYAML composes nested collections recursively.
        raise ParseError("invalid YAML: collections nested too deeply") \
            from exc
    except ValueError as exc:
        # A plain scalar that looks like an int, float or timestamp but
        # cannot be built, such as ``0b_`` or ``2001-13-01``.
        raise ParseError(f"invalid YAML: {exc}") from exc


def _keys(raw, what, path, required=(), optional=()) -> dict:
    """``raw`` itself, once it is known to be a mapping that holds every
    ``required`` key and no key outside ``required`` and ``optional``.

    Every mapping of a ruleset or scenario document passes through here, so
    a misspelled key is an error rather than a silently applied default.
    """
    if not isinstance(raw, dict):
        raise ParseError("expected a mapping", path=path)
    # A misspelled required key is reported as unknown, not as missing.
    # YAML keys need not be strings, so the first is chosen by its text.
    unknown = set(raw).difference(required, optional)
    if unknown:
        raise ParseError(f"unknown {what} key {min(unknown, key=str)!r}",
                         path=path)
    for key in required:
        if key not in raw:
            raise ParseError(f"missing required key {key!r}", path=path)
    return raw


def _as(value, kind, path):
    """``value`` once :func:`value_problem` finds it a ``kind``; otherwise a
    ``ParseError`` at ``path``. Only a leaf hashed before its record exists
    is read so."""
    problem = value_problem(value, kind)
    if problem:
        raise ParseError(f"value must be {problem}", path=path)
    return value


def _tuple(value):
    """A document list as a tuple; any other value as it is, for the type
    it sets to check."""
    return tuple(value) if isinstance(value, list) else value


def _section(raw: dict, key: str, kind: type, path: str):
    """A list or mapping; absent or null reads as empty."""
    value = raw.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        what = "a list" if kind is list else "a mapping"
        raise ParseError(f"{key!r} must be {what}", path=path)
    return value


def _sensor(entry, p: str) -> Sensor:
    _keys(entry, "sensor", p, required=("id", "kind", "unit", "location"),
          optional=("range", "tolerance"))
    if "range" in entry:
        entry = {**entry, "range": _tuple(entry["range"])}
    return Sensor(**entry)


def _actuator(entry, p: str) -> Actuator:
    _keys(entry, "actuator", p, required=("id", "kind", "location", "actions"))
    return Actuator(**{**entry, "actions": tuple(
        _section(entry, "actions", list, p))})


def _parse_registry(raw, path="registry") -> Registry:
    # Each record checks its values; this reads the document's shape.
    _keys(raw, "registry", path, required=(
        "locations", "controllers", "sensors", "actuators", "features"))
    devices: dict[str, dict] = {"sensors": {}, "actuators": {}}
    for key, build in (("sensors", _sensor), ("actuators", _actuator)):
        for i, entry in enumerate(_section(raw, key, list, path)):
            record = build(entry, f"{path}.{key}[{i}]")
            if record.id in devices[key]:
                raise DuplicateIdError(f"duplicate {key[:-1]} {record.id!r}")
            devices[key][record.id] = record
    features: set[str] = set()
    for f in _section(raw, "features", list, path):
        if _as(f, str, f"{path}.features") in features:
            raise DuplicateIdError(f"duplicate feature {f!r}")
        features.add(f)
    return Registry(
        locations=tuple(_section(raw, "locations", list, path)),
        controllers=tuple(_section(raw, "controllers", list, path)),
        features=frozenset(features), **devices)


def _parse_cmp(token, path) -> Cmp:
    cmp = _CMP_TOKENS.get(token) if isinstance(token, str) else None
    if cmp is None:
        raise ParseError(
            f"comparator must be one of {sorted(_CMP_TOKENS)}, got {token!r}",
            path=path)
    return cmp


def _parse_rule(entry, i, registry: Registry) -> Rule:
    # The sensor kind, actuator and features are hashed here, before the
    # rule exists; an undeclared kind or actuator gives a default None for
    # RuleSet to name, and RuleSet checks every leaf.
    p = f"rules[{i}]"
    _keys(entry, "rule", p, required=("id", "controller", "trigger", "action"))
    tp = f"{p}.trigger"
    traw = _keys(entry["trigger"], "trigger", tp,
                 required=("sensor_kind", "comparator", "threshold"),
                 optional=("unit", "location_filter", "schedule"))
    kind = _as(traw["sensor_kind"], str, f"{tp}.sensor_kind")
    ap = f"{p}.action"
    araw = _keys(entry["action"], "action", ap,
                 required=("actuator", "action", "affected_features"),
                 optional=("location",))
    actuator_id = _as(araw["actuator"], str, f"{ap}.actuator")
    return Rule(
        id=entry["id"],
        controller=entry["controller"],
        trigger=TriggerCondition(
            sensor_kind=kind,
            comparator=_parse_cmp(traw["comparator"], f"{tp}.comparator"),
            threshold=traw["threshold"],
            unit=traw.get("unit", registry.kind_unit.get(kind)),
            location_filter=traw.get("location_filter"),
            schedule=_tuple(traw.get("schedule"))),
        action=ActionSpec(
            actuator=actuator_id, action=araw["action"],
            location=araw.get("location", getattr(
                registry.actuators.get(actuator_id), "location", None)),
            affected_features=frozenset(
                _as(f, str, f"{ap}.affected_features")
                for f in _section(araw, "affected_features", list, ap))),
    )


def _parse_feature_deps(raw, registry: Registry) -> FeatureDependencyGraph:
    # The graph checks that each edge is a pair of declared features and no
    # self-loop.
    edges: set[tuple[str, str]] = set()
    for i, entry in enumerate(raw):
        p = f"feature_deps[{i}]"
        if not isinstance(entry, list):
            raise ParseError("dependency edge must be [from, to]", path=p)
        edges.add(tuple(_as(x, str, p) for x in entry))
    return FeatureDependencyGraph(nodes=registry.features,
                                  edges=frozenset(edges))


def _parse_action_relations(raw, registry: Registry) -> ActionRelationTable:
    # The table checks each entry against the vocabulary.
    vocabulary = {a.kind: frozenset(a.actions)
                  for a in registry.actuators.values()}
    entries: dict = {}
    for key in raw:
        p = f"action_relations.{key}"
        k1, bar, k2 = _as(key, str, p).partition("|")
        if "|" in k2:
            raise ParseError(
                "key must be an actuator kind or 'kindA|kindB'", path=p)
        k2 = k2 if bar else k1
        for j, triple in enumerate(_section(raw, key, list, p)):
            tp = f"{p}[{j}]"
            if not isinstance(triple, list) or len(triple) != 3:
                raise ParseError("entry must be [action, action, relation]",
                                 path=tp)
            n1, n2, rel = (_as(x, str, tp) for x in triple)
            if rel not in _RELATION_TOKENS:
                raise ParseError(
                    f"relation must be one of {sorted(_RELATION_TOKENS)}",
                    path=tp)
            relation = _RELATION_TOKENS[rel]
            # Names are positional in cross-kind sections: n1 belongs to
            # the kind left of the bar, n2 to the right one.
            pair = ActionRelationTable.key(k1, n1, k2, n2)
            if pair in entries and entries[pair] is not relation:
                raise ParseError(
                    f"conflicting relations declared for pair {pair}",
                    path=tp)
            entries[pair] = relation
    return ActionRelationTable(vocabulary=vocabulary, entries=entries)


def _parse_signature(token, registry: Registry, path) -> EventSignature:
    parts = _as(token, str, path).split(":")
    if len(parts) != 3:
        raise ParseError(
            "signature must be 'sensor_kind:comparator:location'", path=path)
    kind, pred, location = parts
    if kind not in registry.kind_unit:
        raise ReferentialIntegrityError(
            f"similarity class references undeclared sensor kind {kind!r}")
    if location not in registry.locations:
        raise ReferentialIntegrityError(
            f"similarity class references undeclared location {location!r}")
    return EventSignature(sensor_kind=kind, predicate=_parse_cmp(pred, path),
                          location=location)


def _parse_detector(raw, registry: Registry,
                    graph: FeatureDependencyGraph,
                    relations: ActionRelationTable) -> DetectorConfig:
    _keys(raw, "detector", "detector",
          optional=("similarity_classes",) + _WINDOWS)
    classes = []
    for i, group in enumerate(_section(
            raw, "similarity_classes", list, "detector.similarity_classes")):
        p = f"detector.similarity_classes[{i}]"
        if not isinstance(group, list) or len(group) < 2:
            raise ParseError("similarity class needs >= 2 signatures", path=p)
        classes.append(frozenset(_parse_signature(tok, registry, p)
                                 for tok in group))
    # ``DetectorConfig`` checks the windows and holds their defaults.
    windows = {key: raw[key] for key in _WINDOWS if key in raw}
    return DetectorConfig(dependency_graph=graph, action_relations=relations,
                          similarity_classes=tuple(classes), **windows)


def load_document(text: str) -> Document:
    """Parse and validate a full configuration document."""
    raw = _keys(_load_yaml(text), "top-level", "document",
                required=("registry",), optional=_SECTIONS)
    registry = _parse_registry(raw["registry"])
    rules = tuple(_parse_rule(entry, i, registry) for i, entry
                  in enumerate(_section(raw, "rules", list, "rules")))
    ruleset = RuleSet(registry=registry, rules=rules,
                      day_length=raw.get("day_length", DEFAULT_DAY_LENGTH))

    graph = _parse_feature_deps(_section(raw, "feature_deps", list,
                                         "feature_deps"), registry)
    relations = _parse_action_relations(
        _section(raw, "action_relations", dict, "action_relations"), registry)
    config = _parse_detector(_section(raw, "detector", dict, "detector"),
                             registry, graph, relations)
    return Document(ruleset=ruleset, config=config,
                    house=raw.get("house"), sources=raw.get("sources"),
                    scenario=raw.get("scenario"))


def _sensor_dict(s: Sensor) -> dict:
    out = {"id": s.id, "kind": s.kind, "unit": s.unit, "location": s.location,
           "range": [s.range[0], s.range[1]]}
    if s.tolerance:
        out["tolerance"] = s.tolerance
    return out


def _rule_dict(r: Rule) -> dict:
    trigger: dict = {
        "sensor_kind": r.trigger.sensor_kind,
        "comparator": r.trigger.comparator.value,
        "threshold": r.trigger.threshold,
        "unit": r.trigger.unit,
    }
    if r.trigger.location_filter is not None:
        trigger["location_filter"] = r.trigger.location_filter
    if r.trigger.schedule is not None:
        trigger["schedule"] = list(r.trigger.schedule)
    return {
        "id": r.id,
        "controller": r.controller,
        "trigger": trigger,
        "action": {
            "actuator": r.action.actuator,
            "action": r.action.action,
            "location": r.action.location,
            "affected_features": sorted(r.action.affected_features),
        },
    }


def _relations_sections(table: ActionRelationTable) -> dict:
    """Regroup relation entries into the document's per-kind sections,
    keeping names positional for cross-kind sections."""
    sections: dict[str, list] = {}
    for ((k1, n1), (k2, n2)), rel in sorted(table.entries.items()):
        key = k1 if k1 == k2 else f"{k1}|{k2}"
        pair = sorted((n1, n2)) if k1 == k2 else [n1, n2]
        sections.setdefault(key, []).append([pair[0], pair[1], rel.value])
    return {key: sorted(rows) for key, rows in sorted(sections.items())}


def serialize_document(ruleset: RuleSet, config: DetectorConfig) -> str:
    """Emit the canonical YAML form of a ruleset plus detector config.

    Rule order is preserved; everything order-insensitive is sorted, so the
    output is a fixed point under parse/serialize.
    """
    registry = ruleset.registry
    doc = {
        "day_length": ruleset.day_length,
        "registry": {
            "locations": list(registry.locations),
            "controllers": list(registry.controllers),
            "sensors": [_sensor_dict(registry.sensors[k])
                        for k in sorted(registry.sensors)],
            "actuators": [
                {"id": a.id, "kind": a.kind, "location": a.location,
                 "actions": list(a.actions)}
                for a in (registry.actuators[k]
                          for k in sorted(registry.actuators))],
            "features": sorted(registry.features),
        },
        "rules": [_rule_dict(r) for r in ruleset.rules],
        "feature_deps": sorted([src, dst] for src, dst
                               in config.dependency_graph.edges),
        "action_relations": _relations_sections(config.action_relations),
        "detector": {
            "overlap_window": config.overlap_window,
            "duplicate_window": config.duplicate_window,
            "same_tick_epsilon": config.same_tick_epsilon,
            "similarity_classes": [
                sorted(sig.compact() for sig in group)
                for group in config.similarity_classes],
        },
    }
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False,
                     default_flow_style=False)
