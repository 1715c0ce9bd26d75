"""Network topology model and JSON config parsing.

A topology is an ordered list of parallel paths between one source and
one destination. Path order is significant: it defines tie-breaking and
the round-robin rotation sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

HIGH_COST_TAG = "high-cost"

_TOP_LEVEL_FIELDS = {"name", "paths"}
_PATH_FIELDS = {"id", "capacity_mbps", "base_rtt_ms", "attributes"}
_PATH_REQUIRED = {"id", "capacity_mbps", "base_rtt_ms"}


class TopologyError(ValueError):
    """Raised when a topology config is malformed or violates the schema."""


@dataclass(frozen=True)
class PathSpec:
    """One unidirectional path: capacity, propagation RTT and policy tags."""

    id: int
    capacity_mbps: float
    base_rtt_ms: float
    attributes: frozenset[str] = frozenset()

    def __post_init__(self):
        # every ordered comparison with NaN is false, so NaN would slip
        # past the checks below; an infinite capacity or RTT would turn
        # scores into inf or nan
        for field in ("capacity_mbps", "base_rtt_ms"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise TopologyError(f"path {self.id}: {field} must be finite, got {value!r}")
        if self.capacity_mbps <= 0:
            raise TopologyError(f"path {self.id}: capacity must be positive")
        if self.base_rtt_ms <= 0:
            raise TopologyError(f"path {self.id}: base_rtt must be positive")
        # frozenset("high-cost") would be a set of characters
        tags = frozenset(self.attributes)
        if isinstance(self.attributes, str) or not all(isinstance(tag, str) for tag in tags):
            raise TypeError(f"path {self.id}: attributes must be a collection of str tags")
        object.__setattr__(self, "attributes", tags)


@dataclass(frozen=True)
class Topology:
    """Ordered set of parallel paths. Immutable once constructed."""

    name: str
    paths: tuple[PathSpec, ...]

    def __post_init__(self):
        if not self.paths:
            raise TopologyError("topology needs at least one path")
        for position, path in enumerate(self.paths, start=1):
            # ids must be 1..P in list order, which also guarantees uniqueness
            if path.id != position:
                raise TopologyError(
                    f"path ids must run 1..{len(self.paths)} in file order; "
                    f"found id {path.id} at position {position}"
                )

    @property
    def path_count(self) -> int:
        return len(self.paths)

    def capacities(self) -> tuple[float, ...]:
        return tuple(p.capacity_mbps for p in self.paths)


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TopologyError(f"{where} must be a number")
    return float(value)


def parse_topology(config_text: str) -> Topology:
    """Parse and validate a JSON topology config.

    Unknown fields are rejected rather than ignored so that a typo in an
    experiment config cannot silently fall back to defaults.
    """
    try:
        raw = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise TopologyError(
            f"config is not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from None

    if not isinstance(raw, dict):
        raise TopologyError("top-level config must be a JSON object")
    unknown = sorted(set(raw) - _TOP_LEVEL_FIELDS)
    if unknown:
        raise TopologyError(f"unknown config field {unknown[0]!r}")
    for required in sorted(_TOP_LEVEL_FIELDS):
        if required not in raw:
            raise TopologyError(f"missing config field {required!r}")
    if not isinstance(raw["name"], str):
        raise TopologyError("'name' must be a string")
    if not isinstance(raw["paths"], list):
        raise TopologyError("'paths' must be a list")

    paths = []
    for index, entry in enumerate(raw["paths"], start=1):
        where = f"paths[{index}]"
        if not isinstance(entry, dict):
            raise TopologyError(f"{where} must be an object")
        unknown = sorted(set(entry) - _PATH_FIELDS)
        if unknown:
            raise TopologyError(f"{where}: unknown field {unknown[0]!r}")
        for required in sorted(_PATH_REQUIRED):
            if required not in entry:
                raise TopologyError(f"{where}: missing field {required!r}")
        path_id = entry["id"]
        if isinstance(path_id, bool) or not isinstance(path_id, int):
            raise TopologyError(f"{where}: 'id' must be an integer")
        attributes = entry.get("attributes", [])
        if not isinstance(attributes, list) or not all(isinstance(a, str) for a in attributes):
            raise TopologyError(f"{where}: 'attributes' must be a list of strings")
        paths.append(
            PathSpec(
                id=path_id,
                capacity_mbps=_require_number(entry["capacity_mbps"], f"{where}: 'capacity_mbps'"),
                base_rtt_ms=_require_number(entry["base_rtt_ms"], f"{where}: 'base_rtt_ms'"),
                attributes=frozenset(attributes),
            )
        )
    return Topology(name=raw["name"], paths=tuple(paths))


def serialize_topology(topology: Topology) -> str:
    """Inverse of parse_topology: parse(serialize(t)) == t."""
    doc = {
        "name": topology.name,
        "paths": [
            {
                "id": p.id,
                "capacity_mbps": p.capacity_mbps,
                "base_rtt_ms": p.base_rtt_ms,
                "attributes": sorted(p.attributes),
            }
            for p in topology.paths
        ],
    }
    return json.dumps(doc, indent=2)


def default_topology() -> Topology:
    """The built-in three-path topology used by all shipped experiments.

    Path 1 is low-latency/low-capacity, path 2 high-capacity/high-latency,
    path 3 balanced and tagged high-cost for policy filtering.
    """
    return Topology(
        name="three-path-default",
        paths=(
            PathSpec(id=1, capacity_mbps=50.0, base_rtt_ms=20.0),
            PathSpec(id=2, capacity_mbps=100.0, base_rtt_ms=50.0),
            PathSpec(id=3, capacity_mbps=80.0, base_rtt_ms=80.0,
                     attributes=frozenset({HIGH_COST_TAG})),
        ),
    )
