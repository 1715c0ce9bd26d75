import json

import pytest
from hypothesis import given, strategies as st

from mpsim import (
    HIGH_COST_TAG,
    PathSpec,
    Topology,
    TopologyError,
    default_topology,
    parse_topology,
    serialize_topology,
)

DEFAULT_CONFIG = json.dumps({
    "name": "three-path-default",
    "paths": [
        {"id": 1, "capacity_mbps": 50, "base_rtt_ms": 20},
        {"id": 2, "capacity_mbps": 100, "base_rtt_ms": 50},
        {"id": 3, "capacity_mbps": 80, "base_rtt_ms": 80, "attributes": ["high-cost"]},
    ],
})


def test_parse_default_config():
    topo = parse_topology(DEFAULT_CONFIG)
    assert topo.path_count == 3
    assert topo.capacities() == (50.0, 100.0, 80.0)
    assert [p.base_rtt_ms for p in topo.paths] == [20.0, 50.0, 80.0]
    assert topo.paths[2].attributes == frozenset({HIGH_COST_TAG})


def test_parse_single_path():
    topo = parse_topology(json.dumps({
        "name": "one",
        "paths": [{"id": 1, "capacity_mbps": 10, "base_rtt_ms": 10}],
    }))
    assert topo.path_count == 1
    assert topo.paths[0].attributes == frozenset()


def test_zero_capacity_rejected():
    cfg = json.dumps({"name": "bad",
                      "paths": [{"id": 1, "capacity_mbps": 0, "base_rtt_ms": 10}]})
    with pytest.raises(TopologyError, match="capacity must be positive"):
        parse_topology(cfg)


def test_negative_rtt_rejected():
    cfg = json.dumps({"name": "bad",
                      "paths": [{"id": 1, "capacity_mbps": 5, "base_rtt_ms": -1}]})
    with pytest.raises(TopologyError, match="base_rtt must be positive"):
        parse_topology(cfg)


def two_paths_with(field, value):
    second = {"id": 2, "capacity_mbps": 100, "base_rtt_ms": 50, field: value}
    return json.dumps({"name": "bad", "paths": [
        {"id": 1, "capacity_mbps": 50, "base_rtt_ms": 20}, second]})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_capacity_rejected(value):
    with pytest.raises(TopologyError, match="path 2: capacity_mbps must be finite"):
        parse_topology(two_paths_with("capacity_mbps", value))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_base_rtt_rejected(value):
    with pytest.raises(TopologyError, match="path 2: base_rtt_ms must be finite"):
        parse_topology(two_paths_with("base_rtt_ms", value))


@pytest.mark.parametrize("field", ["capacity_mbps", "base_rtt_ms"])
@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["10**400", "-10**400"])
def test_integer_beyond_float_range_rejected(field, value):
    # float() of such an int raises OverflowError, which is not a TopologyError
    with pytest.raises(TopologyError, match=rf"paths\[2\]: '{field}' must be finite"):
        parse_topology(two_paths_with(field, value))


@pytest.mark.parametrize("text, message", [
    ("[" * 100_000, "nested too deeply"),
    ('{"name": "x", "paths": [{"id": 1, "capacity_mbps": ' + "9" * 5000
     + ', "base_rtt_ms": 5}]}', "integer with too many digits"),
], ids=["deep-nesting", "5000-digit-integer"])
def test_json_the_parser_cannot_read_rejected(text, message):
    # json.loads raises RecursionError and, past the interpreter's digit
    # limit for int(), a plain ValueError: neither is a JSONDecodeError
    with pytest.raises(TopologyError, match=message):
        parse_topology(text)


# json.loads would keep the last value; the digit-limit handler must not
# turn the refusal into its own message
@pytest.mark.parametrize("text, field", [
    ('{"name": "x", "paths": [{"id": 1, "capacity_mbps": 5, "base_rtt_ms": 5}], "name": "y"}',
     "name"),
    ('{"name": "x", "paths": [{"id": 1, "capacity_mbps": 5, "base_rtt_ms": 5,'
     ' "capacity_mbps": 50}]}', "capacity_mbps"),
], ids=["top-level", "path"])
def test_repeated_field_rejected(text, field):
    with pytest.raises(TopologyError, match=f"^config repeats field '{field}'$"):
        parse_topology(text)


def test_malformed_json_reports_position():
    with pytest.raises(TopologyError, match=r"line \d+, column \d+"):
        parse_topology('{"name": "x", "paths": [}')


def test_unknown_top_level_field_rejected():
    cfg = json.dumps({"name": "x", "paths": [
        {"id": 1, "capacity_mbps": 5, "base_rtt_ms": 5}], "pathz": []})
    with pytest.raises(TopologyError, match="unknown config field 'pathz'"):
        parse_topology(cfg)


def test_unknown_path_field_rejected():
    cfg = json.dumps({"name": "x", "paths": [
        {"id": 1, "capacity_mbps": 5, "base_rtt_ms": 5, "colour": "red"}]})
    with pytest.raises(TopologyError, match="unknown field 'colour'"):
        parse_topology(cfg)


def test_missing_field_named_in_error():
    cfg = json.dumps({"name": "x", "paths": [{"id": 1, "capacity_mbps": 5}]})
    with pytest.raises(TopologyError, match="missing field 'base_rtt_ms'"):
        parse_topology(cfg)


PATH = {"id": 1, "capacity_mbps": 5, "base_rtt_ms": 5}


@pytest.mark.parametrize("raw, message", [
    ([], "top-level config must be a JSON object"),
    ({"paths": [PATH]}, "missing config field 'name'"),
    ({"name": 7, "paths": [PATH]}, "'name' must be a string"),
    ({"name": "x", "paths": {"1": PATH}}, "'paths' must be a list"),
    ({"name": "x", "paths": [[1, 5, 5]]}, r"paths\[1\] must be an object"),
    ({"name": "x", "paths": [{**PATH, "id": True}]}, r"paths\[1\]: 'id' must be an integer"),
    ({"name": "x", "paths": [{**PATH, "id": 1.0}]}, r"paths\[1\]: 'id' must be an integer"),
    ({"name": "x", "paths": [{**PATH, "attributes": "x"}]},
     r"paths\[1\]: 'attributes' must be a list of strings"),
    ({"name": "x", "paths": [{**PATH, "attributes": [1]}]},
     r"paths\[1\]: 'attributes' must be a list of strings"),
    ({"name": "x", "paths": [{**PATH, "capacity_mbps": "50"}]},
     r"paths\[1\]: 'capacity_mbps' must be a number"),
    ({"name": "x", "paths": [{**PATH, "capacity_mbps": True}]},
     r"paths\[1\]: 'capacity_mbps' must be a number"),
], ids=["top-level-list", "no-name", "int-name", "paths-object", "path-list", "id-true",
        "id-float", "attributes-str", "attributes-int", "capacity-str", "capacity-true"])
def test_ill_typed_config_rejected(raw, message):
    with pytest.raises(TopologyError, match=f"^{message}$"):
        parse_topology(json.dumps(raw))


@pytest.mark.parametrize("ids", [(1, 1), (2, 1), (1, 3)])
def test_ids_must_be_sequential_from_one(ids):
    cfg = json.dumps({"name": "x", "paths": [
        {"id": i, "capacity_mbps": 5, "base_rtt_ms": 5} for i in ids]})
    with pytest.raises(TopologyError, match="path ids"):
        parse_topology(cfg)


def test_empty_paths_rejected():
    with pytest.raises(TopologyError, match="at least one path"):
        parse_topology(json.dumps({"name": "x", "paths": []}))


def test_round_trip():
    topo = parse_topology(DEFAULT_CONFIG)
    assert parse_topology(serialize_topology(topo)) == topo


positive_finite = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
topologies = st.builds(
    lambda name, rows: Topology(name, tuple(
        PathSpec(i + 1, capacity, rtt, attributes)
        for i, (capacity, rtt, attributes) in enumerate(rows))),
    st.text(max_size=20),
    st.lists(st.tuples(positive_finite, positive_finite,
                       st.frozensets(st.text(max_size=8), max_size=3)),
             min_size=1, max_size=6))


@given(topologies)
def test_round_trip_of_generated_topologies(topo):
    assert parse_topology(serialize_topology(topo)) == topo


def test_file_order_is_preserved():
    # same paths, permuted capacities: order comes from the file, not sorting
    cfg = json.dumps({"name": "perm", "paths": [
        {"id": 1, "capacity_mbps": 80, "base_rtt_ms": 80},
        {"id": 2, "capacity_mbps": 50, "base_rtt_ms": 20},
        {"id": 3, "capacity_mbps": 100, "base_rtt_ms": 50},
    ]})
    topo = parse_topology(cfg)
    assert topo.capacities() == (80.0, 50.0, 100.0)
    assert parse_topology(serialize_topology(topo)) == topo


def test_default_topology_shape():
    topo = default_topology()
    assert [(p.capacity_mbps, p.base_rtt_ms) for p in topo.paths] == [
        (50.0, 20.0), (100.0, 50.0), (80.0, 80.0)]
    assert topo.paths[0].id == 1
    assert sum(topo.capacities()) == 230.0
    assert topo.paths[0].attributes == frozenset()
    assert topo.paths[2].attributes == frozenset({"high-cost"})


def test_pathspec_direct_validation():
    with pytest.raises(TopologyError):
        PathSpec(id=1, capacity_mbps=-5, base_rtt_ms=10)
    with pytest.raises(TopologyError):
        Topology(name="x", paths=())


# a bare str was kept as is, and attribute_aware read it as a set of
# characters: the tagged path was never filtered out
@pytest.mark.parametrize("attributes", [HIGH_COST_TAG, ""])
def test_pathspec_attributes_refuse_a_str(attributes):
    with pytest.raises(TypeError, match="attributes"):
        PathSpec(1, 50.0, 10.0, attributes)


@pytest.mark.parametrize("attributes", [[1], (HIGH_COST_TAG, None), [b"high-cost"]])
def test_pathspec_attributes_refuse_a_non_str_member(attributes):
    with pytest.raises(TypeError, match="attributes"):
        PathSpec(1, 50.0, 10.0, attributes)


@pytest.mark.parametrize("attributes", [[HIGH_COST_TAG], (HIGH_COST_TAG,), {HIGH_COST_TAG},
                                        (tag for tag in [HIGH_COST_TAG])])
def test_pathspec_attributes_are_stored_as_a_frozenset(attributes):
    path = PathSpec(1, 50.0, 10.0, attributes)
    assert type(path.attributes) is frozenset and path.attributes == {HIGH_COST_TAG}
    assert hash(path) == hash(PathSpec(1, 50.0, 10.0, frozenset({HIGH_COST_TAG})))
    topo = Topology("tagged", (path, PathSpec(2, 50.0, 30.0)))
    assert json.loads(serialize_topology(topo))["paths"][0]["attributes"] == [HIGH_COST_TAG]
    assert parse_topology(serialize_topology(topo)) == topo
