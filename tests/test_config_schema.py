"""cli._schema_error against jsonschema, the oracle, on mutated shipped configs."""

import copy
import json
import random
from pathlib import Path

import jsonschema
import pytest

from ionwalk import cli

CONFIGS = [json.loads(p.read_text()) for p in
           sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))]

# the keywords _schema_error implements; "$schema" is an annotation
IMPLEMENTED = {"$schema", "type", "const", "enum", "minimum", "exclusiveMinimum",
               "exclusiveMaximum", "minLength", "required", "properties",
               "additionalProperties", "items", "uniqueItems"}

# Draft 2020-12 with an "integer" that is a Python int and not a bool, as in cli
ORACLE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)),
)(cli.CONFIG_SCHEMA)

# Values a mutation sets: bools, integral floats, signed zeros, huge numbers,
# strings, enum members, nested arrays and objects, repeated steps. No nested
# array holds a bool: jsonschema's uniqueItems sorts such arrays, compares
# neighbours only, and so misses [[1], [True], [1]]'s repeat.
POOL = [True, False, None, 0, 1, 2, -1, 3, 40, 1.0, 2.0, 3.0, -0.0, 0.0, 0.5, 0.05, 1e300,
        -1e300, "", "x", "p", "walk", "plus_y", "lamb_dicke", "all_order", "linear",
        "x_diagonal", "third_order", [], [1], [0, 2], [2, 2], [1, 1.0], [2, 1, 2], [1, True],
        [0, False], [[1], [1]], [[1], [2]], [[1], [1.0]], [{"a": 1}, {"a": 1.0}],
        [{"a": 1}, {"a": 2}], [{"a": [1]}, {"a": [1]}], [1.5], [-1], ["1"], {}, {"n_max": 40},
        {"n_steps": 2}, {"a": 1}]


def _keys(schema):
    """Every (keyword, value) pair in a schema, subschemas included."""
    for key, value in schema.items():
        yield key, value
        if key == "properties":
            for sub in value.values():
                yield from _keys(sub)
        elif key == "items":
            yield from _keys(value)


def test_schema_uses_only_implemented_keywords():
    used = list(_keys(cli.CONFIG_SCHEMA))
    assert {key for key, _ in used} <= IMPLEMENTED
    # the forms _schema_error reads: a closed object, unique items, one item schema
    assert {repr(v) for k, v in used if k == "additionalProperties"} == {"False"}
    assert {repr(v) for k, v in used if k == "uniqueItems"} == {"True"}
    assert all(isinstance(v, dict) for k, v in used if k == "items")


def _known_values(where: str | None, key: str) -> list:
    """The values key takes in the shipped configs and cli's defaults, at the root or in where."""
    sections = [cfg if where is None else cfg.get(where, {}) for cfg in CONFIGS]
    sections.append(cli._DEFAULTS.get(where, {}))
    return [section[key] for section in sections if key in section]


def _mutate(rng: random.Random, cfg: dict) -> dict:
    """cfg with 1-3 keys removed or set, half the time to a value the key takes
    elsewhere, else from POOL; at the root or in a section."""
    cfg = copy.deepcopy(cfg)
    sections = [name for name, sub in cli.CONFIG_SCHEMA["properties"].items()
                if "properties" in sub]
    for _ in range(rng.randint(1, 3)):
        where = rng.choice([None] + sections)
        if where is None:
            target, schema = cfg, cli.CONFIG_SCHEMA
        else:
            if not isinstance(cfg.get(where), dict):
                cfg[where] = {}
            target, schema = cfg[where], cli.CONFIG_SCHEMA["properties"][where]
        key = rng.choice(sorted(schema["properties"]) + ["surprise"])
        if key in target and rng.random() < 0.3:
            del target[key]
        else:
            known = _known_values(where, key)
            pool = known if known and rng.random() < 0.5 else POOL
            target[key] = copy.deepcopy(rng.choice(pool))
    return cfg


def _located(error) -> str:
    """A jsonschema error as "path: message", its path in _schema_error's notation."""
    path = ""
    for part in error.absolute_path:
        path += f"[{part}]" if isinstance(part, int) else (f".{part}" if path else part)
    return f"{path}: {error.message}" if path else error.message


def test_checker_agrees_with_jsonschema_on_mutated_configs():
    rng = random.Random(2303)
    accepted = 0
    for case in range(2000):
        cfg = _mutate(rng, rng.choice(CONFIGS))
        error = cli._schema_error(cfg, cli.CONFIG_SCHEMA)
        oracle = [_located(e) for e in ORACLE.iter_errors(cfg)]
        assert (error is None) == (not oracle), (case, cfg, error, oracle)
        assert error is None or error in oracle, (case, cfg, error, oracle)
        accepted += error is None
    assert 200 < accepted < 1800    # both outcomes are well sampled


@pytest.mark.parametrize("section, value, message", [
    ("walk", {"n_steps": 2, "model": "third_order"},
     "walk.model: 'third_order' is not one of ['lamb_dicke', 'all_order']"),
    ("walk", {"n_steps": 2, "trials": 1},
     "walk: Additional properties are not allowed ('trials' was unexpected)"),
    ("walk", {"model": "all_order"}, "walk: 'n_steps' is a required property"),
    ("hilbert", {"n_max": 40, "eta": 1}, "hilbert.eta: 1 is greater than or equal to the "
                                         "maximum of 1"),
    ("reconstruction", {"steps": [1, -1]},
     "reconstruction.steps[1]: -1 is less than the minimum of 0"),
    ("reconstruction", {"steps": [[1], [1]]}, "reconstruction.steps: [[1], [1]] has "
                                              "non-unique elements"),
    ("density_grid", {"extent": True}, "density_grid.extent: True is not of type "
                                       "'number', 'null'"),
    ("output_prefix", "", "output_prefix: '' should be non-empty"),
    ("schema_version", True, "schema_version: 1 was expected"),
    ("hilbert", {"n_max": 40, "n_ions": True}, "hilbert.n_ions: True is not of type 'integer'"),
    ("experiment", "walk ", "experiment: 'walk ' is not one of " + repr(list(cli.EXPERIMENTS))),
])
def test_messages_name_the_key_path(section, value, message):
    cfg = {**CONFIGS[0], section: value}
    assert cli._schema_error(cfg, cli.CONFIG_SCHEMA) == message

