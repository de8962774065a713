"""The CLI's run-level contract on seeded, mutated configs.

Small versions of the eight experiments (n_max <= 80, N <= 5) are mutated at
one to three keys, each set to a value from a fixed list, then run in
process through cli.main(["validate", ...]) and cli.main(["run", ...]). The
contract: main returns 0, 1 or 2 and never raises; a failure names its
stage= on stderr; stderr holds no traceback; a failed run leaves no file;
validate exits 1 exactly when run does, and never exits 2. run may exit 2
where validate exits 0: a leak, a density grid's coverage or a fit window
depends on the state, not on the config alone. A breach is reported with
its case, both exit codes and the first stderr line of each command.
"""

import copy
import json
import random

from ionwalk import cli

SEED = 20251020
CASES = 500
BUDGET = 10 ** 6      # entries; a case the CLI accepts that would allocate more is skipped
AGREED = {(0, 0), (0, 2), (1, 1)}     # the (validate, run) exit codes the contract allows

BASES = {
    "walk": {"hilbert": {"n_max": 40}, "walk": {"n_steps": 3}},
    "classical": {"hilbert": {"n_max": 40}, "walk": {"n_steps": 3, "coin_phase": 0.3}},
    "reverse": {"hilbert": {"n_max": 40}, "walk": {"n_steps": 2}},
    "two_ion": {"hilbert": {"n_max": 80, "n_ions": 2}, "walk": {"n_steps": 2}},
    "scan": {"hilbert": {"n_max": 60}, "walk": {"n_steps": 2, "model": "all_order"},
             "scan": {"n_points": 21, "k_max": 2.0}},
    "reconstruct": {"hilbert": {"n_max": 40}, "walk": {"n_steps": 1},
                    "scan": {"n_points": 21, "noiseless": True},
                    "reconstruction": {"grid_spacing": 0.5, "steps": [0, 1]}},
    "width_curve": {"hilbert": {"n_max": 40}, "walk": {"n_steps": 3}},
    "nbar_curve": {"hilbert": {"n_max": 40}, "walk": {"n_steps": 2}},
}

# Values a mutation sets, by the JSON type the schema asks for: bounds,
# zeros, tiny and huge numbers; one mutation in WRONG_TYPE_ODDS draws from
# WRONG instead. Enum keys draw from their enum and one foreign value.
INTEGERS = (-1, 0, 1, 2, 3, 5, 7, 81, 4000, 10 ** 12)
NUMBERS = (-1.0, 0, 1e-9, 0.5, 1, 2.5, 3.0, 40.0, 1e6, 1e300, -1e300)
STEPS = ([], [0], [1, 0], [2, 9], [0, 0])
WRONG = (None, True, 1.5, "x", "", [], [1, True], {})
WRONG_TYPE_ODDS = 0.2


def _pool(schema: dict) -> tuple:
    """The values a mutation draws for a key of this schema."""
    if "enum" in schema:
        return tuple(schema["enum"]) + ("x",)
    if "const" in schema:
        return (schema["const"], 2)
    types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    pools = {"integer": INTEGERS, "number": NUMBERS, "null": (None,), "boolean": (True, False),
             "string": ("", "x", "o/", "."), "array": STEPS}
    return sum((pools[t] for t in types), ())


def _leaves(schema: dict, path: tuple = ()) -> list:
    """(key path, value pool) of every leaf of an object schema."""
    out = []
    for key, sub in schema["properties"].items():
        if sub.get("type") == "object":
            out.extend(_leaves(sub, path + (key,)))
        else:
            out.append((path + (key,), _pool(sub)))
    return out


LEAVES = _leaves(cli.CONFIG_SCHEMA)


def fuzz_cases(seed: int = SEED, count: int = CASES):
    """count configs, each a base experiment with one to three leaves set from their pools."""
    rng = random.Random(seed)
    for _ in range(count):
        experiment = rng.choice(cli.EXPERIMENTS)
        cfg = {"schema_version": 1, "experiment": experiment, "seed": 5,
               **copy.deepcopy(BASES[experiment])}
        for path, pool in rng.sample(LEAVES, rng.randint(1, 3)):
            section = cfg
            for key in path[:-1]:
                section = section.setdefault(key, {})
            section[path[-1]] = rng.choice(WRONG if rng.random() < WRONG_TYPE_ODDS else pool)
        yield cfg


def beyond_budget(cfg: dict) -> bool:
    """True if the CLI accepts cfg but its largest array exceeds BUDGET entries.

    Cases the CLI refuses are run: they exit before they allocate.
    """
    if cli._schema_error(cfg, cli.CONFIG_SCHEMA) is not None:
        return False
    try:
        run = cli._resolve(cfg, cfg.get("seed", 0))
    except cli.ConfigError:
        return False
    entries, _ = cli._largest_array(run.experiment, run.wcfg, run.scan["n_points"], run.grid)
    return entries > BUDGET


def run_case(directory, cfg: dict, capsys) -> list:
    """Contract breaches of one case, each with both exit codes and first stderr lines."""
    directory.mkdir()
    path = directory / "c.json"
    path.write_text(json.dumps(cfg))
    codes, firsts, breaches = [], [], []
    for command in (["validate", str(path)], ["run", str(path), "--out", str(directory / "o")]):
        try:
            code = cli.main(command)
        except Exception as exc:    # main must never raise
            code = None
            breaches.append(f"{command[0]} raised {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        codes.append(code)
        firsts.append(err.partition("\n")[0])
        if code is not None and code not in (0, 1, 2):
            breaches.append(f"{command[0]} exited {code}")
        if code in (1, 2) and "stage=" not in err:
            breaches.append(f"{command[0]} exited {code} naming no stage: {err!r}")
        if "Traceback" in err:
            breaches.append(f"{command[0]} printed a traceback")
    if codes[1] != 0 and [p.name for p in directory.iterdir()] != ["c.json"]:
        breaches.append(f"failed run left {sorted(p.name for p in directory.iterdir())}")
    if tuple(codes) not in AGREED:
        breaches.append(f"(validate, run) exit codes not among {sorted(AGREED)}")
    return [f"{b} (validate {codes[0]}: {firsts[0]!r}; run {codes[1]}: {firsts[1]!r})"
            for b in breaches]


def test_cli_contract_holds_on_fuzzed_configs(tmp_path, capsys):
    breaches, skipped = [], 0
    for i, cfg in enumerate(fuzz_cases()):
        if beyond_budget(cfg):
            skipped += 1
            continue
        breaches.extend(f"case {i} {json.dumps(cfg)}: {b}"
                        for b in run_case(tmp_path / f"case{i}", cfg, capsys))
    assert not breaches, "\n".join(breaches)
    assert skipped < CASES // 10
