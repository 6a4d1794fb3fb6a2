"""End-to-end CLI tests: dispatch, exit codes, determinism, reporting."""

import csv
import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cbnorm_lab import cli
from cbnorm_lab.errors import CbnormLabError, InvalidInputError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SHIPPED = sorted(CONFIG_DIR.glob("*.json"))


def load(path):
    with open(path) as fh:
        return json.load(fh)


def run_cli(args):
    return cli.main([str(a) for a in args])


def stripped(record_path):
    record = load(record_path)
    record.pop("runtime_ms", None)
    return json.dumps(record, sort_keys=True)


def test_each_command_has_one_runner_and_its_required_keys(tmp_path):
    assert cli.COMMANDS == tuple(cli._COMMANDS) and len(cli.COMMANDS) == 7
    for runner, required, optional in cli._COMMANDS.values():
        assert callable(runner)
        declared = [*required, *optional, *cli._COMMON]
        assert len(declared) == len(set(declared)) and set(declared) <= set(cli._KEYS)
    for name in cli.COMMANDS:  # a subcommand that parses, then finds no config
        assert run_cli([name, "--config", tmp_path / "missing.json"]) == 1


def test_shipped_configs_exist():
    assert len(SHIPPED) >= 8


@pytest.mark.parametrize("config_path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_config_runs_clean(config_path, tmp_path):
    command = load(config_path)["command"]
    out = tmp_path / "record.json"
    started = time.perf_counter()
    assert run_cli([command, "--config", config_path, "--out", out]) == 0
    assert time.perf_counter() - started < 60.0
    record = load(out)
    assert record["schema_version"] == 1
    assert record["command"] == command
    assert "runtime_ms" in record
    # Byte-identity against the committed record (tests/golden/regenerate.py
    # rewrites these after a deliberate change of results).
    record.pop("runtime_ms")
    assert cli.record_to_json(record) == (GOLDEN_DIR / config_path.name).read_text()


def _sandwich_record():
    config = load(CONFIG_DIR / "sandwich_geometric.json")
    record, _ = cli.run(config["command"], config)
    record.pop("runtime_ms")
    return record


def test_record_to_json_is_one_line_that_loads_back_to_the_record():
    record = _sandwich_record()
    assert record["witnesses"]
    text = cli.record_to_json(record)
    assert text.endswith("\n") and text.count("\n") == 1
    # Dict equality compares every float with ==, so no digit was lost.
    assert json.loads(text) == record


def test_main_out_writes_the_record_text(tmp_path):
    out = tmp_path / "record.json"
    assert run_cli(["sandwich", "--config", CONFIG_DIR / "sandwich_geometric.json", "--out", out]) == 0
    text = out.read_text()
    record = json.loads(text)
    assert text == cli.record_to_json(record)
    record.pop("runtime_ms")
    assert record == _sandwich_record()


@pytest.mark.parametrize(
    "args", [["separate", "--config", CONFIG_DIR / "separate_scalar.json"], ["report"]], ids=["run", "report"]
)
def test_unwritable_out_exits_one_with_an_error_line(args, tmp_path, capsys):
    # A run command writes its record, and `report` its CSV, into a
    # directory that does not exist.
    assert run_cli([*args, "--out", tmp_path / "missing" / "x.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_report_reads_an_indented_record(tmp_path):
    # Records written before they became one compact line were indented.
    record = _sandwich_record()
    compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    compact.write_text(cli.record_to_json(record))
    indented.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    rows = cli.report_rows([compact, indented])
    assert len(rows) == 2 and rows[0] == rows[1]
    assert rows[0][0] == "moebius_quotient(power_series)"


def test_sandwich_record_reports_quotient_bound(tmp_path):
    out = tmp_path / "rec.json"
    assert run_cli(["sandwich", "--config", CONFIG_DIR / "sandwich_geometric.json", "--out", out]) == 0
    results = load(out)["results"]
    assert results["upper"] == 2.0
    assert results["lower"] <= 2.0
    assert results["gap"] == results["upper"] - results["lower"]


def test_estimate_identity_deterministic_bytes(tmp_path):
    config = CONFIG_DIR / "estimate_identity.json"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["sandwich", "--config", config, "--out", a]) == 0
    assert run_cli(["sandwich", "--config", config, "--out", b]) == 0
    assert stripped(a) == stripped(b)


def test_seed_override_changes_record(tmp_path):
    config = CONFIG_DIR / "estimate_identity.json"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["sandwich", "--config", config, "--out", a]) == 0
    assert run_cli(["sandwich", "--config", config, "--out", b, "--seed", "99"]) == 0
    assert load(a)["config"]["seed"] == 7
    assert load(b)["config"]["seed"] == 99


@pytest.mark.parametrize("name", ["gcb_duplicate_delta.json", "delta_isometry_row2.json"])
def test_gcb_and_delta_isometry_need_no_seed(name):
    # Neither command draws a random number: without a seed, or with another
    # one, the results are those of the shipped config.
    config = load(CONFIG_DIR / name)
    shipped, _ = cli.run(config["command"], config)
    unseeded = {k: v for k, v in config.items() if k != "seed"}
    for other in (unseeded, {**unseeded, "seed": config["seed"] + 1}):
        record, passed = cli.run(config["command"], other)
        assert passed and record["config"] == other
        assert record["results"] == shipped["results"]


def test_schema_violation_exits_one(tmp_path, capsys):
    # A missing seed, and a budget just above the cap.
    identity = {"kind": "power_series", "coeffs": [[1.0, 0.0]]}
    for extra, where in (({}, "seed"), ({"seed": 1, "budget": 2**24 + 1}, "budget")):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"command": "sandwich", "function": identity, "max_level": 2, "budget": 10, **extra}))
        assert run_cli(["sandwich", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "$" in err and where in err


@pytest.mark.parametrize("m", [2049, 10**9])
def test_blaschke_zero_order_past_the_cap_exits_one(m, tmp_path, capsys):
    blaschke = {"kind": "blaschke", "c": [1, 0], "m": m, "zeros": [[0.5, 0]]}
    config = {"command": "sandwich", "function": blaschke, "max_level": 2, "budget": 50, "seed": 1}
    with pytest.raises(InvalidInputError, match="at most 2048"):
        cli.run("sandwich", config)
    path = tmp_path / "blaschke.json"
    path.write_text(json.dumps(config))
    assert run_cli(["sandwich", "--config", path]) == 1
    assert f"at most 2048, got {m}" in capsys.readouterr().err


_SANDWICH = {
    "command": "sandwich",
    "function": {"kind": "power_series", "coeffs": [[1.0, 0.0]]},
    "max_level": 2,
    "budget": 10,
    "seed": 1,
}


@pytest.mark.parametrize(
    "key, value",
    [
        ("schema_version", 1),
        ("schema_version", 1.0),
        ("budget", 600.0),
        ("max_level", 1.0),
        ("trials", 2.0),
        # The budget cap, MAX_BUDGET = 2**24, which trials share.
        ("budget", 2**24),
        ("budget", 16777216.0),
        ("function2", {}),
        ("trials", 2**24),
    ],
)
def test_validate_config_accepts(key, value):
    # trials and function2 are keys of schwarz and algebra, which also take sandwich's other keys.
    command = {"trials": "schwarz", "function2": "algebra"}.get(key, "sandwich")
    cli.validate_config(command, {**_SANDWICH, "command": command, key: value})


@pytest.mark.parametrize(
    "key, value",
    [
        ("schema_version", True),
        ("schema_version", "1"),
        ("schema_version", 2),
        ("seed", -1),
        ("seed", True),
        # Integer-valued but not ints: every seeded search rejects them.
        ("seed", 3.0),
        ("seed", 2**70),
        ("budget", 0),
        ("budget", True),
        ("budget", "3"),
        ("max_level", 1.5),
        # Neither schedule nor out is a key of any command, whatever its
        # value; `--out` names the record's path.
        ("schedule", []),
        ("schedule", [0]),
        ("schedule", "1"),
        ("schedule", [True]),
        ("schedule", [1, 65]),
        ("out", 5),
        # Past the budget cap: refused before the scan allocates its grid.
        ("budget", 2**24 + 1),
        ("budget", 2**40),
        ("budget", 1e300),
        ("command", 5),
        ("colour", "red"),
    ],
)
def test_validate_config_rejects(key, value, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**_SANDWICH, key: value}))
    assert run_cli(["sandwich", "--config", config]) == 1
    assert f"config invalid at $.{key}: " in capsys.readouterr().err


@pytest.mark.parametrize("trials", [2**24 + 1, 1e300])
@pytest.mark.parametrize("name", ["schwarz_square.json", "hull_mk2.json"])
def test_trials_past_the_cap_exit_before_any_trial(name, trials, tmp_path, capsys, monkeypatch):
    # Before the cap, 1e300 trials ran until the process was killed.
    for module, check in ((cli.cbnorm, "schwarz_check"), (cli.mconvex, "hull_norm_check")):
        monkeypatch.setattr(module, check, lambda *args: pytest.fail("a trial ran"))
    config = {**load(CONFIG_DIR / name), "trials": trials}
    with pytest.raises(CbnormLabError, match=r"config invalid at \$\.trials: trials must be at most 16777216, got "):
        cli.validate_config(config["command"], config)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    assert run_cli([config["command"], "--config", path]) == 1
    assert "config invalid at $.trials: trials must be at most 16777216" in capsys.readouterr().err


def test_validate_config_rejects_non_object(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps([_SANDWICH]))
    assert run_cli(["sandwich", "--config", config, "--seed", "2"]) == 1
    assert "config invalid at $: " in capsys.readouterr().err


# A value for each key that passes the key's own check, and for the keys
# earlier versions read, which no command takes now.
_VALID = {"seed": 1, "budget": 10, "max_level": 1, "trials": 1, "schedule": [1, 2, 4], "out": "record.json"}
_UNDECLARED = [
    (command, key)
    for command, (_, required, optional) in cli._COMMANDS.items()
    for key in (*cli._KEYS, "schedule", "out")
    if key not in (*required, *optional, *cli._COMMON)
]


def test_undeclared_keys_include_the_known_strays():
    assert ("sandwich", "trials") in _UNDECLARED and ("sandwich", "schedule") in _UNDECLARED
    optional = {(command, key) for command, (_, _, keys) in cli._COMMANDS.items() for key in keys}
    # Every optional key is accepted though unread: schwarz's max_level and
    # budget, and the seed of gcb and of delta-isometry.
    assert optional == {
        ("schwarz", "max_level"),
        ("schwarz", "budget"),
        ("gcb", "seed"),
        ("delta-isometry", "seed"),
    }


@pytest.mark.parametrize("command, key", _UNDECLARED, ids=lambda v: v)
def test_undeclared_key_exits_one(command, key, tmp_path, capsys):
    shipped = next(load(path) for path in SHIPPED if load(path)["command"] == command)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**shipped, key: _VALID.get(key, {})}))
    assert run_cli([command, "--config", config]) == 1
    assert f"config invalid at $.{key}: not a key of {command!r}" in capsys.readouterr().err


def test_undeclared_descriptor_key_exits_one(tmp_path, capsys):
    # A misspelt key names itself instead of being read as absent.
    blaschke = {"kind": "blaschke", "c": [1.0, 0.0], "m": 1, "zeroes": [[0.5, 0.0]]}
    series = {"kind": "power_series", "coeffs": [[1.0, 0.0]], "analytic_radius": 2.0}
    search = {"command": "sandwich", "max_level": 1, "budget": 10, "seed": 1}
    element = {"space": {"kind": "scalar"}, "level": 1, "term": []}
    gcb_config = {"command": "gcb", "element": element, "dictionary": {"entries": []}, "budget": 10}
    point = {"entries": [[[[0.5, 0.0], [0.0, 0.0]]]]}
    row = {"command": "delta-isometry", "space": {"kind": "row", "param": 2, "junk": 1}, "point": point, "budget": 10}
    for body, key in (
        ({**search, "function": blaschke}, "zeroes"),
        ({**search, "function": series}, "analytic_radius"),
        (gcb_config, "term"),
        (row, "junk"),
    ):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(body))
        assert run_cli([body["command"], "--config", config]) == 1
        assert f"error: malformed descriptor: unknown key {key!r}" in capsys.readouterr().err


def test_float_budget_records_integer_samples():
    # An integral float budget searches as the integer does, and its record
    # says so: integer samples, the same provenance and the same bounds.
    # Level 1 of z meets its cap-ball bound on the scan's grid of 100 points,
    # so level 2 spends nothing.
    config = {**load(CONFIG_DIR / "estimate_identity.json"), "budget": 200}
    whole, _ = cli.run("sandwich", config)
    floating, _ = cli.run("sandwich", {**config, "budget": 200.0})
    results = floating["results"]
    samples = [entry["samples"] for entry in results["level_table"].values()]
    assert [type(n) for n in samples] == [int, int] and samples == [100, 0]
    assert "budget 200 per level" in results["provenance"]
    assert results["lower"] == whole["results"]["lower"]
    assert cli.record_to_json(results) == cli.record_to_json(whole["results"])
    assert floating["witnesses"] == whole["witnesses"]


def test_blaschke_sandwich_searches_every_level_as_before():
    # z(z−½)/(1−½z) stays below its cap-ball bound at every level, so every
    # level is searched, and the record (without runtime_ms) is the one that
    # the search from raw Gaussian starts gives: its sha256.
    config = {
        "schema_version": 1,
        "command": "sandwich",
        "function": {"kind": "blaschke", "c": [1.0, 0.0], "m": 1, "zeros": [[0.5, 0.0]]},
        "max_level": 8,
        "budget": 300,
        "seed": 1,
    }
    record, _ = cli.run("sandwich", config)
    record.pop("runtime_ms")
    assert [entry["samples"] for entry in record["results"]["level_table"].values()] == [300] * 4
    text = cli.record_to_json(record)
    assert hashlib.sha256(text.encode()).hexdigest() == "c56956994894f3e89cf868fe11fd3e88946d531de49541b16afdd021d57e42b1"


def test_cli_runs_without_jsonschema():
    # Configs are checked by the library's own checks alone.
    script = (
        "import json, sys; sys.modules['jsonschema'] = None; "
        "from cbnorm_lab import cli; "
        "record, passed = cli.run('hull', json.load(open(sys.argv[1]))); "
        "record.pop('runtime_ms'); sys.stdout.write(cli.record_to_json(record))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(CONFIG_DIR / "hull_mk2.json")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / "hull_mk2.json").read_text()


def test_bad_descriptor_exits_one(tmp_path, capsys):
    # An unknown kind, a missing key, a wrongly typed value, sizes just above
    # their caps (a 33×33 matrix space, a level-65 predual element) and sizes
    # that are not integers (fractional, boolean or string) all end in an
    # `error:` line, never in a traceback, an allocation or a truncated size.
    oversized_space = {"kind": "matrix", "param": 33}
    phi_on = lambda space: {"kind": "geometric_phi", "space": space, "phi": [], "certified_norm": 0.5}
    cases = [
        ({"command": "sandwich", "function": function, "max_level": 1, "budget": 10, "seed": 1}, message)
        for function, message in (
            ({"kind": "mystery"}, "error:"),
            ({"kind": 3}, "error: unknown function kind 3"),
            ({"kind": "power_series"}, "error:"),
            ({"kind": "scale", "c": [2.0, 0.0]}, "error: malformed descriptor"),
            ({"kind": "power_series", "coeffs": 5}, "error:"),
            (phi_on(oversized_space), "error: k must lie in [1, 32]"),
            (phi_on({"kind": "matrix", "param": 2.5}), "error: param must be an integer, got 2.5"),
            (phi_on({"kind": "row", "param": True}), "error: param must be an integer, got True"),
            (phi_on({"kind": "min_linf", "param": "3"}), "error: param must be an integer, got '3'"),
            (
                phi_on({"kind": "custom", "ambient": 1.5, "basis": [[[[1.0, 0.0]]]]}),
                "error: ambient must be an integer, got 1.5",
            ),
            ({"kind": "blaschke", "c": [1.0, 0.0], "m": 1.9}, "error: m must be an integer, got 1.9"),
        )
    ]
    unit_grid = {"kind": "grid", "grid": [[[[1.0, 0.0]]]], "bound": 1.0}
    point = {"entries": [[[[0.5, 0.0]]]]}
    for element, message in (
        ({"space": {"kind": "scalar"}, "level": 65}, "error: level must lie in [1, 64]"),
        ({"space": {"kind": "scalar"}, "level": 1.5}, "error: level must be an integer, got 1.5"),
        ({"space": {"kind": "scalar"}, "level": False}, "error: level must be an integer, got False"),
        (
            {"space": {"kind": "scalar"}, "level": 1, "terms": [
                {"c": [1.0, 0.0], "alpha": [[[1.0, 0.0]]], "x": {**point, "level": 1.2}, "beta": [[[1.0, 0.0]]]}
            ]},
            "error: level must be an integer, got 1.2",
        ),
    ):
        body = {"command": "gcb", "element": element, "dictionary": {"entries": [unit_grid]}, "budget": 10, "seed": 1}
        cases.append((body, message))
    # Grid entries over min-ℓ∞², whose grids must have shape (n, n, 2).
    term = {"c": [1.0, 0.0], "alpha": [[[1.0, 0.0]]], "x": {"entries": [[[[0.5, 0.0], [0.0, 0.0]]]]}, "beta": [[[1.0, 0.0]]]}
    element = {"space": {"kind": "min_linf", "param": 2}, "level": 1, "terms": [term]}
    for grid, shape in (
        ([[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]], "(1, 1, 3)"),
        ([[[[1.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [1.0, 0.0]]]], "(2, 1, 2)"),
    ):
        dictionary = {"entries": [{"kind": "grid", "grid": grid, "bound": 1.0}]}
        body = {"command": "gcb", "element": element, "dictionary": dictionary, "budget": 10, "seed": 1}
        cases.append((body, f"error: grid must have shape (n, n, 2), got {shape}"))
    for body, message in cases:
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(body))
        assert run_cli([body["command"], "--config", config]) == 1
        assert message in capsys.readouterr().err


def _with_array(site, pairs):
    """A shipped config with `pairs`, a list of [re, im] pairs, at `site`,
    nested to the depth that site reads; the scalar `c` takes the last pair.
    Returns (command, config, depth)."""
    sandwich = lambda function: {**load(CONFIG_DIR / "sandwich_geometric.json"), "function": function}
    z = {"kind": "blaschke", "c": [1.0, 0.0], "m": 1}
    functions = {
        "coeffs": {"kind": "power_series", "coeffs": pairs},
        "zeros": {**z, "zeros": pairs},
        "phi": {"kind": "geometric_phi", "space": {"kind": "row", "param": 2}, "phi": pairs, "certified_norm": 0.5},
        "c": {"kind": "scale", "c": pairs[-1], "inner": z},
    }
    if site in functions:
        return "sandwich", sandwich(functions[site]), 0 if site == "c" else 1
    if site == "grid":
        config = load(CONFIG_DIR / "gcb_duplicate_delta.json")
        config["dictionary"]["entries"][0]["grid"] = [[pairs]]
    else:
        config = {**load(CONFIG_DIR / "delta_isometry_row2.json"), "point": {"level": 1, "entries": [[pairs]]}}
    return config["command"], config, 3


# Pairs that are not two JSON numbers.
MALFORMED = {"ragged": [2.0], "string": [1.0, "x"], "numeric string": ["1.5", 0.0], "null": [None, 1.0]}


@pytest.mark.parametrize("site", ["coeffs", "zeros", "phi", "c", "grid", "entries"])
@pytest.mark.parametrize("kind", list(MALFORMED))
def test_malformed_complex_arrays_end_in_an_error_line(site, kind, tmp_path, capsys):
    # A ragged list, a string (even a numeric one) or a null where a JSON
    # number belongs is an InvalidInputError naming the depth read there:
    # `run` raises a CbnormLabError and `main` prints one `error:` line and
    # exits 1, never a traceback or a nan.
    command, config, depth = _with_array(site, [[0.5, 0.0], MALFORMED[kind]])
    expected = "an [re, im] pair" if depth == 0 else f"a depth-{depth} nested list of [re, im] pairs"
    with pytest.raises(CbnormLabError, match=re.escape(f"expected {expected} of JSON numbers")):
        cli.run(command, config)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(config))
    assert run_cli([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("site", ["coeffs", "zeros", "phi", "c", "grid", "entries"])
@pytest.mark.parametrize("pair", [[True, 0.0], [0.5, False], [1, True]], ids=["true-float", "float-false", "int-true"])
def test_booleans_among_numbers_end_in_an_error_line(site, pair, tmp_path, capsys):
    # numpy reads true beside numbers as 1.0: a power series with a true
    # coefficient once ran a sandwich with upper 1.0 and exit 0.
    command, config, depth = _with_array(site, [[0.5, 0.0], pair])
    expected = "an [re, im] pair" if depth == 0 else f"a depth-{depth} nested list of [re, im] pairs"
    with pytest.raises(CbnormLabError, match=re.escape(f"expected {expected} of JSON numbers")):
        cli.run(command, config)
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps(config))
    assert run_cli([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def _with_real(site, value):
    """A shipped config with `value` at `site`: the certified norm of a
    geometric functional or of a composite, or the bound of a grid or a
    scalar dictionary entry.  Returns (command, config, key)."""
    space = {"kind": "row", "param": 2}
    phi = {"space": space, "phi": [[0.3, 0.0], [0.2, 0.0]], "certified_norm": value}
    functions = {
        "geometric_phi": {"kind": "geometric_phi", **phi},
        "composite": {"kind": "composite", "scalar": {"kind": "power_series", "coeffs": [[0.0, 0.0], [1.0, 0.0]]}, **phi},
    }
    if site in functions:
        return "sandwich", {**load(CONFIG_DIR / "sandwich_geometric.json"), "function": functions[site]}, "certified_norm"
    config = load(CONFIG_DIR / "gcb_duplicate_delta.json")
    entry = config["dictionary"]["entries"][0]
    if site == "scalar":
        entry = {"kind": "scalar", "function": functions["composite"]["scalar"]}
    config["dictionary"]["entries"] = [{**entry, "bound": value}]
    return "gcb", config, "bound"


@pytest.mark.parametrize("site", ["geometric_phi", "composite", "grid", "scalar"])
@pytest.mark.parametrize("value", ["2", True, False, None], ids=["string", "true", "false", "null"])
def test_a_real_that_is_no_json_number_exits_one(site, value, tmp_path, capsys):
    # A certified norm or an entry bound reads only JSON ints and floats, as
    # complex pairs and integers do: "2" is no bound of 2.0 and true none of 1.0.
    command, config, key = _with_real(site, value)
    path = tmp_path / "real.json"
    path.write_text(json.dumps(config))
    assert run_cli([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {key} must be a JSON number, got {value!r}\n"


def test_an_empty_zeros_list_still_parses():
    # A Blaschke product without zeros: z itself.
    function = {"kind": "blaschke", "c": [1.0, 0.0], "m": 1, "zeros": []}
    record, passed = cli.run("sandwich", {**load(CONFIG_DIR / "sandwich_geometric.json"), "function": function})
    assert passed and record["results"]["upper"] == 1.0


@pytest.mark.parametrize("phi", [[[5.0, 0.0], [0.0, 0.0]], [[-0.2, -0.7], [0.2, 0.2]]], ids=["5", "1.01"])
@pytest.mark.parametrize("kind", ["geometric_phi", "composite"])
def test_functional_of_norm_one_or_more_exits_one(kind, phi, tmp_path, capsys):
    # Both functionals state 0.5; their norms on min-ℓ∞², |φ|₁, are 5 and about 1.01.
    function = {"kind": kind, "space": {"kind": "min_linf", "param": 2}, "phi": phi, "certified_norm": 0.5}
    if kind == "composite":
        function["scalar"] = {"kind": "power_series", "coeffs": [[1.0, 0.0]]}
    config = tmp_path / "oversized.json"
    config.write_text(json.dumps({"command": "sandwich", "function": function, "max_level": 1, "budget": 10, "seed": 1}))
    assert run_cli(["sandwich", "--config", config]) == 1
    assert "not below 1" in capsys.readouterr().err


_Z = {"kind": "power_series", "coeffs": [[1.0, 0.0]]}
_OVERFLOWING = {
    # The summands cancel, but the sum rule bounds the sum by 2e308.
    "sum": {
        "kind": "sum",
        "left": {"kind": "scale", "c": [1e308, 0.0], "inner": _Z},
        "right": {"kind": "scale", "c": [-1e308, 0.0], "inner": _Z},
    },
    # Evaluating it overflows too, so the rule must be checked before any search.
    "scale": {"kind": "scale", "c": [1e308, 0.0], "inner": {"kind": "power_series", "coeffs": [[1e308, 0.0]]}},
    # Its coefficient sum overflows inside numpy, which must not warn.
    "coeffs": {"kind": "power_series", "coeffs": [[1e308, 0.0], [1e308, 0.0]]},
}


@pytest.mark.parametrize("command", ["sandwich", "algebra"])
@pytest.mark.parametrize(
    "name,rule",
    [("sum", "sum of summand bounds"), ("scale", "scaled ["), ("coeffs", "coefficient-sum (exact polynomial)")],
)
def test_an_infinite_certified_upper_exits_one(command, name, rule, tmp_path, capsys):
    # A record with "upper": Infinity would not be JSON.  algebra refuses
    # the factor whose rule overflows, before it searches the product with z.
    config = {"command": command, "function": _OVERFLOWING[name], "max_level": 2, "budget": 50, "seed": 1}
    if command == "algebra":
        config["function2"] = _Z
    with pytest.raises(InvalidInputError, match=re.escape(f"certified upper bound is not finite: {rule}")):
        cli.run(command, config)
    path, out = tmp_path / "overflow.json", tmp_path / "record.json"
    path.write_text(json.dumps(config))
    assert run_cli([command, "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: certified upper bound is not finite: {rule}") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("coeffs", [[1e-320], [5e-324, 5e-324], [1e-310]], ids=["1e-320", "two-5e-324", "1e-310"])
def test_a_subnormal_certified_upper_exits_one(coeffs, tmp_path, capsys):
    # Below sys.float_info.min the rounding of each complex product can put a
    # searched level value well above the exact rule, which would read as a
    # sandwich violation, and a schwarz trial a false one.  1e-310 is itself
    # subnormal, and so is its W_cap.
    series = {"kind": "power_series", "coeffs": [[c, 0.0] for c in coeffs]}
    sandwich = {"command": "sandwich", "function": series, "max_level": 2, "budget": 50, "seed": 0}
    schwarz = {"command": "schwarz", "function": series, "trials": 200, "seed": 5}
    for config in (sandwich, schwarz):
        path, out = tmp_path / "subnormal.json", tmp_path / "record.json"
        path.write_text(json.dumps(config))
        assert run_cli([config["command"], "--config", path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: certified upper bound is subnormal: coefficient-sum (exact polynomial) = ")
        assert not out.exists()


@pytest.mark.parametrize("coeff", [0.0, 1e-300])
def test_a_zero_or_normal_tiny_certified_upper_passes(coeff):
    series = {"kind": "power_series", "coeffs": [[coeff, 0.0]]}
    config = {"command": "sandwich", "function": series, "max_level": 2, "budget": 50, "seed": 0}
    record, passed = cli.run("sandwich", config)
    assert passed and record["results"]["upper"] == coeff
    assert record["results"]["lower"] <= coeff


def test_a_non_finite_number_in_a_record_exits_one(monkeypatch, tmp_path, capsys):
    # A record holding an infinite or NaN number is not JSON, so it is not
    # written.
    config = {"command": "algebra", "function": _Z, "function2": _Z, "max_level": 2, "budget": 50, "seed": 1}
    for number in (float("inf"), float("nan")):
        record = {"command": "algebra", "results": {"worst_slack": number}}
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.record_to_json(record)
    monkeypatch.setattr(cli, "run", lambda command, config: (record, True))
    path, out = tmp_path / "algebra.json", tmp_path / "record.json"
    path.write_text(json.dumps(config))
    assert run_cli(["algebra", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not JSON compliant" in err and "Traceback" not in err
    assert not out.exists()


def test_command_mismatch_exits_one(tmp_path, capsys):
    config = tmp_path / "mismatch.json"
    config.write_text(json.dumps({**load(CONFIG_DIR / "sandwich_geometric.json"), "command": "schwarz"}))
    assert run_cli(["sandwich", "--config", config]) == 1
    assert "declares command 'schwarz' but 'sandwich' was invoked" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "probe", "sandwhich"])
def test_an_unknown_command_is_an_input_error(command, tmp_path, capsys):
    # The library names the command and the commands there are; the console
    # script's parser refuses it with a usage line and exit code 2.
    config = {**load(CONFIG_DIR / "estimate_identity.json"), "command": command}
    for call in (cli.run, cli.validate_config):
        with pytest.raises(CbnormLabError, match=re.escape(f"unknown command {command!r}; the commands are ")) as error:
            call(command, config)
        assert str(error.value).endswith(", ".join(cli.COMMANDS))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as refused:
        run_cli([command, "--config", path])
    assert refused.value.code == 2
    assert capsys.readouterr().err.startswith("usage: cbnorm-lab")


def test_property_failure_exits_two(tmp_path):
    # A dictionary entry with an understated bound inflates the lower bound
    # past the certified upper bound; the record must flag the failure.
    config = json.loads((CONFIG_DIR / "gcb_duplicate_delta.json").read_text())
    config["dictionary"]["entries"][0]["bound"] = 0.1
    bad = tmp_path / "bad_gcb.json"
    bad.write_text(json.dumps(config))
    out = tmp_path / "rec.json"
    assert run_cli(["gcb", "--config", bad, "--out", out]) == 2
    assert load(out)["results"]["passed"] is False


def test_report_empty_is_header_only(tmp_path, capsys):
    assert run_cli(["report"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["id,lower,upper,gap,levels"]


def test_report_rows_and_gap(tmp_path):
    records = []
    for name in ("estimate_identity.json", "sandwich_geometric.json", "separate_scalar.json"):
        out = tmp_path / f"rec_{name}"
        command = load(CONFIG_DIR / name)["command"]
        assert run_cli([command, "--config", CONFIG_DIR / name, "--out", out]) == 0
        records.append(out)
    summary = tmp_path / "summary.csv"
    assert run_cli(["report", *records, "--out", summary]) == 0
    with open(summary) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "lower", "upper", "gap", "levels"]
    assert len(rows) == 4
    sandwich_row = rows[2]
    assert sandwich_row[0] == "moebius_quotient(power_series)"
    gap = float(sandwich_row[3])
    assert abs(gap - (float(sandwich_row[2]) - float(sandwich_row[1]))) < 1e-12


def test_report_skips_corrupt_records(tmp_path, capsys):
    # Invalid JSON, and valid JSON that is not shaped like a record.
    for text in ("{not json", "[1, 2]", '{"results": 5}'):
        broken = tmp_path / "broken.json"
        broken.write_text(text)
        assert run_cli(["report", broken]) == 0
        captured = capsys.readouterr()
        assert "warning: skipping" in captured.err
        assert captured.out.strip().splitlines() == ["id,lower,upper,gap,levels"]


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "rec.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "cbnorm_lab.cli",
            "separate",
            "--config",
            str(CONFIG_DIR / "separate_scalar.json"),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert load(out)["results"]["found"] is True
