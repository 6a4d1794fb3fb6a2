"""Reproducible experiment runner: JSON configs in, JSON result records out.

`sandwich` records both bounds, its lower bound searching the levels 1, 2, 4
and 8 up to `max_level`.

Exit codes: 0 success, 1 input errors, 2 property failures (a check
report that did not pass, or an internal sandwich violation).  Records rerun
bit-for-bit from the same config; only runtime_ms is exempt.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict

from . import __version__, cbnorm, descriptors, gcb, matcore, mconvex
from .errors import CbnormLabError, InvalidInputError, SandwichViolationError

SCHEMA_VERSION = 1


def _schema_version(value, name):
    if isinstance(value, bool) or value != SCHEMA_VERSION:
        raise InvalidInputError(f"{name} must be {SCHEMA_VERSION}, got {value!r}")


# Every config key: the type its value must have, or the library check it must pass.
_KEYS = {
    "schema_version": _schema_version,
    "command": str,
    "seed": lambda value, name: matcore.check_seed(value),
    "budget": matcore.check_budget,
    "max_level": matcore.check_count,
    "trials": matcore.check_budget,
    **dict.fromkeys(("function", "function2", "set", "x0", "element", "dictionary", "space", "point"), dict),
}

# Every config may carry these keys besides its command's own.
_COMMON = ("schema_version", "command")


def validate_config(command: str, config: dict) -> None:
    """Reject a config with a missing, unknown or invalid key, naming the key."""
    if command not in _COMMANDS:
        raise CbnormLabError(f"unknown command {command!r}; the commands are {', '.join(COMMANDS)}")
    if not isinstance(config, dict):
        raise CbnormLabError(f"config invalid at $: expected an object, got {type(config).__name__}")
    _, required, optional = _COMMANDS[command]
    for key in required:
        if key not in config:
            raise CbnormLabError(f"config invalid at $.{key}: required key is missing")
    for key, value in config.items():
        if key not in required and key not in optional and key not in _COMMON:
            raise CbnormLabError(f"config invalid at $.{key}: not a key of {command!r}")
        check = _KEYS[key]
        try:
            if not isinstance(check, type):
                check(value, key)
            elif not isinstance(value, check):
                raise InvalidInputError(f"{key} must be a {check.__name__}, got {type(value).__name__}")
        except InvalidInputError as exc:
            raise CbnormLabError(f"config invalid at $.{key}: {exc}") from None
    declared = config.get("command")
    if declared is not None and declared != command:
        raise CbnormLabError(f"config declares command {declared!r} but {command!r} was invoked")


def _serialize_witness(w: cbnorm.Witness) -> dict:
    if hasattr(w.matrix, "entries"):
        matrix = descriptors.space_matrix_to_descriptor(w.matrix)
    else:
        matrix = descriptors._array_out(w.matrix)
    return {"level": w.level, "value": w.value, "matrix": matrix}


def _fields(report, *drop) -> dict:
    """A report dataclass as a results dict, without the named fields."""
    return {k: v for k, v in asdict(report).items() if k not in drop}


def _run_sandwich(config):
    f = descriptors.function_from_descriptor(config["function"])
    est = cbnorm.sandwich(f, config["max_level"], config["budget"], config["seed"])
    results = {
        "lower": est.lower,
        "upper": est.upper,
        "gap": est.upper - est.lower,
        "provenance": est.provenance,
        "level_table": {str(m): {"value": w.value, "samples": est.samples[m]} for m, w in est.level_table.items()},
    }
    witnesses = {str(m): _serialize_witness(w) for m, w in est.level_table.items()}
    return results, witnesses, True


def _run_schwarz(config):
    f = descriptors.function_from_descriptor(config["function"])
    upper = cbnorm.cb_upper_bound(f)
    report = cbnorm.schwarz_check(f, upper, config["trials"], config["seed"])
    results = {"upper": upper, **_fields(report)}
    return results, None, report.passed


def _run_algebra(config):
    f = descriptors.function_from_descriptor(config["function"])
    g = descriptors.function_from_descriptor(config["function2"])
    report = cbnorm.algebra_check(f, g, config["max_level"], config["budget"], config["seed"])
    return _fields(report, "trials"), None, report.passed


def _run_hull(config):
    k = descriptors.matrix_set_from_descriptor(config["set"])
    report = mconvex.hull_norm_check(k, config["trials"], config["seed"])
    return _fields(report), None, report.passed


def _run_separate(config):
    k = descriptors.matrix_set_from_descriptor(config["set"])
    x0 = descriptors.space_matrix_from_descriptor(config["x0"], k.space)
    cert = mconvex.find_certificate(k, x0, config["budget"], config["seed"])
    if cert is None:
        results = {"found": False, "certificate": None, "verdict": None}
    else:
        results = {
            "found": True,
            "certificate": descriptors.certificate_to_descriptor(cert),
            "verdict": _fields(mconvex.check_certificate(cert, k, x0)),
        }
    return results, None, True


def _run_gcb(config):
    u = descriptors.gcb_element_from_descriptor(config["element"])
    dictionary = descriptors.dictionary_from_descriptor(config["dictionary"], u.space)
    upper = gcb.gcb_upper_bound(u, config["budget"])
    lower = gcb.gcb_lower_bound(u, dictionary)
    passed = cbnorm.in_order(lower, upper)
    results = {"upper": upper, "lower": lower, "gap": upper - lower, "passed": passed}
    return results, None, passed


def _run_delta_isometry(config):
    space = descriptors.space_from_descriptor(config["space"])
    x = descriptors.space_matrix_from_descriptor(config["point"], space)
    report = gcb.delta_isometry_check(x, config["budget"])
    return _fields(report), None, report.passed


# Each command: its runner, its required keys and its optional keys.
_COMMANDS = {
    "sandwich": (_run_sandwich, ("function", "max_level", "budget", "seed"), ()),
    # schwarz reads neither max_level nor budget, but configs/schwarz_square.json,
    # which the disk-sandwich benchmark runs, carries both.
    "schwarz": (_run_schwarz, ("function", "trials", "seed"), ("max_level", "budget")),
    "algebra": (_run_algebra, ("function", "function2", "max_level", "budget", "seed"), ()),
    "hull": (_run_hull, ("set", "trials", "seed"), ()),
    "separate": (_run_separate, ("set", "x0", "budget", "seed"), ()),
    # gcb and delta-isometry draw no random numbers, but a seed in their
    # config is still checked and echoed, as README documents.
    "gcb": (_run_gcb, ("element", "dictionary", "budget"), ("seed",)),
    "delta-isometry": (_run_delta_isometry, ("space", "point", "budget"), ("seed",)),
}
COMMANDS = tuple(_COMMANDS)


def run(command: str, config: dict) -> tuple[dict, bool]:
    """Validate, dispatch, and wrap the outcome in a result record.

    Returns (record, passed); property-check commands report passed=False
    instead of raising.
    """
    validate_config(command, config)
    started = time.perf_counter()
    results, witnesses, passed = _COMMANDS[command][0](config)
    record = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "command": command,
        "config": config,
        "results": results,
    }
    if witnesses is not None:
        record["witnesses"] = witnesses
    record["runtime_ms"] = int((time.perf_counter() - started) * 1000)
    return record, passed


def record_to_json(record: dict) -> str:
    """The record as one line of JSON; a NaN or infinite number, which JSON
    cannot hold, raises ValueError (an `error:` line from `main`)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _report_row(record: dict) -> list[str]:
    results = record["results"]
    config = record.get("config", {})
    ident = (
        descriptors.function_id(config["function"])
        if "function" in config
        else record.get("command", "?")
    )
    table = results.get("level_table", {})
    summary = ";".join(f"{m}:{table[m]['value']:.6g}" for m in sorted(table, key=int))
    fmt = lambda v: "" if v is None else repr(v)
    return [ident, fmt(results.get("lower")), fmt(results.get("upper")), fmt(results.get("gap")), summary]


def report_rows(paths) -> list[list[str]]:
    """One CSV row per readable record: id, lower, upper, gap, level summary.

    Unreadable files and JSON that is not shaped like a record are skipped
    with a warning.
    """
    rows = []
    for path in paths:
        try:
            with open(path) as fh:
                rows.append(_report_row(json.load(fh)))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
    return rows


def _write_report(paths, out: str | None) -> None:
    rows = report_rows(paths)
    target = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(["id", "lower", "upper", "gap", "levels"])
        writer.writerows(rows)
    finally:
        if out:
            target.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cbnorm-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="where to write the result record")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    rep = sub.add_parser("report")
    rep.add_argument("records", nargs="*", help="result record paths")
    rep.add_argument("--out", default=None, help="write the CSV here instead of stdout")

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            _write_report(args.records, args.out)
            return 0
        with open(args.config) as fh:
            config = json.load(fh)
        if args.seed is not None and isinstance(config, dict):
            config["seed"] = args.seed
        record, passed = run(args.command, config)
        text = record_to_json(record)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except SandwichViolationError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return 2
    except (CbnormLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
