"""Run every shipped config through the `cbnorm-lab` console script,
compare each record with its golden, and check `cbnorm-lab report` over
the records.

    python .github/golden_records.py OUT_DIR

Each config in configs/ runs under the command it names, and its record is
written to OUT_DIR under the config's file name.  The record is read with a
parser that rejects NaN and Infinity, which are not JSON, and compared
without its runtime_ms against the golden record of the same name in
tests/golden/, as parsed objects.  Prints `name: matches` or `name: differs`
for each config, after the reason when its run fails or its record cannot
be read (`main`).  Then `cbnorm-lab report` runs over every config's
record, and its CSV and warnings are printed, with a line for each of its
checks that fails (`check_report`).  Exits 1 if any config differs or
fails, or any check of the report fails.
"""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _refuse(constant):
    raise ValueError(f"holds {constant}, which is not JSON")


def read_json(path):
    """The JSON value in a file; NaN and Infinity are refused."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_refuse)


def matches(record_path, golden_path) -> bool:
    """Whether a record, without its runtime_ms, equals its golden."""
    record = read_json(record_path)
    record.pop("runtime_ms")
    return record == read_json(golden_path)


def main(out_dir) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failed = False
    for config in sorted((_ROOT / "configs").glob("*.json")):
        record = out / config.name
        try:
            command = read_json(config)["command"]
            subprocess.run(["cbnorm-lab", command, "--config", str(config), "--out", str(record)], check=True)
            same = matches(record, _ROOT / "tests" / "golden" / config.name)
        except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as exc:
            print(f"{config.name}: {type(exc).__name__}: {exc}")
            same = False
        print(f"{config.name}: {'matches' if same else 'differs'}")
        failed |= not same
    return int(failed)


def check_report(out_dir) -> int:
    """Run `cbnorm-lab report` over the record of every config in OUT_DIR,
    print its CSV and its warnings, and check that it warned of no record
    it skipped, that the CSV holds the header and one row per config, and
    that every `sandwich` record has a certified upper and a gap.  Prints a
    line for each check that fails, and returns 1 if any fails."""
    configs = sorted((_ROOT / "configs").glob("*.json"))
    records = [Path(out_dir) / config.name for config in configs]
    done = subprocess.run(["cbnorm-lab", "report", *map(str, records)], capture_output=True, text=True, check=True)
    print(done.stdout + done.stderr, end="")
    problems = [f"report warned: {line}" for line in done.stderr.splitlines() if line.startswith("warning:")]
    rows = list(csv.reader(io.StringIO(done.stdout)))
    if rows[:1] != [["id", "lower", "upper", "gap", "levels"]] or len(rows) != len(configs) + 1:
        problems.append(f"report has {len(rows)} rows, not the header and {len(configs)} records")
    for path in records:
        try:
            record = read_json(path)
            if record["command"] == "sandwich" and None in map(record["results"].get, ("upper", "gap")):
                problems.append(f"{path.name}: a sandwich record with no upper or no gap")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{path.name}: {type(exc).__name__}: {exc}")
    for problem in problems:
        print(problem)
    return int(bool(problems))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    # Both run, whatever the first returns.
    sys.exit(main(sys.argv[1]) | check_report(sys.argv[1]))
