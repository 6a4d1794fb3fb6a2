"""Run every shipped config through the `cbnorm-lab` console script and
compare each record with its golden.

    python .github/golden_records.py OUT_DIR

Each config in configs/ runs under the command it names, and its record is
written to OUT_DIR under the config's file name.  The record is read with a
parser that rejects NaN and Infinity, which are not JSON, and compared
without its runtime_ms against the golden record of the same name in
tests/golden/, as parsed objects.  Prints `name: matches` or `name: differs`
for each config, after the reason when its run fails or its record cannot
be read, and exits 1 if any config differs or fails.
"""

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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
