"""Rewrite tests/golden/<stem>.json from the shipped configs.

    PYTHONPATH=src python tests/golden/regenerate.py

Each golden file is the record of one `configs/*.json` run through
`cli.run`, with `runtime_ms` dropped, in `cli.record_to_json` form.  Each
file written is reported as changed or unchanged.  Only regenerate after a
change that is meant to alter results or their text form, and name the
changed files in CHANGES.md; after a change of text form alone, check that
each rewritten file parses to the object its old file parsed to.
"""

import json
from pathlib import Path

from cbnorm_lab import cli

GOLDEN_DIR = Path(__file__).resolve().parent
CONFIG_DIR = GOLDEN_DIR.parent.parent / "configs"


def golden_text(config_path: Path) -> str:
    """The record of one shipped config, as stored in its golden file."""
    config = json.loads(config_path.read_text())
    record, _ = cli.run(config["command"], config)
    record.pop("runtime_ms")
    return cli.record_to_json(record)


if __name__ == "__main__":
    for path in sorted(CONFIG_DIR.glob("*.json")):
        golden = GOLDEN_DIR / path.name
        text = golden_text(path)
        unchanged = golden.exists() and golden.read_text() == text
        golden.write_text(text)
        print(f"wrote {path.name}: {'unchanged' if unchanged else 'changed'}")
