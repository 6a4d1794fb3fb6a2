"""Correctness gate run on every op's record, outside the timed region.

The gate re-reads the record text that `cli.record_to_json` produced, so it
checks exactly what a user of the CLI would get.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from cbnorm_lab import descriptors, holofun, matcore, opspace

SANDWICH_TOL = 1e-6
WITNESS_TOL = 1e-12
KNOWN_TOL = 1e-9


def digest(record: dict) -> str:
    """sha256 of the record with its wall time dropped (the byte-identity contract)."""
    stable = {k: v for k, v in record.items() if k != "runtime_ms"}
    return hashlib.sha256(json.dumps(stable, sort_keys=True, indent=2).encode()).hexdigest()


def _is_padded(matrix: list) -> bool:
    """Last row and column all zero: the mark of a zero-padded (lifted) witness."""
    arr = np.asarray(matrix)
    return not arr[-1].any() and not arr[:, -1].any()


def _check_witness(f, key: str, w: dict, table: dict, problems: list) -> None:
    level = int(key)
    if w["level"] != level or table[key]["value"] != w["value"]:
        problems.append(f"witness {key} disagrees with the level table")
    if f.domain_space is None:
        x = descriptors._array_in(w["matrix"], depth=2)
        norm = matcore.operator_norm(x)
        size = x.shape[0]
    else:
        x = descriptors.space_matrix_from_descriptor(w["matrix"], f.domain_space)
        norm = opspace.matrix_norm(x)
        size = x.level
    if size != level:
        problems.append(f"witness {key} has level {size}")
    if not norm < 1.0:
        problems.append(f"witness {key} has norm {norm!r}, not inside the open ball")
        return
    value = matcore.operator_norm(holofun.amplify(f, x))
    if abs(value - w["value"]) > WITNESS_TOL:
        problems.append(f"witness {key} recomputes to {value!r}, record says {w['value']!r}")


def check(text: str, passed: bool, known: float | None) -> tuple[list, dict]:
    """Problems found in one op's record, and facts the traced run counts.

    Checks the op's own verdict, sandwich order, every level witness (re-parsed
    and recomputed independently of the search) and, where the exact cb norm
    is known, lower <= known <= upper.
    """
    record = json.loads(text)
    results = record["results"]
    problems = [] if passed else ["op reported passed=false"]
    lower, upper = results.get("lower"), results.get("upper")
    if lower is not None and upper is not None and not lower <= upper + SANDWICH_TOL:
        problems.append(f"lower {lower!r} exceeds upper {upper!r}")
    verdict = results.get("verdict")
    if results.get("found") and not verdict["valid"]:
        problems.append("separation certificate found but not valid")

    lifted = 0
    witnesses = record.get("witnesses", {})
    if witnesses:
        f = descriptors.function_from_descriptor(record["config"]["function"])
        table = results["level_table"]
        first = min(witnesses, key=int)
        for key, w in witnesses.items():
            _check_witness(f, key, w, table, problems)
            matrix = w["matrix"]["entries"] if f.domain_space is not None else w["matrix"]
            if key != first and _is_padded(matrix):
                lifted += 1

    if known is not None:
        lowers = results["values"] if "values" in results else [lower]
        if any(v is not None and not v <= known + KNOWN_TOL for v in lowers):
            problems.append(f"a lower bound exceeds the known cb norm {known!r}")
        if upper is not None and not known <= upper + KNOWN_TOL:
            problems.append(f"upper {upper!r} is below the known cb norm {known!r}")
    return problems, {"digest": digest(record), "lifted": lifted, "record": record}


def combined(digests) -> str:
    """One sha256 over a sequence of per-record digests, for comparing runs at a glance."""
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
    return h.hexdigest()
