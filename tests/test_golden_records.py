"""Tests for .github/golden_records.py, the golden-record check of CI."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / ".github" / "golden_records.py"
_SPEC = importlib.util.spec_from_file_location("golden_records", _PATH)
golden_records = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_records)

GOLDEN = {"command": "sandwich", "results": {"lower": 0.5, "upper": 1.0}}


def _write(path, text):
    path.write_text(text)
    return path


def test_a_record_matches_its_golden_without_its_runtime(tmp_path):
    golden = _write(tmp_path / "golden.json", json.dumps(GOLDEN))
    same = _write(tmp_path / "same.json", json.dumps({**GOLDEN, "runtime_ms": 12.5}))
    assert golden_records.matches(same, golden)
    moved = {**GOLDEN, "results": {"lower": 0.25, "upper": 1.0}, "runtime_ms": 12.5}
    assert not golden_records.matches(_write(tmp_path / "moved.json", json.dumps(moved)), golden)
    with pytest.raises(KeyError):
        golden_records.matches(golden, golden)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_a_record_holding_nan_or_infinity_is_refused(tmp_path, constant):
    golden = _write(tmp_path / "golden.json", json.dumps(GOLDEN))
    record = _write(tmp_path / "record.json", json.dumps({**GOLDEN, "runtime_ms": 1.0}).replace("0.5", constant))
    with pytest.raises(ValueError, match=f"holds {constant}, which is not JSON"):
        golden_records.matches(record, golden)


def test_main_reports_every_config_and_fails_if_one_differs(tmp_path, monkeypatch, capsys):
    # A stub console script writes each config's "record" field as its
    # record: the first config's matches, the second's differs, and the
    # third's run fails; every config is still reported.
    (tmp_path / "configs").mkdir()
    (tmp_path / "tests" / "golden").mkdir(parents=True)
    for name, record in (("a.json", GOLDEN), ("b.json", {**GOLDEN, "command": "schwarz"}), ("c.json", None)):
        _write(tmp_path / "configs" / name, json.dumps({"command": "sandwich", "record": record}))
        _write(tmp_path / "tests" / "golden" / name, json.dumps(GOLDEN))

    def run(args, check):
        record = golden_records.read_json(args[3])["record"]
        if record is None:
            raise golden_records.subprocess.CalledProcessError(2, args)
        _write(Path(args[5]), json.dumps({**record, "runtime_ms": 3.0}))

    monkeypatch.setattr(golden_records, "_ROOT", tmp_path)
    monkeypatch.setattr(golden_records.subprocess, "run", run)
    assert golden_records.main(tmp_path / "out") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["a.json: matches", "b.json: differs"]
    assert lines[2].startswith("c.json: CalledProcessError: ") and lines[3:] == ["c.json: differs"]
    _write(tmp_path / "configs" / "b.json", json.dumps({"command": "sandwich", "record": GOLDEN}))
    (tmp_path / "configs" / "c.json").unlink()
    assert golden_records.main(tmp_path / "out") == 0


SANDWICH = {"command": "sandwich", "results": {"lower": 0.5, "upper": 1.0, "gap": 0.5}}
SCHWARZ = {"command": "schwarz", "results": {"passed": True}}
CSV = "id,lower,upper,gap,levels\nz,0.5,1.0,0.5,1:0.5\nschwarz,,,,\n"


def _stub_report(tmp_path, monkeypatch, records, stdout, stderr):
    """A config and its record in OUT_DIR for each of the records, and a
    stub console script whose `report` prints the given CSV and warnings;
    returns OUT_DIR and the list of the stub's calls."""
    (tmp_path / "configs").mkdir()
    out = tmp_path / "out"
    out.mkdir()
    for name, record in records.items():
        _write(tmp_path / "configs" / name, json.dumps({"command": record["command"]}))
        _write(out / name, json.dumps(record))
    calls = []

    def run(args, capture_output, text, check):
        calls.append(args)
        return golden_records.subprocess.CompletedProcess(args, 0, stdout, stderr)

    monkeypatch.setattr(golden_records, "_ROOT", tmp_path)
    monkeypatch.setattr(golden_records.subprocess, "run", run)
    return out, calls


def test_check_report_passes_a_report_of_every_record(tmp_path, monkeypatch, capsys):
    # A schwarz record needs no upper or gap.
    out, calls = _stub_report(tmp_path, monkeypatch, {"a.json": SANDWICH, "b.json": SCHWARZ}, CSV, "")
    assert golden_records.check_report(out) == 0
    assert calls == [["cbnorm-lab", "report", str(out / "a.json"), str(out / "b.json")]]
    assert capsys.readouterr().out == CSV


@pytest.mark.parametrize(
    "case, problem",
    [
        ("warning", "report warned: warning: skipping b.json: bad"),
        ("missing row", "report has 2 rows, not the header and 2 records"),
        ("no header", "report has 2 rows, not the header and 2 records"),
        ("no gap", "a.json: a sandwich record with no upper or no gap"),
        ("no upper", "a.json: a sandwich record with no upper or no gap"),
        ("NaN", "a.json: ValueError: holds NaN, which is not JSON"),
    ],
)
def test_check_report_fails_on_each_check(tmp_path, monkeypatch, capsys, case, problem):
    sandwich, stdout, stderr = json.loads(json.dumps(SANDWICH)), CSV, ""
    if case == "warning":
        stderr = "warning: skipping b.json: bad\n"
    elif case == "missing row":
        stdout = CSV.rsplit("schwarz", 1)[0]
    elif case == "no header":
        stdout = CSV.split("\n", 1)[1]
    elif case == "NaN":
        sandwich["results"]["lower"] = math.nan
    else:
        sandwich["results"][case.split()[1]] = None
    out, _ = _stub_report(tmp_path, monkeypatch, {"a.json": sandwich, "b.json": SCHWARZ}, stdout, stderr)
    assert golden_records.check_report(out) == 1
    assert capsys.readouterr().out.splitlines()[-1] == problem
