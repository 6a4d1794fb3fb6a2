"""cbnorm-lab benchmark: seeded workloads through `cli.run`, timed end to end,
with a separate traced run for per-module numbers.

    python3 perfbench/run.py --workload disk-sandwich --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's `src/`.  The last line of standard
output is one JSON object: `{"correct", "attempted", "failed", "metrics"}`;
the lines before it print every metric with its unit, the failure ratio, raw
wall times and the environment.  See README.md in this directory.
"""

import os

# One BLAS thread, set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
SANDWICH_COMMANDS = ("sandwich", "gcb")  # ops whose records carry upper and lower bounds

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cbnorm_lab.cli; print(time.perf_counter() - t)"
)


def _import_program():
    """Import cbnorm_lab from this checkout's src/, or exit with status 1."""
    if not (SRC / "cbnorm_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cbnorm_lab package under {SRC}; run inside a full checkout")
    sys.path.insert(0, str(SRC))
    import cbnorm_lab.cli

    if Path(cbnorm_lab.__file__).resolve().parent != SRC / "cbnorm_lab":
        sys.exit(f"perfbench: imported cbnorm_lab from {cbnorm_lab.__file__}, not from {SRC}")
    return cbnorm_lab.cli


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _import_once() -> float:
    """Import time of `cbnorm_lab.cli` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _build_once(cli, workloads, name: str, seed: int):
    ops = workloads.build(name, seed, ROOT)
    for op in ops:
        cli.validate_config(op.command, op.config)
    return ops


def _setup(cli, workloads, speed, name: str, seed: int):
    """Median import time of `cbnorm_lab.cli` in a fresh interpreter plus
    median in-process build-and-validate time of the workload's configs, both
    at nominal speed; returns (setup_s, ops, parts)."""
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        import_s, _, scale = speed.timed(_import_once)
        imports.append(import_s * scale)
        ops, wall, scale = speed.timed(lambda: _build_once(cli, workloads, name, seed))
        builds.append(wall * scale)
    import_s, build_s = statistics.median(imports), statistics.median(builds)
    return import_s + build_s, ops, {"import_s": import_s, "build_s": build_s}


class Run:
    """Closed-loop execution of whole passes over a workload's ops."""

    def __init__(self, cli, gate, speed, ops, tracer=None):
        self.cli, self.gate, self.speed, self.ops, self.tracer = cli, gate, speed, ops, tracer
        self.latencies = []  # per op, at nominal speed
        self.walls = []  # per op, raw wall time
        self.evals = 0
        self.attempted = 0
        self.failed = 0
        self.first_pass = {}  # op index -> gate info of its first run
        self.shortfall = {}  # level -> [sum of upper - direct value, count]
        self.lifted = 0

    def measure(self, seconds: float, traced: bool = False) -> dict:
        """Run whole passes until `seconds` have gone by."""
        start, passes, first = time.perf_counter(), 0, len(self.latencies)
        while passes == 0 or time.perf_counter() - start < seconds:
            if self.tracer is not None:
                self.tracer.keep_spans = traced and passes == 0
            self._pass(traced)
            passes += 1
        return {"passes": passes, "ops": len(self.latencies) - first,
                "seconds": sum(self.latencies[first:]), "wall": sum(self.walls[first:])}

    def _call(self, op, traced: bool):
        tracer = self.tracer
        if tracer is not None:
            tracer.op = self.attempted
            tracer.op_levels.clear()
            tracer.active = traced
        try:
            record, passed = self.cli.run(op.command, op.config)
            return self.cli.record_to_json(record), passed
        finally:
            if tracer is not None:
                tracer.active = False

    def _pass(self, traced: bool) -> None:
        for op in self.ops:
            self.attempted += 1
            try:
                (text, passed), wall, scale = self.speed.timed(lambda: self._call(op, traced))
                problems, info = self.gate.check(text, passed, op.known)
            except Exception:
                self._fail(op, traceback.format_exc())
                continue
            self.walls.append(wall)
            self.latencies.append(wall * scale)
            self.evals += op.evals
            first = self.first_pass.setdefault(op.index, info)
            if info["digest"] != first["digest"]:
                problems.append("record differs from the same op's first run")
            if problems:
                self._fail(op, "; ".join(problems))
            if traced:
                self._count_levels(info)

    def _count_levels(self, info: dict) -> None:
        self.lifted += info["lifted"]
        upper = info["record"]["results"].get("upper")
        if upper is None:
            return
        for level, value in self.tracer.op_levels:
            acc = self.shortfall.setdefault(level, [0.0, 0])
            acc[0] += upper - value
            acc[1] += 1

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: op {op.index} ({op.command}) failed: {why}", file=sys.stderr)

    def gap_mean(self) -> float:
        gaps = [
            info["record"]["results"]["upper"] - info["record"]["results"]["lower"]
            for index, info in sorted(self.first_pass.items())
            if self.ops[index].command in SANDWICH_COMMANDS
        ]
        return statistics.fmean(gaps) if gaps else 0.0


def _tail(latencies, percentile: float):
    """Nearest-rank percentile and the number of ops beyond it."""
    ordered = sorted(latencies)
    rank = int(max(1, -(-len(ordered) * percentile // 100)))
    return ordered[rank - 1], len(ordered) - rank


def _end_to_end(run: Run, setup_s: float, percentile: float) -> tuple:
    lat = run.latencies
    tail, beyond = _tail(lat, percentile)
    busy = sum(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(lat), "s"),
        "op_s.tail": (tail, "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "evals_per_s": (run.evals / busy, "1/s"),
        "gap_mean": (run.gap_mean(), "norm"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_tail, _ = _tail(run.walls, percentile)
    notes = {
        "op_s.tail": f"p{percentile:g} over {len(lat)} ops, {beyond} beyond it",
        "raw wall": f"op_s.p50 {statistics.median(run.walls):.6g} s, op_s.tail {raw_tail:.6g} s, "
                    f"ops_per_s {len(lat) / sum(run.walls):.6g} 1/s",
    }
    return metrics, notes


def _save(stem: str, ops, digests: dict, summary: dict) -> None:
    """Per-op record digests (compare two runs with compare_digests.py) and a
    run summary, under out/."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{stem}.digests", "w") as fh:
        for op in ops:
            fh.write(f"{op.index}\t{op.command}\t{digests.get(op.index, 'missing')}\n")
    with open(OUT / f"{stem}-trace{summary['trace']}.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_program()
    import gate
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    env = _environment()
    speed = reference.Speedometer()
    setup_s, ops, setup_parts = _setup(cli, workloads, speed, args.workload, args.seed)

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        run = Run(cli, gate, speed, ops, tracer)
        untraced = run.measure(args.seconds / 2)
        tracer.install()
        try:
            traced = run.measure(args.seconds / 2, traced=True)
        finally:
            tracer.uninstall()
        metrics, notes = tracing.per_layer(tracer, run, untraced, traced)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{args.workload}.spans.tsv.gz")
    else:
        run = Run(cli, gate, speed, ops)
        run.measure(args.seconds)
        metrics, notes = _end_to_end(run, setup_s, workloads.TAIL_PERCENTILE[args.workload])

    digests = {i: info["digest"] for i, info in run.first_pass.items()}
    _save(f"{args.workload}-seed{args.seed}", ops, digests, {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup": setup_parts, "notes": notes,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "attempted": run.attempted, "failed": run.failed,
    })

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per pass; times at "
          f"nominal speed (reference kernel {reference.NOMINAL_S * 1e3:g} ms)")
    print(f"  setup: import {setup_parts['import_s']:.6g} s + build {setup_parts['build_s']:.6g} s")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:.6g} {unit}{note}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name}: {note}")
    print(f"  fail_ratio {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} ops failed)")
    print(f"  records digest {gate.combined(digests[i] for i in sorted(digests))}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
