"""List the ops whose records differ between two benchmark runs.

    python3 perfbench/compare_digests.py A.digests B.digests

Each file is the `out/<workload>-seed<n>.digests` a run writes: one line per
op with its index, command and the sha256 of its record without `runtime_ms`.
Run the parent and the changed program on the same workload and seed, then
compare; a difference means the change altered a record.  Exits 0 either way.
"""

import sys


def _read(path: str) -> dict:
    with open(path) as fh:
        rows = [line.split("\t") for line in fh.read().splitlines()]
    return {int(i): (cmd, d) for i, cmd, d in rows}


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (_read(p) for p in argv)
    differ = [i for i in sorted(a.keys() | b.keys()) if a.get(i) != b.get(i)]
    for i in differ:
        cmd = (a.get(i) or b.get(i))[0]
        print(f"op {i} ({cmd}): {a.get(i, ('', 'absent'))[1]} != {b.get(i, ('', 'absent'))[1]}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} records differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
