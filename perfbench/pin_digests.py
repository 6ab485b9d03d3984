"""Write ``digests.json``: the sha256 of every checked output at this commit.

Run from the root of a checkout::

    python3 perfbench/pin_digests.py

Re-pin only in a change that deliberately alters output bytes and says so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, SETUP_ARGV, SWEEPS, Checkout, file_sha256, run_child


def main() -> int:
    co = Checkout(Path.cwd())
    co.out.mkdir(exist_ok=True)
    sys.path[:0] = [str(co.src), str(HERE)]
    from bench_points import (REFERENCE_POINTS, REFERENCE_SEED, lines_digest, point_rows,
                              point_stream, quick_tour)

    digests = {}
    out, err = co.out / "pin.out", co.out / "pin.err"
    _, _, code = run_child(co.hyperspin_argv(SETUP_ARGV), co.env, out, err)
    if code != 0:
        raise SystemExit(f"setup probe exited {code}")
    digests["setup-probe"] = file_sha256(out)
    for name, spec in SWEEPS.items():
        _, _, code = run_child(co.hyperspin_argv([*spec["argv"], "--out", str(out)]),
                               co.env, co.out / "pin.stdout", err)
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
        rows = int(err.read_text(encoding="utf-8").split()[1])
        digests[name] = {"sha256": file_sha256(out), "rows": rows}
    out.unlink()
    reference = point_stream(REFERENCE_SEED, REFERENCE_POINTS)
    digests["point-api-reference"] = lines_digest(
        [r.csv_line() for r in point_rows(reference, [quick_tour(*p) for p in reference])])
    with open(HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
