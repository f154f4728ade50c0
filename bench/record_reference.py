"""Record the reference artifacts of the verbatim `figures` ops.

    python3 bench/record_reference.py

Runs each verbatim op once and writes bench/reference/figures.json: JSON
artifacts whole, CSVs as header, row count, column sums and sums of squares
and every 50th row.  The benchmark compares each verbatim op against this
file within 1e-9, so re-record only when an artifact is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH_DIR, REFERENCE_FILE, SRC

import checks
import workloads


def main() -> int:
    sys.path.insert(0, str(SRC))
    import cahm.cli

    work_dir = BENCH_DIR / "_work" / f"reference-{os.getpid()}"
    try:
        _, verbatim = workloads.generate("figures", seed=0)
        reference = {}
        for op in workloads.materialize(verbatim, work_dir):
            code = cahm.cli.main(list(op.argv))
            if code != 0:
                print(f"{op.spec.name} exited with {code}", file=sys.stderr)
                return 1
            reference[op.spec.name] = checks.artifact_digest(op.out_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE_FILE.parent.mkdir(exist_ok=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} references to {REFERENCE_FILE.relative_to(BENCH_DIR.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
