"""Record the reference outputs the workloads check against.

    python3 perfbench/record_reference.py

Writes perfbench/reference/: the stdout and exit code of every fixture x
document subcommand, the nine census tables, and chi, K^2, resolution
rounds and Picard rank of each arrangement.  Run it only to accept a
deliberate change of output, and review the diff it leaves.
"""

from __future__ import annotations

import json
from math import comb

from harness import Program
from workloads import REFERENCE_DIR, arrangement_ops, census_ops, census_reference_path, fixture_ops
from workloads import parse_invariants


def main() -> None:
    program = Program()
    fixtures = {}
    for op in fixture_ops():
        (res,) = program.run(op)
        fixtures[op.key] = {"exit": res.code, "stdout": res.out}
    (REFERENCE_DIR / "fixtures.json").write_text(
        json.dumps(fixtures, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

    (REFERENCE_DIR / "census").mkdir(parents=True, exist_ok=True)
    for op in census_ops():
        (res,) = program.run(op)
        if res.code != 0:
            raise SystemExit(f"{op.key} failed: {res.err}")
        census_reference_path(REFERENCE_DIR, op).write_text(res.out, encoding="utf-8")

    arrangement = {}
    for op in arrangement_ops(seed=0):
        (res,) = program.run(op)
        record = parse_invariants(res.out)
        k = op.size
        if record["rank"] != 1 + k + 3 * comb(k, 2) or record["resolution_rounds"] != 2:
            raise SystemExit(f"{op.key}: unexpected resolution {record}")
        arrangement[str(k)] = record
    (REFERENCE_DIR / "arrangement.json").write_text(
        json.dumps(arrangement, indent=1) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
