"""Write frozen.json: the exact outputs of one pass at the default seed.

    python3 perfbench/freeze.py

The frozen values pin decision-tree digests, certificate and instance
JSON digests and bit-identical simulate (mean, sem) pairs, so that every
later run at the default seed can be compared against them. Regenerate
only when a change is meant to alter these outputs, and say which.
"""
from __future__ import annotations

import json
import sys

from run import HERE, SRC, import_ctplab, run_pass
from speed import Clock
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    ct = import_ctplab()
    frozen = {}
    for name, cls in WORKLOADS.items():
        workload = cls(ct, DEFAULT_SEED)
        with Clock() as clock:
            result = run_pass(workload, clock)
        problems = workload.check(result.fps, None)
        if problems:
            print(f"{name}: outputs fail their checks: {problems}",
                  file=sys.stderr)
            return 1
        frozen[name] = result.fps
        print(f"{name}: froze {len(result.fps)} outputs; "
              f"raised: {sorted(result.errors)}")
    (HERE / "frozen.json").write_text(json.dumps(frozen, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
