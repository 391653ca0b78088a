"""Print the pinned SHA-256 table for every fixed benchmark case.

    python3 bench/pin.py > bench/pinned.json

Run it only when a change to lietop's output is intended: the pins are what
the benchmark compares each fixed case's records output against.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import harness
import workloads


def main() -> int:
    pins = {}
    harness.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.WORK_ROOT) as tmp:
        for name in workloads.WORKLOADS:
            for n, case in enumerate(workloads.build(name, 0, Path(tmp))):
                if not case.pinned:
                    continue
                run = harness.run_case(case, n, Path(tmp), False, 600, {}, {})
                digest = hashlib.sha256(run.output.encode()).hexdigest()
                error = run.error if run.code else harness.check_output(case, run.output, {}, {case.id: digest})
                if error:
                    sys.stderr.write(f"{case.id}: {error}\n")
                    return 1
                pins[case.id] = digest
    print(json.dumps(pins, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
