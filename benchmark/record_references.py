"""Record the reference outputs that every benchmark pass is checked against.

Run from the repository root, on the commit whose verdicts are the reference:

    python3 benchmark/record_references.py

For each workload it runs one untimed pass, which covers every valid
poly_choice, in a fresh process and stores the outputs in
benchmark/references.json, keyed by poly_choice: for the verify
workloads every report JSON with its ``seconds`` fields removed, for the
construct workload the SHA-256, size and flag count of the serialized file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import child_env
from worker import POLY_CHOICES, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = HERE.parent
    refs: dict = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "record", workload, str(POLY_CHOICES[0])],
            cwd=root, env=child_env(root), capture_output=True, text=True, check=True,
        )
        refs[workload] = json.loads(proc.stdout.splitlines()[-1])
        print(f"recorded {workload}")
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
