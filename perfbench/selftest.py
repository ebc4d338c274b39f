"""The benchmark's own test: behaviour must not depend on the hash seed.

Runs each workload's first pass under ``PYTHONHASHSEED`` 1 and 2 and
requires identical behaviour digests and simulated statistics; for the
default seed it also compares the digest with ``baseline.json``.  Exits
non-zero on any difference.  Run from the root of a checkout::

    python3 perfbench/selftest.py [workload ...]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIMULATED = ("digest", "fail_share", "sim_campaign_s.p50", "bus_frames_per_campaign.p50")


def first_pass(workload: str, seed: int, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        env=env, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run failed under PYTHONHASHSEED={hash_seed}:\n{done.stderr}")
    details = json.loads(done.stdout.splitlines()[-2])
    return {key: details.get(key) for key in SIMULATED}


def main(argv: list[str]) -> int:
    baseline = json.loads((HERE / "baseline.json").read_text())
    seed = baseline["default_seed"]
    failures = 0
    for workload in argv or baseline["digests"]:
        runs = [first_pass(workload, seed, hash_seed) for hash_seed in (1, 2)]
        recorded = baseline["digests"][workload][str(seed)]
        same = runs[0] == runs[1]
        matches = runs[0]["digest"] == recorded
        print(f"{workload}: PYTHONHASHSEED 1 vs 2 {'identical' if same else 'DIFFER'}; "
              f"digest {runs[0]['digest']} {'matches' if matches else 'DIFFERS from'} baseline")
        failures += (not same) + (not matches)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
