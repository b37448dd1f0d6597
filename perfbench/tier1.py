"""One-shot wall time of each acceptance criterion (``run.py --tier1``).

Runs ``tests/test_acceptance.py`` once under pytest and reads pytest's own
per-phase durations.  A criterion's wall time is setup + call + teardown, so a
module-scoped Monte Carlo fixture is charged to the first criterion that uses
it.  The report is informational: it is neither a workload nor gated.
"""

import os
import re
import subprocess
import sys
import time

_DURATION = re.compile(r"^\s*([0-9.]+)s\s+(setup|call|teardown)\s+(\S+)")
_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR)\s+(\S+)")


def run(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-q", "-rA",
        "--durations=0", "--durations-min=0", "-p", "no:cacheprovider",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    tests = {}
    for line in proc.stdout.splitlines():
        m = _DURATION.match(line)
        if m:
            entry = tests.setdefault(m.group(3), {"wall_s": 0.0})
            entry[m.group(2) + "_s"] = float(m.group(1))
            entry["wall_s"] += float(m.group(1))
            continue
        m = _OUTCOME.match(line)
        if m:
            tests.setdefault(m.group(2), {"wall_s": 0.0})["outcome"] = m.group(1)
    for entry in tests.values():
        entry["wall_s"] = round(entry["wall_s"], 2)
    return {
        "command": " ".join(cmd[1:]),
        "returncode": proc.returncode,
        "wall_s": round(wall, 2),
        "summary": proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "",
        "tests": dict(sorted(tests.items())),
    }
