"""Time a cold start in a fresh interpreter and print it as JSON.

    python3 probe.py setup <workload> <seed>   import plus the workload's set-up
    python3 probe.py import                    import catscan.cli alone

Both print ``{"seconds": ..., "origin": <path of the imported catscan>}``.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
if sys.argv[1] == "setup":
    import workloads

    workload = workloads.WORKLOADS[sys.argv[2]]
    workload.setup(int(sys.argv[3]), workloads.ROOT / ".bench_out" / "probe")
else:
    import catscan.cli  # noqa: F401
seconds = time.perf_counter() - start

import catscan  # noqa: E402  (already loaded; only its path is read)

print(json.dumps({"seconds": seconds, "origin": catscan.__file__}))
