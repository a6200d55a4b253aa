"""Time the benchmark's set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR WARMUPS_JSON

Set-up is the import of ``detmart.cli`` plus one tiny warm-up job per
command kind (the argv lists in WARMUPS_JSON).  Prints the seconds taken;
exits 1 if a warm-up job fails.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
import detmart.cli  # noqa: E402

with open(sys.argv[2], "r", encoding="utf-8") as fh:
    warmups = json.load(fh)
codes = [detmart.cli.main(argv) for argv in warmups]
elapsed = time.perf_counter() - start
print(repr(elapsed))
sys.exit(0 if not any(codes) else 1)
