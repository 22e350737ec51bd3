"""Run one rackalg CLI command like `python -m rackalg.cli`, then report
on the last stderr line when this script started, when `rackalg.cli` was
imported and when `main` returned.

The times come from `time.perf_counter`, which on Linux reads
CLOCK_MONOTONIC, so the parent process can compare them with its own.

    PYTHONPATH=src python3 perfbench/cliprobe.py rack props --rack o24
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import rackalg.cli  # noqa: E402

IMPORTED = time.perf_counter()
code = rackalg.cli.main(sys.argv[1:])
sys.stdout.flush()
DONE = time.perf_counter()
record = {"started": STARTED, "imported": IMPORTED, "done": DONE}
sys.stderr.write("perfbench-probe %s\n" % json.dumps(record))
raise SystemExit(code)
