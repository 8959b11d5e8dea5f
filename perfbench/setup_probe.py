"""Time qrr's start-up in a fresh interpreter, for run.py's ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD

Its first work is to import qrr and qrr.cli from src/ of this checkout,
before any module of the benchmark loads, so the standard-library
modules qrr needs are in the figure.  It then runs the workload's warm-up
ops (timing only qrr's work), then times the reference work
(reference.py) three times, and prints one JSON line:
``{"setup_s": import + warm-up seconds, "reference_s": median reference
seconds}``.  The warm-up ops are checked by run.py, which runs them too.
"""

import os
import sys
from time import perf_counter

t0 = perf_counter()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
import qrr  # noqa: E402
import qrr.cli  # noqa: E402

imported = perf_counter() - t0

import json  # noqa: E402
import statistics  # noqa: E402

import reference  # noqa: E402
from workloads import WORKLOADS, call  # noqa: E402

if os.path.dirname(os.path.abspath(qrr.__file__)) != os.path.join(SRC, "qrr"):
    sys.exit("setup_probe: imported qrr from %s, not %s" % (qrr.__file__, SRC))
warm = sum(call(qrr, op)[0] for op in WORKLOADS[sys.argv[1]].warmup)
ref = statistics.median(reference.measure() for _ in range(3))
print(json.dumps({"setup_s": imported + warm, "reference_s": ref}))
