"""One fresh process's set-up cost, as a CLI run pays it.

    python3 perfbench/setup_probe.py <seed>

Times ``import carnot`` and ``workloads.setup``: descriptors built and
validated, field coefficients on fresh descriptors, registry functions and
plans.  numpy is imported before the clock starts: its import cost is the
same for every carnot version and only adds noise.  Prints
``{"setup_s": t}``.
"""

import json
import sys
import time
from pathlib import Path

import numpy  # noqa: F401

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
T0 = time.perf_counter()

import carnot  # noqa: E402,F401
import workloads  # noqa: E402

workloads.setup(int(sys.argv[1]))
print(json.dumps({"setup_s": time.perf_counter() - T0}))
