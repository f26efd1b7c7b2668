"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload>

Prints the seconds taken to import mpdec (and with it numpy), build the
workload's code and make its decoders.  `run.py` starts this several times
and reports the median as `setup_s`.
"""

import sys
import time

import env

env.pin_threads()
env.use_checkout_source()

start = time.perf_counter()
import mpdec  # noqa: E402,F401  (the import is what is being timed)
from workloads import WORKLOADS, set_up  # noqa: E402

set_up(WORKLOADS[sys.argv[1]])
print(repr(time.perf_counter() - start))
