"""Set-up time of a fresh interpreter: import hyperpoly from the source
directory given first, then build every carrier named after it.

    python3 -I perfbench/setup_probe.py src K 'GF(1009)' ...

Prints the seconds from the start of this script to the last carrier.
"""
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hyperpoly  # noqa: E402

for name in sys.argv[2:]:
    hyperpoly.by_name(name)
print(time.perf_counter() - t0)
