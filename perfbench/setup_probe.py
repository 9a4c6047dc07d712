"""One set-up sample: import hypcurv and load the given surface descriptors.

Run as ``python3 setup_probe.py SRC_DIR DESCRIPTOR...``; prints the seconds taken,
measured from before the first import to after the last descriptor is loaded.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
from hypcurv import cli  # noqa: E402,F401  (imports every layer)
from hypcurv.heightfield import field_from_json  # noqa: E402

for path in sys.argv[2:]:
    field_from_json(path)
print(repr(time.perf_counter() - T0))
