"""Makes the benchmark's modules and the program importable for its tests.

Run with ``python -m pytest perf/tests -q`` from the root of the repository.
"""

import os
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
for path in (os.path.join(ROOT, "src"), PERF):
    if path not in sys.path:
        sys.path.insert(0, path)
