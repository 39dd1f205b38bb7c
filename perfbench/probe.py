"""Cold-start probe: import treecount and run one op; print the CPU seconds
taken, then the CPU seconds of the reference load in this process.

Run from the checkout root with ``src`` on ``PYTHONPATH``; the op is the
JSON-encoded argv list given as the only argument.
"""

import io
import json
import statistics
import sys
import time

import calibrate

t0 = time.thread_time()
from treecount import cli  # noqa: E402

cli.main(json.loads(sys.argv[1]), stdin=io.StringIO(), stdout=io.StringIO(),
         stderr=io.StringIO())
setup_s = time.thread_time() - t0
print(repr(setup_s), repr(statistics.median(calibrate.seconds() for _ in range(3))))
