"""Peak resident memory of CLI processes, measured from a small parent.

A child's ru_maxrss starts from its parent's high-water mark, because
the memory map is inherited up to exec. The benchmark process holds
numpy and the inputs, so its children would report its size rather
than their own. This launcher imports nothing heavy: it runs each
command line given as JSON in argv[1] as `python -m hologroup ...`
and prints the largest peak resident set of those processes, in MB.
"""

import json
import resource
import subprocess
import sys

for argv in json.loads(sys.argv[1]):
    subprocess.run([sys.executable, "-m", "hologroup", *argv], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=120)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
