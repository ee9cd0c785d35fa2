"""Start-up hook of every child the benchmark spawns (this directory is on
the children's PYTHONPATH): at exit, write the process's own peak resident
set size to stderr.

A child's ``ru_maxrss`` from ``wait4`` or ``RUSAGE_CHILDREN`` also counts
the memory of the process it was spawned from, so the benchmark reads the
peak here instead: ``VmHWM`` belongs to the address space created at exec.
"""

import atexit
import os

PEAK_TAG = "perfbench-peak-rss-kb"


def _report_peak():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                os.write(2, f"\n{PEAK_TAG} {line.split()[1]}\n".encode())


atexit.register(_report_peak)
