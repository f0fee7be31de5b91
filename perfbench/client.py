"""The benchmark's client process; ``run.py`` starts it and talks to it over
stdin and stdout.  See :func:`workloads.client_main`."""

import signal
import sys

import workloads

if __name__ == "__main__":
    # a terminated client unwinds, so subprocess.run kills any gfcalc child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(workloads.client_main())
