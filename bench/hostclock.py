"""Host-speed sampler: times a fixed pure-Python loop five times a second.

    python3 bench/hostclock.py OUT_FILE

Appends one line per pass to OUT_FILE, ``<time.monotonic() at the end>
<CPU seconds of the pass>``, until it is terminated.  ``run.py`` runs it beside
the CLI calls of a ``--trace 0`` run and divides each call's times by the mean
pass time seen while that call ran.  On a shared host the clock speed changes
by up to 40% from one minute to the next; the quotient does not.  CPU seconds,
not wall seconds, so that a pass that waits for a CPU does not read as slow.
"""

import sys
import time

LOOP = 100_000  # about 10 ms on a 2.1 GHz Xeon
PERIOD_S = 0.2  # one pass per period: about 5% of one CPU


def one_pass():
    start = time.process_time()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return time.process_time() - start


def main(path):
    with open(path, "a", encoding="ascii", buffering=1) as out:
        while True:
            spent = one_pass()
            out.write(f"{time.monotonic()!r} {spent!r}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
