"""Time System.open in a fresh process, as a service start or a CLI query pays it.

    PYTHONPATH=src python3 e2ebench/open_probe.py STORE_ROOT

Opens the store once, closes it, and prints the seconds the open took.
Only the first open of a process is timed: later ones in the same process
would find the program's modules imported and its code paths warm.
"""

import sys
import time

from georace import System


def main() -> None:
    t0 = time.perf_counter()
    system = System.open(sys.argv[1])
    elapsed = time.perf_counter() - t0
    system.close()
    print(elapsed)


if __name__ == "__main__":
    main()
