"""The factlog process: ``python -m factlog`` and the ``factlog`` command.

A run is one short process, so it keeps the cyclic garbage collector out:
the collector is off from the first import of factlog to the exit, and
what is still alive at the end is frozen (``gc.freeze``), so the full
collection the interpreter makes as it exits has nothing to examine.
In-process callers use ``cli.main``, which turns the collector off only
while the command runs and then gives back the state it found.
"""

import gc
import sys


def run() -> int:
    """Run the command ``sys.argv`` names and return its exit code."""
    gc.disable()
    from .cli import main

    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
