"""Run the cogarq CLI and note when its first sweep point starts.

Usage: python3 launch.py MARKER [--setup-only] CONFIG [CLI OPTIONS...]

The CLI runs unchanged in this process; the only addition is that the
first call of `cli._sweep_point` writes the CLOCK_MONOTONIC time (which
the parent process shares) to MARKER.  With --setup-only the process exits
right there, so a run can measure set-up several times for little cost.
"""

import os
import sys
import time


def main(argv: list[str]) -> int:
    marker, rest = argv[0], argv[1:]
    setup_only = rest[:1] == ["--setup-only"]
    if setup_only:
        rest = rest[1:]

    from cogarq import cli

    inner = cli._sweep_point
    seen = []

    def sweep_point(*args, **kwargs):
        if not seen:
            seen.append(True)
            with open(marker, "w") as fh:
                fh.write(repr(time.monotonic()))
            if setup_only:
                os._exit(0)
        return inner(*args, **kwargs)

    cli._sweep_point = sweep_point
    return cli.main(rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
