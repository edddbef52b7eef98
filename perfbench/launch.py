"""Run the bjjsense CLI and record the CPU time its start-up took.

    python3 perfbench/launch.py STARTUP_FILE COMMAND [CLI ARGS...]

Runs what ``python -m bjjsense.cli COMMAND ...`` runs, and writes to
STARTUP_FILE the process's CPU seconds at the moment the CLI's ``main`` is
entered (interpreter start plus imports).  The CPU time spent past start-up
is then the whole process's CPU time minus this, both from one process.
The exit code is the CLI's.
"""

from __future__ import annotations

import sys
import time

from bjjsense import cli


def main(argv: list[str]) -> int:
    startup_path, cli_args = argv[0], argv[1:]
    with open(startup_path, "w", encoding="utf-8") as fh:
        fh.write(repr(time.process_time()))
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
