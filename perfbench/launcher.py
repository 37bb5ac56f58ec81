"""Run ``airfinger serve`` in this process with span recording installed.

Usage: ``python3 perfbench/launcher.py --trace-out PATH serve ARGS...``

The spans of :mod:`spans` are installed before the CLI builds the
server, so every wrapped call inside the serving process is recorded;
``SIGUSR1`` clears what was recorded so far (the warm-up), and the
rest is written to ``PATH`` when the server stops (``SIGINT``).
Untraced runs start ``python3 -m repro.cli serve`` directly instead.
"""

from __future__ import annotations

import signal
import sys

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    recorder = spans.SpanRecorder()
    spans.install(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.clear())
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        recorder.dump(argv[1])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
