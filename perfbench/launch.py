"""Run a ``repro`` command with the benchmark's layer wrappers installed.

    python3 perfbench/launch.py SPANS.json LAYERS -- serve 127.0.0.1:0 ...

``LAYERS`` is a comma-separated subset of :data:`spans.LAYERS`.  The
launcher installs the wrappers (exiting non-zero if the program lacks
one of the wrapped calls), hands over to the real ``repro`` entry point
(``repro.cli.main``) and writes the wrapped call names and the recorded
spans to ``SPANS.json`` when the command returns: ``repro serve`` drains
and returns on SIGTERM.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, layers, command = argv[0], argv[1].split(","), argv[3:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer, install

    from repro.cli import main as repro_main

    tracer = Tracer()
    install(tracer, layers)
    try:
        return repro_main(command)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
