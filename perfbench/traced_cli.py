"""Run the ``tquad`` CLI with the benchmark's layer timers installed.

Usage::

    python perfbench/traced_cli.py TRACE.json corpus verify ...

Behaves like ``python -m repro.cli corpus verify ...`` (same output, same
exit code) and additionally writes the per-layer trace of the run to
``TRACE.json``; the traced ``fleet-verify`` ops use it in place of the
plain CLI.
"""

import json
import sys
from pathlib import Path

import layers


def main() -> int:
    from repro import cli

    out, argv = sys.argv[1], sys.argv[2:]
    trace = layers.LayerTrace()
    code = layers.traced_op(trace, lambda: cli.main(argv))
    Path(out).write_text(json.dumps(trace.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
