"""Start ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 wallbench/launcher.py [serve options]``, with ``src`` on
``PYTHONPATH``.  It installs the wrappers of :mod:`tracer`, then calls the
same entry point as ``python -m repro serve``; the server code itself is
unchanged.  Only requests whose ``id`` starts with :data:`MEASURED_PREFIX`
(the benchmark's measured phase) are recorded.  After the server shuts
down, the span totals are printed as one ``TRACE <json>`` line on standard
output.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, install

#: request ids of the benchmark's measured phase start with this
MEASURED_PREFIX = "m"


def measured(request: dict) -> bool:
    return str(request.get("id", "")).startswith(MEASURED_PREFIX)


def main() -> int:
    tracer = Tracer()
    install(tracer, request_gate=measured)
    from repro.__main__ import main as repro_main

    code = repro_main(["serve", *sys.argv[1:]])
    print("TRACE " + json.dumps(tracer.totals()), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
