#!/usr/bin/env python
"""Validate a Chrome trace-event JSON produced by ``jrpm run --trace-out``.

Usage::

    python scripts/check_trace_schema.py trace.json [more.json ...]

Exits non-zero (and prints every problem) if any file is not a valid
Perfetto/chrome://tracing-loadable trace as ``repro.trace`` defines it.
Used by ``scripts/smoke.sh``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.trace import validate_chrome_trace  # noqa: E402


def check(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as error:
        return ["unreadable JSON: %s" % error]
    problems = validate_chrome_trace(data)
    if not problems:
        events = data.get("traceEvents", [])
        spans = sum(1 for event in events if event.get("ph") == "X")
        print("%s: OK (%d events, %d spans)"
              % (path, len(events), spans))
    return problems


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        for problem in check(path):
            print("%s: %s" % (path, problem), file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
