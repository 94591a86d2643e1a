#!/usr/bin/env python
"""Validate an adaptation log JSON produced by ``jrpm run --adapt --json``.

Usage::

    python scripts/check_adapt_log.py adapt.json [more.json ...]
    jrpm run BitOps --adapt --json | python scripts/check_adapt_log.py -

Checks each file (or stdin, for ``-``) against the
:func:`repro.adapt.validate_log_dict` schema and the extra invariants
the CLI promises on top of the raw log: ``outputs_match`` must be true
and ``tls_speedup`` positive.  Exits non-zero and prints every problem
on stderr if anything is off.  Used by ``scripts/smoke.sh``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.adapt import validate_log_dict  # noqa: E402


def check(path):
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except (OSError, ValueError) as error:
        return ["unreadable JSON: %s" % error]
    problems = list(validate_log_dict(data))
    # CLI envelope invariants (only when the keys are present; the raw
    # AdaptationLog.to_dict() payload is also accepted)
    if "outputs_match" in data and data["outputs_match"] is not True:
        problems.append("outputs_match is %r, expected true"
                        % (data["outputs_match"],))
    if "tls_speedup" in data:
        speedup = data["tls_speedup"]
        if not isinstance(speedup, (int, float)) or speedup <= 0:
            problems.append("tls_speedup %r is not a positive number"
                            % (speedup,))
    if not problems:
        epochs = data.get("epochs", [])
        decisions = sum(1 for decision in data.get("decisions", [])
                        if decision.get("applied", True))
        print("%s: OK (%d epoch%s, %d applied decision%s, policy %s)"
              % (path, len(epochs), "" if len(epochs) == 1 else "s",
                 decisions, "" if decisions == 1 else "s",
                 data.get("policy", "?")))
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
