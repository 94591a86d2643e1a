#!/usr/bin/env python
"""Validate a profile-DB payload produced by ``jrpm profdb export``.

Usage::

    python scripts/check_profdb.py profiles.json [more.json ...]
    jrpm profdb export | python scripts/check_profdb.py -
    python scripts/check_profdb.py --db benchmarks/.cache/profdb

Checks each payload (or stdin, for ``-``) against the
:func:`repro.profdb.validate_profdb_dict` schema gate; ``--db`` exports
a live database (its shard directory) first, which also exercises the
corrupt-tolerant reader.  Exits non-zero and prints every problem on stderr if anything
is off.  Used by ``scripts/smoke.sh`` and CI.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.profdb import ProfileDb, validate_profdb_dict  # noqa: E402


def check(path, live=False):
    try:
        if live:
            data = ProfileDb(path).export()
        elif path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except (OSError, ValueError) as error:
        return ["unreadable JSON: %s" % error]
    problems = validate_profdb_dict(data)
    if not problems:
        programs = data.get("programs", {})
        inputs = sum(len(entry.get("inputs", {}))
                     for entry in programs.values())
        runs = sum(entry.get("runs", 0) for entry in programs.values())
        print("%s: OK (schema %s, %d program%s, %d input%s, %d run%s)"
              % (path, data.get("schema"),
                 len(programs), "" if len(programs) == 1 else "s",
                 inputs, "" if inputs == 1 else "s",
                 runs, "" if runs == 1 else "s"))
    return problems


def main(argv):
    live = False
    if argv and argv[0] == "--db":
        live = True
        argv = argv[1:]
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        for problem in check(path, live=live):
            print("%s: %s" % (path, problem), file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
