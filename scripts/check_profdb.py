#!/usr/bin/env python
"""Validate a profile-DB payload produced by ``jrpm profdb export``.

Usage::

    python scripts/check_profdb.py profiles.json [more.json ...]
    jrpm profdb export | python scripts/check_profdb.py -
    python scripts/check_profdb.py --db benchmarks/.cache/profdb

Checks each payload (or stdin, for ``-``) against the
:func:`repro.profdb.validate_profdb_dict` schema gate; ``--db`` checks
every shard file of a live database (its directory) the same way, so
a shard of another schema, which the store reads as a miss, is
reported here, then exports it.  Exits non-zero and prints every
problem on stderr if anything is off.  Used by ``scripts/smoke.sh``
and CI.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.profdb import ProfileDb, validate_profdb_dict  # noqa: E402


def _load(path):
    """One JSON payload from *path* (stdin for ``-``)."""
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _shard_problems(path):
    """Problems of each shard file in the store directory *path*."""
    names = sorted(os.listdir(path)) if os.path.isdir(path) else []
    return ["%s: %s" % (name, problem)
            for name in names if name.endswith(".json")
            for problem in validate_profdb_dict(
                _load(os.path.join(path, name)))]


def check(path, live=False):
    try:
        if live:
            problems = _shard_problems(path)
            if problems:
                return problems
            data = ProfileDb(path).export()
        else:
            data = _load(path)
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
