#!/usr/bin/env python
"""Validate a static-analysis JSON produced by ``jrpm analyze --json``.

Usage::

    python scripts/check_analysis_report.py analysis.json [more.json ...]
    jrpm analyze BitOps --json | python scripts/check_analysis_report.py -

Accepts two inputs: the ``jrpm analyze --json`` output (``name``,
``analysis``, ``loops``, ``selected``) or a bare
``AnalysisReport.to_dict()`` payload.  Anything else — a pipeline
report's JSON, whose ``analysis`` is always null, included — fails
with a one-line diagnostic.  Checks the analysis against the
:func:`repro.analysis.validate_analysis_dict` schema, and the
``jrpm analyze --json`` output also against the soundness invariant
the CLI promises on top: no loop may be both statically pruned and
dynamically selected.  Exits non-zero and prints every problem on
stderr if anything is off.  Used by ``scripts/smoke.sh`` and CI.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.analysis import validate_analysis_dict  # noqa: E402

#: the keys of ``jrpm analyze --json`` output
ENVELOPE_KEYS = {"name", "analysis", "loops", "selected"}


def check(path):
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except (OSError, ValueError) as error:
        return ["unreadable JSON: %s" % error]
    if (isinstance(data, dict) and set(data) == ENVELOPE_KEYS
            and isinstance(data["analysis"], dict)):
        analysis, agreement = data["analysis"], data["loops"]
    elif isinstance(data, dict) and "methods_analyzed" in data:
        analysis, agreement = data, []
    else:
        return ["not `jrpm analyze --json` output or a bare "
                "AnalysisReport.to_dict() payload (run `jrpm analyze "
                "NAME --json`)"]
    problems = list(validate_analysis_dict(analysis))
    # the CLI's per-loop agreement list: static pruning must never
    # remove a selector-committed loop
    unsound = [loop for loop in agreement
               if isinstance(loop, dict)
               and loop.get("pruned") and loop.get("selected")]
    for loop in unsound:
        problems.append(
            "loop %s#%s is both statically pruned and dynamically "
            "selected — analyzer soundness violation"
            % (loop.get("method"), loop.get("ordinal")))
    if not problems:
        counts = analysis.get("counts", {})
        loops = analysis.get("loops", [])
        pruned = sum(1 for loop in loops if loop.get("pruned"))
        print("%s: OK (%d loop%s; absent %d / may %d / must %d; "
              "%d pruned)"
              % (path, len(loops), "" if len(loops) == 1 else "s",
                 counts.get("absent", 0), counts.get("may", 0),
                 counts.get("must", 0), pruned))
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
