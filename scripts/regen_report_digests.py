#!/usr/bin/env python
"""Regenerate the golden digests of the canonical ``Jrpm.run`` reports.

Usage::

    python scripts/regen_report_digests.py

Rewrites ``tests/golden/report_digests.json``: the SHA-256 of
``json.dumps(report.to_dict(), sort_keys=True)`` for every registry
workload at ``size="small"``, once per engine: ``fast``
(``HydraConfig()``) and ``reference`` (``HydraConfig(fastpath=False)``,
the ``step_legacy`` dispatcher and the stepwise TLS scheduler).  A
change that moves any simulated number or any report field changes a
digest.  ``tests/test_golden_reports.py`` checks the manifest; a
deliberate report change regenerates it in the same commit, so the
manifest diff is the review surface.
"""

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "golden", "report_digests.json")
SIZE = "small"
ENGINES = {"fast": {}, "reference": {"fastpath": False}}


def report_digest(name, engine):
    """SHA-256 of workload *name*'s canonical report under *engine*."""
    from repro.core.pipeline import Jrpm
    from repro.hydra.config import HydraConfig
    from repro.workloads import lookup
    jrpm = Jrpm(config=HydraConfig(**ENGINES[engine]))
    report = jrpm.run(lookup(name).source(SIZE), name=name)
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load_manifest():
    with open(MANIFEST) as handle:
        return json.load(handle)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.workloads import names
    digests = {engine: {name: report_digest(name, engine)
                        for name in sorted(names())}
               for engine in sorted(ENGINES)}
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w") as handle:
        json.dump({"size": SIZE, "reports": digests}, handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    print("wrote %d digests to %s"
          % (sum(map(len, digests.values())), MANIFEST))


if __name__ == "__main__":
    main()
