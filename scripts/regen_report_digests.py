#!/usr/bin/env python
"""Regenerate the golden digests of the canonical ``Jrpm.run`` reports.

Usage::

    python scripts/regen_report_digests.py

Rewrites ``tests/golden/report_digests.json``: one SHA-256 per registry
workload at ``size="small"``, of ``json.dumps(report, sort_keys=True)``
with ``config.engine`` removed.  Both engines — ``fast`` (predecoded
tables, event-driven TLS scheduler) and ``reference`` (the
``step_legacy`` dispatcher, stepwise TLS scheduler) — must produce that
same digest, so the manifest states fast == reference; the script
refuses to write a manifest where they differ.  A change that moves any
simulated number or any report field changes a digest.
``tests/test_golden_reports.py`` checks the manifest; a deliberate
report change regenerates it in the same commit, so the manifest diff
is the review surface.
"""

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "golden", "report_digests.json")
SIZE = "small"
ENGINES = ("fast", "reference")


def report_digest(name, engine):
    """SHA-256 of workload *name*'s canonical report under *engine*,
    without the ``config.engine`` field."""
    from repro.core.pipeline import Jrpm
    from repro.hydra.config import HydraConfig
    from repro.workloads import lookup
    jrpm = Jrpm(config=HydraConfig(engine=engine))
    return payload_digest(
        jrpm.run(lookup(name).source(SIZE), name=name).to_dict())


def payload_digest(payload):
    """SHA-256 of one report dict (``JrpmReport.to_dict()``) without
    its ``config.engine`` field; *payload* is modified."""
    del payload["config"]["engine"]
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load_manifest():
    with open(MANIFEST) as handle:
        return json.load(handle)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.workloads import names
    digests = {}
    for name in sorted(names()):
        fast, reference = (report_digest(name, engine)
                           for engine in ENGINES)
        if fast != reference:
            sys.exit("%s: fast and reference reports differ" % name)
        digests[name] = fast
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w") as handle:
        json.dump({"size": SIZE, "reports": digests}, handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    print("wrote %d digests to %s" % (len(digests), MANIFEST))


if __name__ == "__main__":
    main()
