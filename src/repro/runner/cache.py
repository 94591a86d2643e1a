"""Persistent content-addressed report cache.

A finished :class:`~repro.core.pipeline.JrpmReport` is a pure function
of

* the MiniJava **source text** of the workload variant,
* the program **arguments**,
* the full **configuration** (:class:`HydraConfig`, :class:`StlOptions`,
  :class:`VmOptions` — every field participates, so any sweep knob
  invalidates), and
* the **code version** of this package (a salt hashed over every
  ``repro/**/*.py`` so stale reports never survive a code change),

so warm re-runs can be served from disk in milliseconds instead of
re-simulating for seconds.  :func:`cache_key` hashes that material;
:func:`repro.service.jobs.job_fingerprint` — the one key every surface
uses — adds the verb, the report name and the result-affecting run
options.  Entries are JSON files named by the key, stored flat under
the cache root (default ``benchmarks/.cache/``); the
:class:`~repro.service.store.ArtifactStore` is their only writer.

Writes are atomic (tempfile + rename) so concurrent workers, suites
and daemons can share one cache directory; corrupt or truncated entries
read as misses and are discarded.
"""

import hashlib
import json
import os
import tempfile

from ..metrics import get_registry
from ..serialize import REPORT_SCHEMA_VERSION

#: bump to invalidate every existing cache entry on *key-layout*
#: changes (5: one key for every surface, ``job_fingerprint``, with the
#: report name as key material; one payload shape, written by
#: ``ArtifactStore.put``).
#: The *report-payload* layout is keyed separately via
#: :data:`repro.serialize.REPORT_SCHEMA_VERSION`, so a report-schema
#: bump invalidates entries without touching this constant.
CACHE_FORMAT = 5

_CODE_FINGERPRINT = None


def code_fingerprint():
    """SHA-256 over the source text of every module in the ``repro``
    package (memoized per process).  Serves as the cache-key salt: a
    report produced by different code never collides with the current
    version."""
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro
        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def default_cache_dir():
    """``$JRPM_CACHE_DIR`` or ``benchmarks/.cache`` next to the package
    (falls back to ``./benchmarks/.cache`` outside a checkout)."""
    env = os.environ.get("JRPM_CACHE_DIR")
    if env:
        return env
    package_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))              # .../src/repro
    repo_root = os.path.dirname(os.path.dirname(package_dir))
    candidate = os.path.join(repo_root, "benchmarks")
    if os.path.isdir(candidate):
        return os.path.join(candidate, ".cache")
    return os.path.join(os.getcwd(), "benchmarks", ".cache")


def atomic_write(path, text):
    """Publish *text* as the file *path*: write a tempfile in the same
    directory, then ``os.replace`` it into place, so a reader opens
    either the previous file or the complete new one; the tempfile is
    removed if anything fails.  The report cache and the profile DB's
    shards are written this way."""
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path),
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def options_fingerprint(config, stl_options, vm_options):
    """Canonical JSON of the three option objects."""
    return json.dumps(
        {"config": config.to_dict(),
         "stl": stl_options.to_dict(),
         "vm": vm_options.to_dict()},
        sort_keys=True, separators=(",", ":"))


def cache_key(source, args, options, salt=None, extra=None):
    """Content-addressed key for one pipeline run.

    *options* is the :func:`options_fingerprint` JSON of the run's
    three option objects (a caller keying many runs under one options
    value computes it once).  *extra* is an optional JSON-safe dict of
    additional key material (e.g. ``{"trace": True}`` for traced runs,
    whose reports carry trace aggregates and must not collide with
    untraced ones).  ``None`` keeps keys identical to pre-*extra*
    versions of this function.

    The executing engine (``HydraConfig.engine``) is key material
    through *options* (``config.to_dict()``): the two engines are
    cycle-identical by construction, but a report produced by one must
    never be served as evidence about the other — ``--engine
    reference`` comparisons rely on both runs really happening.
    """
    key_material = {
        "format": CACHE_FORMAT,
        "schema": REPORT_SCHEMA_VERSION,
        "source": hashlib.sha256(source.encode()).hexdigest(),
        "args": list(args),
        "options": options,
        "code": salt if salt is not None else code_fingerprint()}
    if extra:
        key_material["extra"] = extra
    material = json.dumps(key_material, sort_keys=True,
                          separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()


class ReportCache:
    """On-disk JSON store of report payload dicts, keyed by hex digest."""

    def __init__(self, root):
        self.root = root

    def path_for(self, key):
        return os.path.join(self.root, key + ".json")

    def get(self, key):
        """Payload dict for *key*, or None.  Corrupt entries are
        removed and read as misses."""
        path = self.path_for(key)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self._count(hit=False)
            return None
        except (OSError, ValueError):
            try:
                os.unlink(path)
            except OSError:
                pass
            self._count(hit=False)
            return None
        self._count(hit=True)
        return payload

    def _count(self, hit):
        """Count the hit/miss in ``jrpm_report_cache_lookups``."""
        get_registry().counter(
            "jrpm_report_cache_lookups",
            "Persistent report-cache lookups by outcome",
            labels=("outcome",)).labels(
                outcome="hit" if hit else "miss").inc()

    def put(self, key, payload):
        """Atomically persist *payload* (safe for concurrent
        writers)."""
        os.makedirs(self.root, exist_ok=True)
        atomic_write(self.path_for(key),
                     json.dumps(payload, separators=(",", ":")))
