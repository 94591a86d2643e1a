"""Typed records for the persistent profile repository.

Three nested layers, mirroring how profiles are keyed:

* :class:`ProgramProfile` — one entry per *program shape* (the
  workload name plus the qualified method names), holding a dict of
  inputs;
* :class:`InputProfile` — one exact record per (exact program
  fingerprint, args, options fingerprint) triple: the stored sequential
  and TEST measurements, annotation count, dynamic nesting, the
  per-loop statistics, the selected plan sites and the run counters;
  the next cold run of the same input replaces it;
* :class:`LoopProfile` — one entry per loop site: the
  :class:`~repro.tracer.stats.LoopStats` payload (dependence arcs,
  thread sizes, speculative buffer footprints), the selector's
  :class:`~repro.tracer.selector.Prediction`, TLS-run buffer high-water
  marks, and accumulated adaptation outcomes (decommit / escalation
  counts written back from :class:`~repro.adapt.log.AdaptationLog`).

All three round-trip losslessly through ``to_dict``/``from_dict`` and a
whole database payload is gated by :func:`validate_profdb_dict`, in the
same style as ``repro.adapt.log.validate_log_dict`` and friends.
"""

#: Bump when the stored payload shape changes.  A shard of any other
#: schema is a miss (:func:`schema_problem`); the next record of its
#: program replaces it.
PROFDB_SCHEMA_VERSION = 2

#: Report provenance values (``JrpmReport.profile_provenance``).
PROVENANCE_COLD = "cold"          # full TEST profiling ran
PROVENANCE_WARM = "warm"          # profiling skipped, stats from the DB
PROVENANCE_CONFIRMED = "confirmed"  # full profiling ran AND reproduced
                                    # the stored record's plan
PROVENANCES = (PROVENANCE_COLD, PROVENANCE_WARM, PROVENANCE_CONFIRMED)


def site_key(method_name, ordinal):
    """Stable string key for a loop site: ``"Method.name#ordinal"``.

    Loop ids are deterministic for one compile but are not meaningful
    across program edits; (method, ordinal) names the site across
    re-records of one input.
    """
    return "%s#%d" % (method_name, ordinal)


def split_site_key(key):
    """Inverse of :func:`site_key` → ``(method_name, ordinal)``."""
    method_name, _, ordinal = key.rpartition("#")
    return method_name, int(ordinal)


class LoopProfile:
    """Stored profile of one loop site within one input."""

    __slots__ = ("loop_id", "line", "stats", "prediction", "selected",
                 "max_load_lines", "max_store_lines", "decommits",
                 "escalations")

    def __init__(self, loop_id, line, stats, prediction=None,
                 selected=False, max_load_lines=0, max_store_lines=0,
                 decommits=0, escalations=0):
        #: loop id from the deterministic annotating compile
        self.loop_id = loop_id
        #: source line of the loop header
        self.line = line
        #: ``LoopStats.to_dict()`` payload (arcs and all)
        self.stats = stats
        #: ``Prediction.to_dict()`` payload or None if never predicted
        self.prediction = prediction
        #: True if the selector picked this loop on the last cold run
        self.selected = selected
        #: speculative-buffer high-water marks from real TLS runs (the
        #: max over every run of this input, cold and warm)
        self.max_load_lines = max_load_lines
        self.max_store_lines = max_store_lines
        #: adaptation outcomes written back from ``AdaptationLog``,
        #: summed over this input's cold runs
        self.decommits = decommits
        self.escalations = escalations

    def to_dict(self):
        """Lossless JSON-able payload."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`."""
        return cls(**{slot: data[slot] for slot in cls.__slots__})


class InputProfile:
    """The stored record for one (program, args, options) input."""

    __slots__ = ("runs", "warm_runs", "updated", "args", "options",
                 "sequential", "profiling", "compile_cycles",
                 "annotations", "loops", "nesting", "max_dynamic_depth",
                 "plan_sites", "tls_cycles")

    def __init__(self, runs=0, warm_runs=0, updated=0.0, args=(),
                 options="", sequential=None, profiling=None,
                 compile_cycles=0, annotations=0,
                 loops=None, nesting=(), max_dynamic_depth=1,
                 plan_sites=(), tls_cycles=0.0):
        #: cold runs recorded for this input / warm-start hits served
        self.runs = runs
        self.warm_runs = warm_runs
        #: unix timestamp of the last write (GC eviction order)
        self.updated = updated
        #: guest argv and options fingerprint this input was keyed by
        self.args = list(args)
        self.options = options
        #: stored ``RunMeasurement.to_dict()`` payloads
        self.sequential = sequential
        self.profiling = profiling
        self.compile_cycles = compile_cycles
        self.annotations = annotations
        #: {site_key: LoopProfile}, in profiler discovery order
        self.loops = {} if loops is None else loops
        #: dynamic nesting pairs as [outer_loop_id, inner_loop_id]
        self.nesting = [list(pair) for pair in nesting]
        self.max_dynamic_depth = max_dynamic_depth
        #: site keys of the loops the selector picked (sorted)
        self.plan_sites = list(plan_sites)
        #: TLS cycles of the last cold run (amortization reporting)
        self.tls_cycles = tls_cycles

    def to_dict(self):
        """Lossless JSON-able payload."""
        data = {slot: getattr(self, slot) for slot in self.__slots__
                if slot != "loops"}
        data["loops"] = {key: loop.to_dict()
                         for key, loop in self.loops.items()}
        return data

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`."""
        kwargs = {slot: data[slot] for slot in cls.__slots__
                  if slot != "loops"}
        kwargs["loops"] = {key: LoopProfile.from_dict(loop)
                           for key, loop in data["loops"].items()}
        return cls(**kwargs)


class ProgramProfile:
    """All stored knowledge about one program shape."""

    __slots__ = ("name", "runs", "updated", "inputs")

    def __init__(self, name="program", runs=0, updated=0.0, inputs=None):
        #: last name the program was run under (informational)
        self.name = name
        #: total cold runs recorded against this program
        self.runs = runs
        self.updated = updated
        #: {input_key: InputProfile}
        self.inputs = {} if inputs is None else inputs

    def to_dict(self):
        """Lossless JSON-able payload."""
        return {"name": self.name, "runs": self.runs,
                "updated": self.updated,
                "inputs": {key: entry.to_dict()
                           for key, entry in self.inputs.items()}}

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`."""
        return cls(name=data["name"], runs=data["runs"],
                   updated=data["updated"],
                   inputs={key: InputProfile.from_dict(entry)
                           for key, entry in data["inputs"].items()})


def schema_problem(schema):
    """Why a payload's ``schema`` value is unreadable, or ``None``.

    The one rule shared by the shard reader (a problem is a miss) and
    :func:`validate_profdb_dict` (a problem is reported): only
    :data:`PROFDB_SCHEMA_VERSION` is readable, older and newer alike
    are not.
    """
    if not isinstance(schema, int):
        return "'schema' is not an integer"
    if schema != PROFDB_SCHEMA_VERSION:
        return "schema %d is not the current %d" % (
            schema, PROFDB_SCHEMA_VERSION)
    return None


def _check_number(problems, data, key, where, optional=False):
    """Append a problem string unless ``data[key]`` is a plain number."""
    if key not in data:
        if not optional:
            problems.append("%s: missing %r" % (where, key))
        return
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append("%s: %r is not a number (%r)" % (where, key, value))


def _check_loop(problems, data, where):
    """Validate one serialized :class:`LoopProfile`."""
    if not isinstance(data, dict):
        problems.append("%s: not an object" % where)
        return
    for key in ("loop_id", "line", "max_load_lines", "max_store_lines",
                "decommits", "escalations"):
        _check_number(problems, data, key, where)
    stats = data.get("stats")
    if not isinstance(stats, dict):
        problems.append("%s: 'stats' is not an object" % where)
    else:
        for key in ("loop_id", "entries", "threads", "total_thread_cycles"):
            _check_number(problems, stats, key, where + ".stats")
        if not isinstance(stats.get("arcs"), list):
            problems.append("%s.stats: 'arcs' is not a list" % where)
    prediction = data.get("prediction")
    if prediction is not None and not isinstance(prediction, dict):
        problems.append("%s: 'prediction' is neither null nor an object"
                        % where)


def _check_input(problems, data, where):
    """Validate one serialized :class:`InputProfile`."""
    if not isinstance(data, dict):
        problems.append("%s: not an object" % where)
        return
    for key in ("runs", "warm_runs", "updated", "compile_cycles",
                "annotations", "max_dynamic_depth", "tls_cycles"):
        _check_number(problems, data, key, where)
    if not isinstance(data.get("args"), list):
        problems.append("%s: 'args' is not a list" % where)
    if not isinstance(data.get("options"), str):
        problems.append("%s: 'options' is not a string" % where)
    for key in ("sequential", "profiling"):
        measurement = data.get(key)
        if measurement is None:
            problems.append("%s: missing %r measurement" % (where, key))
        elif not isinstance(measurement, dict):
            problems.append("%s: %r is not an object" % (where, key))
        else:
            _check_number(problems, measurement, "cycles",
                          "%s.%s" % (where, key))
    if not isinstance(data.get("nesting"), list):
        problems.append("%s: 'nesting' is not a list" % where)
    if not isinstance(data.get("plan_sites"), list):
        problems.append("%s: 'plan_sites' is not a list" % where)
    loops = data.get("loops")
    if not isinstance(loops, dict):
        problems.append("%s: 'loops' is not an object" % where)
        return
    for key, loop in loops.items():
        _check_loop(problems, loop, "%s.loops[%s]" % (where, key))


def validate_profdb_dict(data):
    """Validate a whole serialized profile database.

    Returns a list of human-readable problem strings; an empty list
    means the payload is well-formed.  Shape-only (like the trace and
    adapt-log validators): values are checked for type,
    not plausibility.
    """
    problems = []
    if not isinstance(data, dict):
        return ["top level: not an object"]
    problem = schema_problem(data.get("schema"))
    if problem is not None:
        problems.append("top level: " + problem)
    programs = data.get("programs")
    if not isinstance(programs, dict):
        problems.append("top level: 'programs' is not an object")
        return problems
    for program_key, program in programs.items():
        where = "programs[%s]" % program_key[:12]
        if not isinstance(program, dict):
            problems.append("%s: not an object" % where)
            continue
        if not isinstance(program.get("name"), str):
            problems.append("%s: 'name' is not a string" % where)
        for key in ("runs", "updated"):
            _check_number(problems, program, key, where)
        inputs = program.get("inputs")
        if not isinstance(inputs, dict):
            problems.append("%s: 'inputs' is not an object" % where)
            continue
        for input_key, entry in inputs.items():
            _check_input(problems, entry,
                         "%s.inputs[%s]" % (where, input_key[:12]))
    return problems
