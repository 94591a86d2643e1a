"""Typed results of the static dependence analysis.

Three layers, mirroring the dynamic side's report model:

* :class:`Dependence` — one predicted loop-carried RAW arc (or a proven
  absence), classified on the ``absent < may < must`` lattice;
* :class:`LoopAnalysis` — everything the analyzer concluded about one
  natural loop: carried-local kinds, dependences, the whole-loop
  classification and the speedup bound its must-dependences allow;
* :class:`AnalysisReport` — the per-program bundle the ``analyze``
  service verb and ``jrpm analyze`` return.

After a TEST profiling run, :meth:`AnalysisReport.cross_check` diffs
every loop's predicted arcs against the profiler's observed RAW arcs
(:class:`~repro.tracer.stats.LoopStats.arcs`), recording per-loop
``confirmed`` / ``unobserved`` / ``missed`` agreement — the static
vs. dynamic comparison in ``docs/analysis.md``.
"""

# Carried-local kinds are the annotator's (repro.jit.patterns): a local
# classified as anything but ``general`` produces no inter-thread
# communication after STL recompilation, hence no dependence arcs.
from ..jit.patterns import (KIND_GENERAL, KIND_INDUCTOR, KIND_REDUCTION,
                            KIND_RESETABLE)
from ..serialize import site_to_jsonable

#: Classification lattice for carried dependences (weakest first).
ABSENT = "absent"
MAY = "may"
MUST = "must"

#: Lattice order used to fold per-dependence verdicts into a per-loop
#: verdict (the strongest classification wins).
LATTICE = (ABSENT, MAY, MUST)


def strongest(classifications):
    """Fold a set of lattice values into the strongest one."""
    best = ABSENT
    for value in classifications:
        if LATTICE.index(value) > LATTICE.index(best):
            best = value
    return best


class Dependence:
    """One predicted loop-carried RAW dependence (or proven absence).

    ``kind`` says what carries the value: ``local`` (a frame slot),
    ``static`` (a static field), ``field`` (an instance field through a
    loop-invariant base) or ``array`` (an element through a
    loop-invariant base).  ``store_line``/``load_line`` anchor the arc
    to source lines — the same identity the TEST profiler's arc sites
    carry — and ``distance`` is the iteration distance when statically
    known (``1`` for scalar recurrences, ``d`` for ``a[i] <- a[i-d]``).
    ``store_pc``/``load_pc`` index the method's plain-compiled IR.
    """

    __slots__ = ("kind", "classification", "target", "store_pc",
                 "load_pc", "store_line", "load_line", "distance",
                 "local", "reason")

    def __init__(self, kind, classification, target, store_pc=None,
                 load_pc=None, store_line=None, load_line=None,
                 distance=None, local=None, reason=""):
        self.kind = kind
        self.classification = classification
        self.target = target            # human-readable, e.g. "Main.total"
        self.store_pc = store_pc
        self.load_pc = load_pc
        self.store_line = store_line
        self.load_line = load_line
        self.distance = distance
        self.local = local              # bytecode local index (kind local)
        self.reason = reason

    def __repr__(self):
        return "<Dependence %s %s %s>" % (self.kind, self.classification,
                                          self.target)

    def to_dict(self):
        """JSON-safe dict of the arc facts."""
        return {"kind": self.kind,
                "classification": self.classification,
                "target": self.target,
                "store_pc": self.store_pc, "load_pc": self.load_pc,
                "store_line": self.store_line,
                "load_line": self.load_line,
                "distance": self.distance, "local": self.local,
                "reason": self.reason}

    @staticmethod
    def from_dict(data):
        """Inverse of :meth:`to_dict`."""
        return Dependence(
            data["kind"], data["classification"], data["target"],
            store_pc=data["store_pc"], load_pc=data["load_pc"],
            store_line=data["store_line"], load_line=data["load_line"],
            distance=data["distance"], local=data["local"],
            reason=data["reason"])


class CarriedRegister:
    """The annotator's classification of one loop-carried local,
    named by its bytecode local index."""

    __slots__ = ("local", "kind", "step")

    def __init__(self, local, kind, step=None):
        self.local = local              # bytecode local index
        self.kind = kind                # KIND_* constant
        self.step = step                # per-iteration step (inductors)

    def __repr__(self):
        return "<CarriedRegister %d %s>" % (self.local, self.kind)

    def to_dict(self):
        """JSON-safe dict."""
        return {"local": self.local, "kind": self.kind,
                "step": self.step}

    @staticmethod
    def from_dict(data):
        """Inverse of :meth:`to_dict`."""
        return CarriedRegister(data["local"], data["kind"],
                               step=data["step"])


class LoopAnalysis:
    """The analyzer's verdict on one natural loop.

    Keyed by ``(method, ordinal)`` — the loop the IR annotator's
    :class:`~repro.jit.annotate.LoopMeta` describes, found by the same
    :func:`~repro.jit.annotate.identify_loops` call, with the same
    header ``line``.  ``pruned`` means the static speedup bound is
    below the selector's ``min_predicted_speedup``: a loop the static
    side expects to be useless, reported next to what the dynamic
    selector actually chose.
    """

    __slots__ = ("method", "ordinal", "line", "depth", "classification",
                 "carried", "deps", "has_calls", "body_cost",
                 "max_dep_cost", "speedup_bound", "pruned",
                 "prune_reason", "agreement")

    def __init__(self, method, ordinal, line, depth):
        self.method = method
        self.ordinal = ordinal
        self.line = line
        self.depth = depth
        self.classification = ABSENT
        self.carried = []               # [CarriedRegister]
        self.deps = []                  # [Dependence]
        #: loop body contains calls/monitors — memory facts are capped
        #: at ``may`` because the analysis is intraprocedural
        self.has_calls = False
        self.body_cost = 0              # cost-weighted body span
        self.max_dep_cost = 0           # longest must-dependence chain
        self.speedup_bound = None       # body_cost / max_dep_cost
        self.pruned = False
        self.prune_reason = None
        #: filled by :meth:`AnalysisReport.cross_check` —
        #: ``{"loop_id", "confirmed", "unobserved", "missed"}``
        self.agreement = None

    @property
    def key(self):
        """The join key shared with the IR annotator's loop metadata."""
        return (self.method, self.ordinal)

    def finalize(self):
        """Fold the per-dependence lattice values into the loop verdict
        (calls cap an otherwise-absent loop at ``may``)."""
        verdict = strongest(dep.classification for dep in self.deps)
        if self.has_calls and verdict == ABSENT:
            verdict = MAY
        self.classification = verdict
        return verdict

    def must_deps(self):
        """The must-dependences (what the speedup bound reasons
        over)."""
        return [dep for dep in self.deps if dep.classification == MUST]

    def __repr__(self):
        return "<LoopAnalysis %s#%d %s%s>" % (
            self.method, self.ordinal, self.classification,
            " pruned" if self.pruned else "")

    def to_dict(self):
        """JSON-safe dict of every conclusion about this loop."""
        return {
            "method": self.method,
            "ordinal": self.ordinal,
            "line": self.line,
            "depth": self.depth,
            "classification": self.classification,
            "carried": [reg.to_dict() for reg in self.carried],
            "deps": [dep.to_dict() for dep in self.deps],
            "has_calls": self.has_calls,
            "body_cost": self.body_cost,
            "max_dep_cost": self.max_dep_cost,
            "speedup_bound": self.speedup_bound,
            "pruned": self.pruned,
            "prune_reason": self.prune_reason,
            "agreement": site_to_jsonable(self.agreement)
                         if isinstance(self.agreement, tuple)
                         else self.agreement,
        }

    @staticmethod
    def from_dict(data):
        """Inverse of :meth:`to_dict`."""
        loop = LoopAnalysis(data["method"], data["ordinal"],
                            data["line"], data["depth"])
        loop.classification = data["classification"]
        loop.carried = [CarriedRegister.from_dict(reg)
                        for reg in data["carried"]]
        loop.deps = [Dependence.from_dict(dep) for dep in data["deps"]]
        loop.has_calls = data["has_calls"]
        loop.body_cost = data["body_cost"]
        loop.max_dep_cost = data["max_dep_cost"]
        loop.speedup_bound = data["speedup_bound"]
        loop.pruned = data["pruned"]
        loop.prune_reason = data["prune_reason"]
        loop.agreement = data["agreement"]
        return loop


class AnalysisReport:
    """Program-level bundle of :class:`LoopAnalysis` results."""

    def __init__(self, threshold=1.2):
        self.loops = []                 # [LoopAnalysis], program order
        #: the speedup bound below which a must-dependence loop is
        #: marked ``pruned``
        self.threshold = threshold
        self.methods_analyzed = 0

    def by_key(self):
        """``{(method, ordinal): LoopAnalysis}``."""
        return {loop.key: loop for loop in self.loops}

    def pruned(self):
        """The loops whose static speedup bound is below threshold."""
        return [loop for loop in self.loops if loop.pruned]

    def counts(self):
        """``{classification: loop count}`` over the whole program."""
        totals = {ABSENT: 0, MAY: 0, MUST: 0}
        for loop in self.loops:
            totals[loop.classification] += 1
        return totals

    # -- static vs. dynamic cross-check -----------------------------------
    def cross_check(self, loop_table, loop_stats):
        """Diff predicted arcs against TEST's observed RAW arcs.

        ``loop_table`` maps loop ids to
        :class:`~repro.jit.annotate.LoopMeta`; ``loop_stats`` maps loop
        ids to :class:`~repro.tracer.stats.LoopStats`.  For every loop
        the analyzer saw *and* the annotator identified (same method,
        ordinal and header line), fills ``agreement`` with:

        * ``confirmed``  — predicted arcs TEST also observed,
        * ``unobserved`` — predicted arcs TEST never saw (TEST records
          only each thread's *critical* arc, so this is expected for
          secondary dependences and for loops that never ran),
        * ``allocator``  — observed arcs flowing through allocator
          metadata; the §5.2 parallel allocator makes them vanish at
          TLS time (the selector ignores them for the same reason),
          and VM-internal state is invisible to a per-method analysis,
        * ``privatized`` — observed arcs on carried locals the IR
          annotator classifies as inductor/reduction/resetable: real
          RAW flow at profile time, but STL codegen privatizes the
          local so it can never violate,
        * ``missed``     — any other observed arc the analyzer did not
          predict (the anomaly worth investigating: either imprecision
          here or a cross-method arc the intraprocedural pass cannot
          see).

        Returns the number of loops cross-checked.
        """
        meta_by_key = {}
        for loop_id, meta in loop_table.items():
            meta_by_key[(meta.method_name, meta.ordinal)] = (loop_id,
                                                             meta)
        checked = 0
        for loop in self.loops:
            entry = meta_by_key.get(loop.key)
            if entry is None:
                continue
            loop_id, meta = entry
            if meta.line != loop.line:
                continue                # ordinal drift: refuse the join
            stats = loop_stats.get(loop_id)
            observed = dict(stats.arcs) if stats is not None else {}
            loop.agreement = self._agree_one(loop, meta, loop_id,
                                             observed)
            checked += 1
        return checked

    def _agree_one(self, loop, meta, loop_id, observed_arcs):
        """Agreement record for one loop (see :meth:`cross_check`)."""
        slot_of = {reg - 1: slot
                   for reg, slot in meta.carried_slots.items()}
        # what STL codegen will do to each communicated slot — the IR
        # classification is authoritative (it is what gets compiled)
        kind_by_slot = {}
        for reg, info in meta.carried_kinds.items():
            slot = meta.carried_slots.get(reg)
            if slot is not None:
                kind_by_slot[slot] = info.kind
        predicted = []                  # (matcher, dep)
        for dep in loop.deps:
            if dep.classification == ABSENT:
                continue
            if dep.kind == "local":
                slot = slot_of.get(dep.local)
                predicted.append((("local", slot), dep))
            else:
                predicted.append((("memory", dep.store_line,
                                   dep.load_line), dep))
        confirmed, allocator, privatized, missed = [], [], [], []
        matched = set()
        for (store_site, load_site), arc in observed_arcs.items():
            matcher = self._observed_matcher(load_site, store_site,
                                             loop.method)
            hit = None
            for index, (key, dep) in enumerate(predicted):
                if index in matched:
                    continue
                if key == matcher:
                    hit = index
                    break
            record = {"store_site": site_to_jsonable(store_site),
                      "load_site": site_to_jsonable(load_site),
                      "count": arc.count}
            if hit is not None:
                matched.add(hit)
                record["predicted"] = predicted[hit][1].to_dict()
                confirmed.append(record)
            elif getattr(arc, "allocator_fraction", 0.0) > 0.5:
                allocator.append(record)
            elif matcher[0] == "local" and kind_by_slot.get(
                    matcher[1], KIND_GENERAL) != KIND_GENERAL:
                record["kind"] = kind_by_slot[matcher[1]]
                privatized.append(record)
            else:
                missed.append(record)
        unobserved = [dep.to_dict() for index, (_, dep)
                      in enumerate(predicted) if index not in matched]
        return {"loop_id": loop_id,
                "observed_arcs": len(observed_arcs),
                "confirmed": confirmed,
                "unobserved": unobserved,
                "allocator": allocator,
                "privatized": privatized,
                "missed": missed}

    @staticmethod
    def _observed_matcher(load_site, store_site, method):
        """Reduce a profiler arc to the predicted-arc key space:
        ``("local", slot)`` for carried-local arcs,
        ``("memory", store_line, load_line)`` for memory arcs (site
        keys are ``(frame, line, op, imm)`` tuples; lines are the
        stable half)."""
        if isinstance(load_site, tuple) and load_site \
                and load_site[0] == "local":
            return ("local", load_site[2])
        store_line = None
        if isinstance(store_site, tuple) and len(store_site) >= 2 \
                and store_site[0] == method:
            store_line = store_site[1]
        load_line = None
        if isinstance(load_site, tuple) and len(load_site) >= 2 \
                and load_site[0] == method:
            load_line = load_site[1]
        return ("memory", store_line, load_line)

    # -- serialization ----------------------------------------------------
    def to_dict(self):
        """JSON-safe dict (nested in ``JrpmReport.to_dict()['analysis']``
        from report schema version 4 on)."""
        return {
            "threshold": self.threshold,
            "methods_analyzed": self.methods_analyzed,
            "loops": [loop.to_dict() for loop in self.loops],
            "counts": self.counts(),
        }

    @staticmethod
    def from_dict(data):
        """Inverse of :meth:`to_dict` (``counts`` is derived)."""
        report = AnalysisReport(threshold=data["threshold"])
        report.methods_analyzed = data["methods_analyzed"]
        report.loops = [LoopAnalysis.from_dict(loop)
                        for loop in data["loops"]]
        return report


# ---------------------------------------------------------------------------
# schema validation (scripts/check_analysis_report.py, tests)
# ---------------------------------------------------------------------------

_DEP_KEYS = frozenset(Dependence.__slots__)
_LOOP_KEYS = frozenset(
    ("method", "ordinal", "line", "depth", "classification", "carried",
     "deps", "has_calls", "body_cost", "max_dep_cost", "speedup_bound",
     "pruned", "prune_reason", "agreement"))


def validate_analysis_dict(data):
    """Yield problem strings for an ``AnalysisReport.to_dict()`` payload
    (no yields means the payload is well-formed)."""
    if not isinstance(data, dict):
        yield "analysis payload must be an object"
        return
    for key in ("threshold", "methods_analyzed", "loops", "counts"):
        if key not in data:
            yield "missing top-level key %r" % key
    loops = data.get("loops")
    if not isinstance(loops, list):
        yield "loops must be a list"
        return
    for index, loop in enumerate(loops):
        label = "loops[%d]" % index
        if not isinstance(loop, dict):
            yield "%s is not an object" % label
            continue
        missing = _LOOP_KEYS - set(loop)
        if missing:
            yield "%s: missing %s" % (label,
                                      ", ".join(sorted(missing)))
            continue
        if loop["classification"] not in LATTICE:
            yield "%s: bad classification %r" % (
                label, loop["classification"])
        if loop["pruned"] and not loop["prune_reason"]:
            yield "%s: pruned without a prune_reason" % label
        if loop["pruned"] and loop["classification"] != MUST:
            yield "%s: pruned but classified %r (only must-dependence " \
                  "loops may prune)" % (label, loop["classification"])
        for dep_index, dep in enumerate(loop["deps"]):
            dep_label = "%s.deps[%d]" % (label, dep_index)
            if not isinstance(dep, dict):
                yield "%s is not an object" % dep_label
                continue
            dep_missing = _DEP_KEYS - set(dep)
            if dep_missing:
                yield "%s: missing %s" % (
                    dep_label, ", ".join(sorted(dep_missing)))
                continue
            if dep["classification"] not in LATTICE:
                yield "%s: bad classification %r" % (
                    dep_label, dep["classification"])
            if dep["kind"] not in ("local", "static", "field", "array"):
                yield "%s: bad kind %r" % (dep_label, dep["kind"])
        for reg_index, reg in enumerate(loop["carried"]):
            reg_label = "%s.carried[%d]" % (label, reg_index)
            if not isinstance(reg, dict) or "kind" not in reg:
                yield "%s: not a carried-register object" % reg_label
            elif reg["kind"] not in (KIND_INDUCTOR, KIND_RESETABLE,
                                     KIND_REDUCTION, KIND_GENERAL):
                yield "%s: bad kind %r" % (reg_label, reg["kind"])
        agreement = loop["agreement"]
        if agreement is not None:
            if not isinstance(agreement, dict):
                yield "%s: agreement is not an object" % label
            else:
                for key in ("loop_id", "confirmed", "unobserved",
                            "allocator", "privatized", "missed"):
                    if key not in agreement:
                        yield "%s: agreement missing %r" % (label, key)
    counts = data.get("counts")
    if isinstance(counts, dict) and isinstance(loops, list):
        real = {ABSENT: 0, MAY: 0, MUST: 0}
        for loop in loops:
            if isinstance(loop, dict) \
                    and loop.get("classification") in real:
                real[loop["classification"]] += 1
        if {k: counts.get(k) for k in real} != real:
            yield "counts do not match the per-loop classifications"
