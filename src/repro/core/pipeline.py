"""The Jrpm pipeline (paper Figure 1).

1. Compile bytecodes natively with annotation instructions.
2. Run the annotated program sequentially while TEST collects
   statistics on prospective thread decompositions.
3. Post-process the statistics and choose the decompositions with the
   best predicted speedups.
4. Recompile the selected loops into speculative threads.
5. Run the native TLS code.

:class:`Jrpm` drives all five steps and packages every measurement the
benchmark harness needs into a :class:`JrpmReport`.
"""

import json
from dataclasses import dataclass, field

from ..serialize import REPORT_SCHEMA_VERSION, check_schema_version
from ..hydra.config import HydraConfig
from ..hydra.machine import Machine
from ..jit.compiler import (annotation_count, compile_annotated,
                            compile_program)
from ..jit.stl import StlOptions, recompile_with_stls
from ..minijava import compile_source
from ..tls.runtime import TlsRuntime
from ..tracer.profiler import TestProfiler
from ..tracer.selector import Selector


def outputs_equal(a, b, tolerance=1e-6):
    """Elementwise output comparison; floats approximately (reductions
    are re-associated across CPUs), everything else exactly."""
    if len(a) != len(b):
        return False
    for left, right in zip(a, b):
        if isinstance(left, float) or isinstance(right, float):
            scale = max(abs(left), abs(right), 1.0)
            if abs(left - right) > tolerance * scale:
                return False
        elif left != right:
            return False
    return True


@dataclass
class VmOptions:
    """VM-level modifications from paper §5 (Table 3 columns t, u)."""

    parallel_allocator: bool = True       # §5.2 private free lists
    speculation_aware_locks: bool = True  # §5.3 non-serializing locks

    def to_dict(self):
        return {"parallel_allocator": self.parallel_allocator,
                "speculation_aware_locks": self.speculation_aware_locks}

    @staticmethod
    def from_dict(data):
        return VmOptions(**data)


@dataclass
class RunMeasurement:
    """One simulated run of the program."""

    cycles: float = 0.0
    instructions: int = 0
    gc_cycles: float = 0.0
    output: list = field(default_factory=list)
    return_value: object = None
    guest_exception: object = None

    @staticmethod
    def from_result(result):
        return RunMeasurement(
            cycles=result.cycles,
            instructions=result.instructions,
            gc_cycles=result.gc_cycles,
            output=result.output,
            return_value=result.return_value,
            guest_exception=result.guest_exception,
        )

    def to_dict(self):
        """JSON-safe dict (guest exceptions are stored by repr)."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "gc_cycles": self.gc_cycles,
            "output": list(self.output),
            "return_value": self.return_value,
            "guest_exception": (None if self.guest_exception is None
                                else repr(self.guest_exception)),
        }

    @staticmethod
    def from_dict(data):
        return RunMeasurement(
            cycles=data["cycles"],
            instructions=data["instructions"],
            gc_cycles=data["gc_cycles"],
            output=list(data["output"]),
            return_value=data["return_value"],
            guest_exception=data["guest_exception"],
        )


class JrpmReport:
    """Everything measured across the pipeline for one benchmark run."""

    def __init__(self, name="program"):
        self.name = name
        self.config = None
        # runs
        self.sequential = None           # RunMeasurement (plain native)
        self.profiling = None            # RunMeasurement (annotated)
        self.tls = None                  # RunMeasurement (speculative)
        # pipeline artifacts
        self.loop_table = {}
        self.loop_stats = {}
        self.plans = {}
        self.predicted_tls_cycles = 0.0
        self.annotations = 0
        self.compile_cycles = 0
        self.recompile_cycles = 0
        self.breakdown = None            # TlsStateBreakdown
        self.stl_run_stats = {}
        self.profiler = None
        self.dynamic_nesting = set()
        self.max_dynamic_depth = 0
        # observability (repro.trace): the aggregate counters survive
        # serialization; the live collector (event ring) is transient,
        # like `profiler`.
        self.trace_aggregates = None     # TraceAggregates or None
        self.trace = None                # live TraceCollector or None
        # adaptive recompilation (repro.adapt): the epoch/decision log
        # produced by Jrpm.run_adaptive(); None on one-shot runs
        self.adaptation = None           # AdaptationLog or None
        # persistent profile DB (repro.profdb): how the TEST statistics
        # behind this report were obtained — "cold" (profiled live),
        # "warm" (replayed from a stored record) or "confirmed"
        # (profiled live and reproduced the stored record's plan)
        self.profile_provenance = "cold"

    # -- headline numbers ----------------------------------------------------
    @property
    def profiling_slowdown(self):
        if not self.sequential or not self.sequential.cycles:
            return 0.0
        return self.profiling.cycles / self.sequential.cycles

    @property
    def tls_speedup(self):
        """Speedup of the speculative run over sequential (Fig. 8)."""
        if not self.tls or not self.tls.cycles:
            return 1.0
        return self.sequential.cycles / self.tls.cycles

    @property
    def predicted_speedup(self):
        if not self.predicted_tls_cycles:
            return 1.0
        return self.sequential.cycles / self.predicted_tls_cycles

    @property
    def serial_fraction(self):
        """Fraction of sequential execution not covered by any candidate
        STL (Table 3 column i)."""
        if not self.sequential or not self.sequential.cycles:
            return 1.0
        covered = 0.0
        for loop_id, stats in self.loop_stats.items():
            meta = self.loop_table.get(loop_id)
            if meta is None or not meta.candidate:
                continue
            if self._has_candidate_ancestor(loop_id):
                continue
            covered += stats.coverage_cycles
        covered = min(covered, self.profiling.cycles)
        return max(0.0, 1.0 - covered / self.profiling.cycles)

    def _has_candidate_ancestor(self, loop_id):
        meta = self.loop_table.get(loop_id)
        while meta is not None and meta.parent_id is not None:
            parent = self.loop_table.get(meta.parent_id)
            if parent is not None and parent.candidate \
                    and meta.parent_id in self.loop_stats:
                return True
            meta = parent
        # Dynamic (cross-method) nesting counts too.
        for outer, inner in self.dynamic_nesting:
            if inner == loop_id and outer in self.loop_stats:
                outer_meta = self.loop_table.get(outer)
                if outer_meta is not None and outer_meta.candidate:
                    return True
        return False

    @property
    def profile_fraction(self):
        """Fraction of the run executed under profiling before TEST has
        enough data to recompile (§3.1).

        The comparator banks profile every active loop concurrently, so
        the iteration budget accumulates across all selected loops: a
        program whose outermost loop runs only a few large iterations
        still supplies thousands of inner-loop samples per unit time.
        """
        if not self.plans:
            return 1.0
        target = self.config.profile_iteration_target if self.config else 100
        total_threads = sum(stats.threads
                            for stats in self.loop_stats.values())
        if total_threads == 0:
            return 1.0
        return min(1.0, target / total_threads)

    @property
    def total_cycles_with_overheads(self):
        """End-to-end cycles including compile, profiling, selection,
        recompilation and GC (Fig. 9 model)."""
        fraction = self.profile_fraction
        total = self.compile_cycles
        total += fraction * self.profiling.cycles
        if self.plans:
            total += self.recompile_cycles
            total += (1.0 - fraction) * self.tls.cycles
        return total

    @property
    def total_speedup(self):
        total = self.total_cycles_with_overheads
        if not total:
            return 1.0
        return self.sequential.cycles / total

    def phase_cycles(self):
        """Cycle breakdown for the Fig. 9 stacked bars."""
        fraction = self.profile_fraction
        tls_cycles = (1.0 - fraction) * self.tls.cycles if self.plans \
            else 0.0
        profiling_extra = fraction * max(
            0.0, self.profiling.cycles - self.sequential.cycles)
        application = (fraction * self.sequential.cycles + tls_cycles
                       - (self.tls.gc_cycles if self.plans else 0.0)
                       - self.sequential.gc_cycles * fraction)
        return {
            "application": max(0.0, application),
            "gc": (self.sequential.gc_cycles * fraction
                   + (self.tls.gc_cycles if self.plans else 0.0)),
            "compile": self.compile_cycles,
            "profiling": profiling_extra,
            "recompile": self.recompile_cycles if self.plans else 0.0,
        }

    def outputs_match(self, tolerance=1e-6):
        """Check sequential vs TLS output equality (floats approximately:
        reductions are re-associated across CPUs)."""
        return outputs_equal(self.sequential.output, self.tls.output,
                             tolerance)

    # -- serialization -------------------------------------------------------
    #: the report dict layout version — aliased from
    #: :data:`repro.serialize.REPORT_SCHEMA_VERSION`, the single source
    #: of truth shared with the cache key and the service wire protocol
    SCHEMA_VERSION = REPORT_SCHEMA_VERSION

    def to_dict(self):
        """Lossless JSON-safe dict of every measurement in the report.

        The only attributes not serialized are :attr:`profiler` — the
        live :class:`TestProfiler` with its comparator-bank hardware
        state — and :attr:`trace` — the live event ring — whose measured
        results are already captured in ``loop_stats`` /
        ``dynamic_nesting`` / ``max_dynamic_depth`` /
        ``trace_aggregates``.  Round-trips are exact:
        ``report.to_dict() ==
        JrpmReport.from_dict(report.to_dict()).to_dict()``.
        """
        from ..serialize import set_to_pairs
        return {
            "schema": self.SCHEMA_VERSION,
            "name": self.name,
            "config": self.config.to_dict() if self.config else None,
            "sequential": (self.sequential.to_dict()
                           if self.sequential else None),
            "profiling": (self.profiling.to_dict()
                          if self.profiling else None),
            "tls": self.tls.to_dict() if self.tls else None,
            "tls_is_sequential": self.tls is self.sequential,
            "loop_table": {str(loop_id): meta.to_dict()
                           for loop_id, meta in self.loop_table.items()},
            "loop_stats": {str(loop_id): stats.to_dict()
                           for loop_id, stats in self.loop_stats.items()},
            "plans": {str(loop_id): plan.to_dict()
                      for loop_id, plan in self.plans.items()},
            "predicted_tls_cycles": self.predicted_tls_cycles,
            "annotations": self.annotations,
            "compile_cycles": self.compile_cycles,
            "recompile_cycles": self.recompile_cycles,
            "breakdown": self.breakdown.to_dict() if self.breakdown
                         else None,
            "stl_run_stats": {str(loop_id): stats.to_dict()
                              for loop_id, stats
                              in self.stl_run_stats.items()},
            "dynamic_nesting": set_to_pairs(self.dynamic_nesting),
            "max_dynamic_depth": self.max_dynamic_depth,
            "trace_aggregates": (self.trace_aggregates.to_dict()
                                 if self.trace_aggregates else None),
            "adaptation": (self.adaptation.to_dict()
                           if self.adaptation else None),
            # runs carry no static analysis (``jrpm analyze`` reports
            # it on its own); the slot stays null so the report keeps
            # its bytes
            "analysis": None,
            "profile_provenance": self.profile_provenance,
        }

    @staticmethod
    def from_dict(data):
        """Rebuild a report from :meth:`to_dict` output (or its JSON).

        Payloads declaring a *future* schema version are rejected with
        :class:`~repro.serialize.SchemaVersionError` instead of being
        half-loaded (older versions load fine via ``.get`` defaults).
        """
        check_schema_version("JrpmReport", data.get("schema"),
                             REPORT_SCHEMA_VERSION)
        from ..hydra.config import HydraConfig
        from ..jit.annotate import LoopMeta
        from ..serialize import pairs_to_set
        from ..tls.stats import StlRunStats, TlsStateBreakdown
        from ..tracer.selector import StlPlan
        from ..tracer.stats import LoopStats
        report = JrpmReport(data["name"])
        if data["config"] is not None:
            report.config = HydraConfig.from_dict(data["config"])
        if data["sequential"] is not None:
            report.sequential = RunMeasurement.from_dict(data["sequential"])
        if data["profiling"] is not None:
            report.profiling = RunMeasurement.from_dict(data["profiling"])
        if data.get("tls_is_sequential"):
            report.tls = report.sequential
        elif data["tls"] is not None:
            report.tls = RunMeasurement.from_dict(data["tls"])
        report.loop_table = {int(k): LoopMeta.from_dict(v)
                             for k, v in data["loop_table"].items()}
        report.loop_stats = {int(k): LoopStats.from_dict(v)
                             for k, v in data["loop_stats"].items()}
        report.plans = {int(k): StlPlan.from_dict(v, report.loop_table)
                        for k, v in data["plans"].items()}
        report.predicted_tls_cycles = data["predicted_tls_cycles"]
        report.annotations = data["annotations"]
        report.compile_cycles = data["compile_cycles"]
        report.recompile_cycles = data["recompile_cycles"]
        if data["breakdown"] is not None:
            report.breakdown = TlsStateBreakdown.from_dict(
                data["breakdown"])
        report.stl_run_stats = {int(k): StlRunStats.from_dict(v)
                                for k, v in data["stl_run_stats"].items()}
        report.dynamic_nesting = pairs_to_set(data["dynamic_nesting"])
        report.max_dynamic_depth = data["max_dynamic_depth"]
        trace_aggregates = data.get("trace_aggregates")
        if trace_aggregates is not None:
            from ..trace import TraceAggregates
            report.trace_aggregates = TraceAggregates.from_dict(
                trace_aggregates)
        adaptation = data.get("adaptation")
        if adaptation is not None:
            from ..adapt.log import AdaptationLog
            report.adaptation = AdaptationLog.from_dict(adaptation)
        report.profile_provenance = data.get("profile_provenance", "cold")
        return report


@dataclass
class BaselineArtifact:
    """Step 0's artifact: the sequential reference run.
    :meth:`Jrpm.compile_baseline` simulates the plain native compile;
    :meth:`ProfileArtifact.baseline` derives the same measurement from
    the TEST run (``compiled`` is then ``None``)."""

    compiled: object                 # CompiledProgram (plain) or None
    measurement: RunMeasurement
    compile_cycles: int


@dataclass
class ProfileArtifact:
    """Artifact of :meth:`Jrpm.profile` — steps 1-2 of the pipeline."""

    annotated: object                # CompiledProgram (with annotations)
    profiler: object                 # TestProfiler after the run
    measurement: RunMeasurement
    annotations: int
    #: annotation-only instructions the run retired, 1 cycle each
    #: (:attr:`repro.hydra.machine.CpuContext.annotation_instret`)
    annotation_instructions: int = 0

    def baseline(self):
        """The sequential baseline, derived without a simulation.

        The annotated code is the plain native code plus annotation-only
        instructions, each costing 1 cycle and touching nothing but the
        profiler, so the baseline's cycles and instructions are this
        run's minus :attr:`annotation_instructions`; GC cycles, output,
        return value and guest exception are this run's.  The compile is
        charged per bytecode, so both compiles cost the same.
        ``tests/test_pipeline.py`` checks the result against
        :meth:`Jrpm.compile_baseline`.
        """
        test = self.measurement
        extra = self.annotation_instructions
        measurement = RunMeasurement(
            cycles=test.cycles - extra,
            instructions=test.instructions - extra,
            gc_cycles=test.gc_cycles, output=list(test.output),
            return_value=test.return_value,
            guest_exception=test.guest_exception)
        return BaselineArtifact(
            compiled=None, measurement=measurement,
            compile_cycles=self.annotated.compile_cycles)

    @property
    def loop_table(self):
        return self.annotated.loop_table

    @property
    def stats(self):
        return self.profiler.stats


@dataclass
class TlsArtifact:
    """Artifact of :meth:`Jrpm.execute_tls` — step 5 of the pipeline
    (or the sequential fallback when nothing was selected)."""

    measurement: RunMeasurement
    breakdown: object                # TlsStateBreakdown
    stl_stats: dict
    recompile_cycles: int


class Jrpm:
    """The complete Java runtime parallelizing machine.

    The five paper steps are exposed as explicit staged methods —
    :meth:`compile_baseline`, :meth:`profile`, :meth:`select`,
    :meth:`recompile`, :meth:`execute_tls` — each returning its
    artifact, so callers (the CLI profiler, the parallel suite runner,
    ablation sweeps) can reuse individual phases.  :meth:`run` is a
    thin facade chaining them into a :class:`JrpmReport`; it takes the
    baseline from the TEST run (:meth:`ProfileArtifact.baseline`), so
    :meth:`compile_baseline` is the simulated reference for it.
    """

    def __init__(self, config=None, stl_options=None, vm_options=None,
                 trace=None, options=None, profdb=None,
                 warm_start=None, compile_cache=None):
        """``options`` (a :class:`repro.service.RunOptions`) is the
        preferred single knob; the per-object kwargs remain for callers
        that build the pieces themselves and override the corresponding
        ``options`` projection when both are given.

        ``compile_cache`` is internal to the service's pool workers: a
        :class:`~repro.service.jobs.CompileCache` that memoizes the
        parse, the annotated compile and the recompile across requests.
        The default ``None`` compiles everything afresh, so library
        callers hold no compiled code between runs."""
        if options is not None:
            config = config or options.hydra_config()
            stl_options = stl_options or options.stl_options()
            vm_options = vm_options or options.vm_options()
            if trace is None and options.trace:
                trace = True
            if profdb is None and options.profile_db:
                profdb = options.profile_db
            if warm_start is None and options.warm_start:
                warm_start = options.warm_start
        self.config = config or HydraConfig()
        self.stl_options = stl_options or StlOptions()
        self.vm_options = vm_options or VmOptions()
        #: observability (repro.trace): ``trace`` may be ``None`` (off,
        #: the default), ``True`` (collector with default options), a
        #: :class:`~repro.trace.TraceOptions`, or a ready-made
        #: :class:`~repro.trace.TraceCollector`.
        self.trace = self._normalize_trace(trace)
        #: persistent profile DB (repro.profdb): a
        #: :class:`~repro.profdb.ProfileDb`, a path string, or ``None``
        #: (no persistence).  ``warm_start`` governs how stored records
        #: are used: ``"auto"`` (skip TEST profiling when the DB holds
        #: a record for the exact input) or ``"off"`` (always profile;
        #: still records); any other value is a ``ValueError``.
        self.profdb = self._normalize_profdb(profdb)
        self.warm_start = warm_start or "auto"
        if self.warm_start != "auto":       # the default needs no import
            from ..profdb.warmstart import check_warm_start
            check_warm_start(self.warm_start)
        self.compile_cache = compile_cache

    @staticmethod
    def _normalize_profdb(profdb):
        if not profdb:
            return None
        if isinstance(profdb, str):
            from ..profdb import ProfileDb
            return ProfileDb(profdb)
        return profdb

    @staticmethod
    def _normalize_trace(trace):
        if trace is None or trace is False:
            return None
        from ..trace import TraceCollector, TraceOptions
        if trace is True:
            return TraceCollector()
        if isinstance(trace, TraceOptions):
            return TraceCollector(trace)
        return trace

    # -- staged pipeline -----------------------------------------------------
    def compile_baseline(self, source_or_program, args=()):
        """Step 0: plain native compile + sequential reference run
        (:meth:`run` derives the same artifact from the TEST run)."""
        program = self._program_of(source_or_program)
        plain = compile_program(program, self.config)
        machine = Machine(plain, self.config)
        measurement = RunMeasurement.from_result(machine.run(*args))
        return BaselineArtifact(compiled=plain, measurement=measurement,
                                compile_cycles=plain.compile_cycles)

    def profile(self, source_or_program, args=()):
        """Steps 1-2: annotated compile + sequential run under TEST."""
        program = self._program_of(source_or_program)
        annotated = self.annotate(program)
        if self.trace is not None:
            self.trace.set_phase("profile")
        profiler = TestProfiler(self.config, annotated.loop_table,
                                trace=self.trace)
        machine = Machine(annotated, self.config, profiler=profiler)
        result = machine.run(*args)
        return ProfileArtifact(
            annotated=annotated, profiler=profiler,
            measurement=RunMeasurement.from_result(result),
            annotations=annotation_count(annotated),
            annotation_instructions=result.annotation_instructions)

    def annotate(self, program):
        """Step 1's compile alone: *program* with TEST annotations."""
        return self._compiled(
            lambda: compile_annotated(program, self.config),
            lambda: ("annotated", program, self._config_key()))

    def make_selector(self, loop_table):
        """The §3.1 selector configured for this Jrpm instance."""
        return Selector(
            self.config, loop_table,
            ignore_allocator_arcs=self.vm_options.parallel_allocator)

    def select(self, profile_artifact):
        """Step 3: choose thread decompositions from TEST statistics."""
        profiler = profile_artifact.profiler
        selector = self.make_selector(profile_artifact.loop_table)
        return selector.select(profiler.stats, profiler.dynamic_nesting)

    def recompile(self, source_or_program, plans):
        """Step 4: recompile selected loops into STLs.

        Returns the recompiled program, or ``None`` when nothing was
        selected.
        """
        if not plans:
            return None
        program = self._program_of(source_or_program)
        return self._compiled(
            lambda: recompile_with_stls(program, self.config, plans,
                                        self.stl_options),
            lambda: ("recompiled", program, self._config_key(),
                     _json_key(self.stl_options.to_dict()),
                     _json_key(self.vm_options.to_dict()),
                     _json_key({str(loop_id): plan.to_dict()
                                for loop_id, plan in plans.items()})))

    def execute_tls(self, recompiled, plans, args=(), fallback=None):
        """Step 5: run the speculative code on the Hydra simulator.

        ``fallback`` is the baseline :class:`RunMeasurement` reused
        verbatim when no decomposition was selected (``plans`` empty).
        """
        if not plans or recompiled is None:
            from ..tls.stats import TlsStateBreakdown
            if fallback is None:
                raise ValueError("execute_tls with no plans requires the "
                                 "baseline measurement as fallback")
            breakdown = TlsStateBreakdown()
            breakdown.serial = fallback.cycles
            return TlsArtifact(measurement=fallback, breakdown=breakdown,
                               stl_stats={}, recompile_cycles=0)
        if self.trace is not None:
            self.trace.set_phase("tls")
        machine = Machine(
            recompiled, self.config,
            parallel_allocator=self.vm_options.parallel_allocator,
            speculation_aware_locks=self.vm_options.speculation_aware_locks,
            trace=self.trace)
        runtime = TlsRuntime(machine)
        measurement = RunMeasurement.from_result(machine.run(*args))
        if self.trace is not None:
            self.trace.finish(machine.hierarchy)
        breakdown = runtime.breakdown
        breakdown.serial = max(
            0.0, measurement.cycles - self._stl_wall_cycles(runtime))
        return TlsArtifact(measurement=measurement, breakdown=breakdown,
                           stl_stats=runtime.stl_stats,
                           recompile_cycles=recompiled.compile_cycles)

    def assemble_report(self, name, baseline, profile_artifact, plans,
                        tls_artifact):
        """Package the stage artifacts into a :class:`JrpmReport`."""
        report = JrpmReport(name)
        report.config = self.config
        report.sequential = baseline.measurement
        report.compile_cycles = baseline.compile_cycles
        report.profiling = profile_artifact.measurement
        report.loop_table = profile_artifact.loop_table
        report.loop_stats = profile_artifact.profiler.stats
        report.annotations = profile_artifact.annotations
        report.profiler = profile_artifact.profiler
        report.dynamic_nesting = profile_artifact.profiler.dynamic_nesting
        report.max_dynamic_depth = profile_artifact.profiler.max_dynamic_depth
        report.plans = plans
        report.predicted_tls_cycles = self._predict_total(report, plans)
        report.tls = tls_artifact.measurement
        report.breakdown = tls_artifact.breakdown
        report.stl_run_stats = tls_artifact.stl_stats
        report.recompile_cycles = tls_artifact.recompile_cycles
        if self.trace is not None:
            report.trace = self.trace
            report.trace_aggregates = self.trace.finish()
        return report

    def analyze(self, source_or_program, args=()):
        """Static dependence analysis cross-checked against a TEST run.

        Every loop is profiled, so the analyzer's predicted arcs can be
        diffed against what TEST actually observed (the ``jrpm
        analyze`` verb).  Returns ``(analysis, profile_artifact)`` where
        ``analysis`` is the cross-checked
        :class:`~repro.analysis.AnalysisReport`.
        """
        from ..analysis import analyze_program
        program = self._program_of(source_or_program)
        analysis = analyze_program(
            program, threshold=self.config.min_predicted_speedup)
        profile_artifact = self.profile(program, args)
        analysis.cross_check(profile_artifact.loop_table,
                             profile_artifact.stats)
        return analysis, profile_artifact

    # -- facade --------------------------------------------------------------
    def run(self, source_or_program, name="program", args=()):
        """Run the full five-step pipeline; returns a JrpmReport.

        With a :attr:`profdb` attached, a stored record for this exact
        (program, args, options) input lets the run warm start — the
        baseline and TEST executions are replayed from the DB and only
        the TLS run happens for real (plan-equivalent by construction;
        see :mod:`repro.profdb.warmstart`).  Cold runs are recorded back
        into the DB, replacing their input's record.

        A cold run simulates the program at most twice: the TEST run,
        whose measurement also yields the baseline
        (:meth:`ProfileArtifact.baseline`), and the TLS run when
        something was selected.
        """
        program = self._program_of(source_or_program)
        if self.profdb is not None and self.warm_start != "off":
            from ..profdb.warmstart import warm_report
            report = warm_report(self, program, name, args)
            if report is not None:
                return report
        profile_artifact = self.profile(program, args)
        baseline = profile_artifact.baseline()
        plans = self.select(profile_artifact)
        recompiled = self.recompile(program, plans)
        tls_artifact = self.execute_tls(recompiled, plans, args,
                                        fallback=baseline.measurement)
        report = self.assemble_report(name, baseline, profile_artifact,
                                      plans, tls_artifact)
        self._record_cold(program, report, args)
        return report

    def _record_cold(self, program, report, args):
        """Fold a cold run into the attached profile DB (if any)."""
        if self.profdb is None:
            return
        report.profile_provenance = self.profdb.record(
            program, report, args, self.config, self.stl_options,
            self.vm_options)
        if self.trace is not None:
            self.trace.profdb(0.0, report.profile_provenance,
                              report.name)

    def run_adaptive(self, source_or_program, name="program", args=(),
                     policy=None, epochs=4, verify=False):
        """Run the pipeline under the epoch-based feedback controller.

        Unlike :meth:`run` (one-shot: the TEST profile is trusted
        forever), the returned report's ``adaptation`` attribute is an
        :class:`~repro.adapt.log.AdaptationLog` recording every epoch,
        decommit, lock escalation and promotion the
        :class:`~repro.adapt.controller.AdaptController` performed.
        ``policy`` is a :class:`~repro.adapt.policy.ThresholdPolicy`
        (``None``: its defaults); ``verify`` raises
        :class:`~repro.errors.DivergenceError` at the first epoch whose
        output differs from the sequential baseline's.
        """
        from ..adapt import AdaptController
        controller = AdaptController(self, policy=policy, epochs=epochs,
                                     verify=verify)
        program = self._program_of(source_or_program)
        report = controller.run(program, name=name, args=args)
        # Adaptive runs always profile live (the controller owns the
        # epoch loop), but their hard-won decommit/escalation outcomes
        # are written back so future warm starts begin corrected.
        self._record_cold(program, report, args)
        return report

    @staticmethod
    def _stl_wall_cycles(runtime):
        """Approximate master wall-cycles spent inside STL regions: the
        committed/violated CPU time divided by the CPU count plus the
        serial handler overheads."""
        breakdown = runtime.breakdown
        num_cpus = runtime.config.num_cpus
        return (breakdown.run_used + breakdown.wait_used
                + breakdown.run_violated + breakdown.wait_violated
                ) / num_cpus + breakdown.overhead / num_cpus

    def _predict_total(self, report, plans):
        """TEST's predicted whole-program TLS time (Fig. 8 'Predicted').

        Coverage was measured on the annotated run, which is slower than
        plain native code; rescale it to the sequential baseline.
        """
        predicted = report.sequential.cycles
        scale = 1.0
        if report.profiling.cycles:
            scale = report.sequential.cycles / report.profiling.cycles
        for plan in plans.values():
            if plan.multilevel_inner:
                continue    # counted inside the parent's coverage
            prediction = plan.prediction
            if prediction.speedup > 1.0:
                saved = scale * prediction.coverage_cycles * (
                    1.0 - 1.0 / prediction.speedup)
                predicted -= saved
        return max(predicted, report.sequential.cycles * 0.05)

    def _program_of(self, source_or_program):
        if isinstance(source_or_program, str):
            return self._compiled(lambda: compile_source(source_or_program),
                                  lambda: ("program", source_or_program))
        return source_or_program

    def _compiled(self, build, key):
        """``build()``, memoized under ``key()`` in the attached compile
        cache (if any; without one no key is built).  Keys are content:
        source text, the Program parsed from it (unique per source in
        the cache), canonical JSON of the options and plans."""
        if self.compile_cache is None:
            return build()
        return self.compile_cache.get(key(), build)

    def _config_key(self):
        return _json_key(self.config.to_dict())


def _json_key(data):
    """Canonical JSON of a dict: the cache-key form of options/plans."""
    return json.dumps(data, sort_keys=True)


def run_jrpm(source, name="program", config=None, **kwargs):
    """Convenience one-shot pipeline run."""
    return Jrpm(config=config, **kwargs).run(source, name=name)
