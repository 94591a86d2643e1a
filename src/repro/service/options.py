"""`RunOptions` — the one options dataclass for every Jrpm surface.

The client/session API, the service wire protocol, the CLI and the
suite runner all build their per-subsystem objects
(:class:`~repro.hydra.config.HydraConfig`,
:class:`~repro.jit.stl.StlOptions`,
:class:`~repro.core.pipeline.VmOptions`) from one instance of it, so
each knob has a single spelling everywhere.
"""

from dataclasses import dataclass, fields

from ..core.pipeline import VmOptions
from ..hydra.config import HydraConfig, SpeculationOverheads, check_engine
from ..jit.stl import StlOptions
from ..profdb.warmstart import check_warm_start


@dataclass
class RunOptions:
    """Everything a caller may tune about one pipeline run."""

    # -- simulated hardware --------------------------------------------------
    cpus: int = 4
    old_handlers: bool = False           # paper Table 1 "Old" overheads
    engine: str = "fast"                 # "fast" | "reference"

    # -- VM-level modifications (paper §5) -----------------------------------
    parallel_allocator: bool = True
    speculation_aware_locks: bool = True

    # -- observability / adaptation ------------------------------------------
    trace: bool = False                  # attach the repro.trace collector
    adapt: bool = False                  # run under the adapt controller
    epochs: int = 4                      # adaptive epochs

    # -- persistent profile DB (repro.profdb) --------------------------------
    profile_db: str = None               # ProfileDb path ("" / None = off)
    warm_start: str = "auto"             # "auto" | "off"

    # -- run shape -----------------------------------------------------------
    args: tuple = ()                     # guest program arguments
    verify: bool = True                  # assert sequential == TLS output
    timeout: float = None                # per-run seconds (pool workers)

    def __post_init__(self):
        """Reject an unknown ``engine`` or ``warm_start``
        (``ValueError``): a mistyped value must not yield a run."""
        self.args = tuple(self.args)
        check_engine(self.engine)
        check_warm_start(self.warm_start)

    # -- projections to the per-subsystem option objects ---------------------
    def hydra_config(self):
        """The simulated-hardware configuration these options imply."""
        config = HydraConfig(num_cpus=self.cpus, engine=self.engine)
        if self.old_handlers:
            config.overheads = SpeculationOverheads.old_handlers()
        return config

    def stl_options(self):
        """STL codegen options (currently all defaults)."""
        return StlOptions()

    def vm_options(self):
        """The paper-§5 VM modification switches."""
        return VmOptions(
            parallel_allocator=self.parallel_allocator,
            speculation_aware_locks=self.speculation_aware_locks)

    def make_jrpm(self, compile_cache=None):
        """A :class:`Jrpm` facade configured from these options
        (*compile_cache*: see :class:`Jrpm`)."""
        from ..core.pipeline import Jrpm
        return Jrpm(options=self, compile_cache=compile_cache)

    # -- serialization (wire protocol + artifact-store keys) -----------------
    def to_dict(self):
        """JSON-safe dict of every field (wire + cache-key form)."""
        return {f.name: (list(self.args) if f.name == "args"
                         else getattr(self, f.name))
                for f in fields(self)}

    @staticmethod
    def from_dict(data):
        """Strict loader: unknown keys are an error (a typo'd option
        silently ignored would produce a wrong-but-plausible run)."""
        known = {f.name for f in fields(RunOptions)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                "unknown RunOptions field(s): %s (known: %s)"
                % (", ".join(sorted(unknown)), ", ".join(sorted(known))))
        return RunOptions(**data)
