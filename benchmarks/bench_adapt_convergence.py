"""Adaptive recompilation convergence guard.

The epoch-based feedback controller (``repro.adapt``) must (a) settle
quickly — a handful of epochs, not an unbounded hunt — and (b) actually
pay for itself when the profile-time prediction is wrong.  Two
experiments:

* **convergence** — for one workload per paper category, run
  :meth:`Jrpm.run_adaptive` with the default threshold policy and
  record the epoch at which the plan set stops changing plus the final
  speedup next to the one-shot pipeline's.  Steady state must arrive
  within the epoch budget, and the converged plan must never be slower
  than one-shot beyond simulation noise.

* **misprediction recovery** — a deliberately permissive admission
  configuration (everything looks profitable to TEST) applied to a
  serially-dependent loop makes the one-shot selector pick an STL that
  mostly violates.  The controller must end strictly faster than its
  own first epoch, and the decision log must name the actions that got
  it there (this is the ISSUE acceptance scenario).
"""

from repro.core.pipeline import Jrpm
from repro.hydra.config import HydraConfig
from repro.minijava import compile_source
from repro.workloads import lookup

from harness import write_result

#: one workload per paper category (integer / floating point / multimedia)
WORKLOADS = ("BitOps", "LuFactor", "decJpeg")
EPOCH_BUDGET = 4

#: every iteration carries a dependence through ``s`` — speculation on
#: the outer loop violates almost every time, but the permissive
#: admission config below makes it look profitable at TEST time.
SERIAL_DEP = """
class Main {
    static int main(int n) {
        int[] a = new int[n];
        int i = 0;
        while (i < n) { a[i] = i * 13 + 7; i = i + 1; }
        int s = 1;
        i = 0;
        while (i < n) {
            s = (s * 3 + a[i]) % 1000003;
            a[(i * 7) % n] = s;
            i = i + 1;
        }
        Sys.printInt(s);
        return s;
    }
}
"""


def _mispredicting_config():
    return HydraConfig(min_predicted_speedup=0.05,
                       min_iterations_per_entry=1.0)


def test_adapt_converges_within_epoch_budget():
    rows = ["adaptive recompilation convergence (size small, "
            "epoch budget %d)" % EPOCH_BUDGET,
            "  %-10s %8s %10s %10s %10s %9s" % (
                "workload", "epochs", "converged", "one-shot", "adaptive",
                "decisions")]
    for name in WORKLOADS:
        program = compile_source(lookup(name).source("small"))
        one_shot = Jrpm().run(program, name=name)
        report = Jrpm().run_adaptive(program, name=name,
                                     epochs=EPOCH_BUDGET, verify=True)
        log = report.adaptation
        assert report.outputs_match()
        assert log.converged_epoch is not None, (
            "%s did not reach a stable plan set in %d epochs"
            % (name, EPOCH_BUDGET))
        # the settled plan is never materially slower than one-shot
        assert log.final_cycles <= one_shot.tls.cycles * 1.02, (
            "%s: adaptive steady state %.0f cycles vs one-shot %.0f"
            % (name, log.final_cycles, one_shot.tls.cycles))
        rows.append("  %-10s %8d %10d %9.2fx %9.2fx %9d"
                    % (name, log.epochs_run, log.converged_epoch,
                       one_shot.tls_speedup, report.tls_speedup,
                       len(log.applied_decisions())))
    write_result("adapt_convergence", rows)


def test_adapt_recovers_from_misprediction():
    rows = ["misprediction recovery (permissive admission, "
            "serial-dependence loop)"]
    program = compile_source(SERIAL_DEP)
    jrpm = Jrpm(config=_mispredicting_config())
    report = jrpm.run_adaptive(program, name="serialDep", args=(300,),
                               epochs=EPOCH_BUDGET, verify=True)
    log = report.adaptation
    assert report.outputs_match()
    decisions = log.applied_decisions()
    assert decisions, "controller applied no decisions at all"
    assert log.final_cycles < log.initial_cycles, (
        "adaptation did not beat the initial selection: "
        "%.0f -> %.0f cycles" % (log.initial_cycles, log.final_cycles))
    rows.append("  epoch 0:      %12.0f cycles (mispredicted plan)"
                % log.initial_cycles)
    rows.append("  steady state: %12.0f cycles (%.2fx gain, %d epochs)"
                % (log.final_cycles, log.steady_state_gain,
                   log.epochs_run))
    rows.append("  net cycles saved vs staying one-shot: %.0f"
                % log.net_cycles_saved)
    for decision in decisions:
        rows.append("  applied: %s" % decision.describe())
    write_result("adapt_misprediction", rows)
