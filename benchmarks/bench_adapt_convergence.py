"""Adaptive recompilation guard: what the controller does on the corpus.

The epoch-based feedback controller (``repro.adapt``) must (a) settle
quickly — a handful of epochs, not an unbounded hunt — and (b) actually
pay for itself when the profile-time prediction is wrong.  Two
experiments:

* **corpus** — every registry workload at size ``small`` and
  ``default`` runs under :meth:`Jrpm.run_adaptive` with the threshold
  policy, every epoch's output checked against the sequential
  baseline.  One row per run: epochs, the epoch from which the plan set
  stayed stable, applied decisions by action and the steady-state gain
  (epoch-0 cycles, i.e. the one-shot selection's, over the final
  epoch's), with a totals row.  Every run must settle before the epoch
  budget runs out, and its final plan set must never be slower than
  the one-shot selection beyond simulation noise.

* **misprediction recovery** — a deliberately permissive admission
  configuration (everything looks profitable to TEST) applied to a
  serially-dependent loop makes the one-shot selector pick an STL that
  mostly violates.  The controller must end strictly faster than its
  own first epoch, and the decision log must name the actions that got
  it there.
"""

from repro.adapt import ACTIONS
from repro.core.pipeline import Jrpm
from repro.hydra.config import HydraConfig
from repro.minijava import compile_source
from repro.workloads import all_workloads

from harness import geomean, write_result

SIZES = ("small", "default")
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
    rows = ["adaptive recompilation over the corpus (threshold policy, "
            "epoch budget %d)" % EPOCH_BUDGET,
            "  %-13s %-8s %6s %9s %8s %8s %8s %7s" % (
                "workload", "size", "epochs", "converged", "decommit",
                "escalate", "promote", "gain")]
    epochs, gains = 0, []
    totals = dict.fromkeys(ACTIONS, 0)
    for workload in all_workloads():
        for size in SIZES:
            program = compile_source(workload.source(size))
            report = Jrpm().run_adaptive(program, name=workload.name,
                                         epochs=EPOCH_BUDGET, verify=True)
            log = report.adaptation
            where = "%s (%s)" % (workload.name, size)
            assert report.outputs_match(), where
            # the policy was consulted on the final plan set and left it
            assert log.epochs_run < EPOCH_BUDGET, (
                "%s: plan set still changing after %d epochs"
                % (where, log.epochs_run))
            # the settled plan is never materially slower than one-shot
            assert log.final_cycles <= log.initial_cycles * 1.02, (
                "%s: adaptive steady state %.0f cycles vs one-shot %.0f"
                % (where, log.final_cycles, log.initial_cycles))
            counts = log.decisions_by_action()
            rows.append("  %-13s %-8s %6d %9d %8d %8d %8d %6.3fx"
                        % ((workload.name, size, log.epochs_run,
                            log.converged_epoch)
                           + tuple(counts[action] for action in ACTIONS)
                           + (log.steady_state_gain,)))
            epochs += log.epochs_run
            gains.append(log.steady_state_gain)
            for action in ACTIONS:
                totals[action] += counts[action]
    rows.append("  %-13s %-8s %6d %9s %8d %8d %8d %6.3fx"
                % (("total", "%d runs" % len(gains), epochs, "")
                   + tuple(totals[action] for action in ACTIONS)
                   + (geomean(gains),)))
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
