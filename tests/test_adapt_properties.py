"""Property: adaptive recompilation never changes program semantics.

Under aggressive policy knobs that force decommits and lock
escalations the normal thresholds would never trigger, the
:meth:`Jrpm.run_adaptive` final output must still equal the reference
interpreter oracle, as must the default policy's over every registered
workload (the registry sweep's one ``run_adaptive``, whose report
``tests/test_golden_reports.py`` pins).  Float outputs are compared
with the same tolerance :meth:`JrpmReport.outputs_match` uses
(reductions re-associate across CPUs).

The 26-workload sweeps are marked ``slow``; a representative subset
runs in the default tier.
"""

import pytest

from repro.adapt import ThresholdPolicy
from repro.core.pipeline import Jrpm, outputs_equal
from repro.hydra.config import HydraConfig
from repro.minijava import compile_source
from repro.workloads import lookup, names

from conftest import registry_case, registry_oracle

#: representative fast subset: one integer, one floating, one multimedia
FAST_SUBSET = ("BitOps", "LuFactor", "decJpeg")


def _oracle_check(name, policy=None, epochs=3, config=None):
    program = compile_source(lookup(name).source("small"))
    jrpm = Jrpm(config=config)
    report = jrpm.run_adaptive(program, name=name, policy=policy,
                               epochs=epochs, verify=True)
    return _assert_matches_oracle(name, report)


def _assert_matches_oracle(name, report):
    oracle = registry_oracle(name)
    assert report.sequential.output == oracle.output
    assert outputs_equal(report.tls.output, oracle.output), (
        "%s: adaptive TLS output diverged from the interpreter oracle"
        % name)
    assert report.tls.return_value == oracle.return_value \
        or isinstance(oracle.return_value, float)
    assert report.outputs_match()
    return report


@pytest.mark.parametrize("name", FAST_SUBSET)
def test_adaptive_output_matches_oracle_fast(name):
    _assert_matches_oracle(name, registry_case(name, "fast").adaptive)


@pytest.mark.slow
@pytest.mark.parametrize("name", names())
def test_adaptive_output_matches_oracle(name):
    _assert_matches_oracle(name, registry_case(name, "fast").adaptive)


@pytest.mark.slow
@pytest.mark.parametrize("name", names())
def test_forced_decommit_preserves_output(name):
    """decommit_threshold no STL can meet: every loop reverts to
    sequential mid-run, and the program must still be right."""
    policy = ThresholdPolicy(decommit_threshold=1000.0, cooldown=1,
                             promote=True)
    report = _oracle_check(name, policy=policy, epochs=3)
    # the aggressive threshold really did force adaptation wherever
    # anything was selected at all
    if report.adaptation.epochs[0].plans:
        assert report.adaptation.applied_decisions()


@pytest.mark.slow
@pytest.mark.parametrize("name", FAST_SUBSET)
def test_forced_escalation_preserves_output(name):
    """violation_cutoff of zero lock-escalates on the first violation
    seen; synchronized execution must stay semantics-preserving."""
    policy = ThresholdPolicy(violation_cutoff=0.0, cooldown=1)
    _oracle_check(name, policy=policy, epochs=3)


@pytest.mark.parametrize("name", FAST_SUBSET[:1])
def test_forced_decommit_fast(name):
    policy = ThresholdPolicy(decommit_threshold=1000.0, promote=False)
    report = _oracle_check(name, policy=policy, epochs=3)
    assert not report.plans           # nothing survived the threshold


def test_permissive_admission_still_preserves_output():
    """The deliberately mispredicting configuration (everything looks
    profitable to TEST) must never trade correctness for speed."""
    config = HydraConfig(min_predicted_speedup=0.05,
                         min_iterations_per_entry=1.0)
    for name in FAST_SUBSET:
        _oracle_check(name, epochs=3, config=config)
