"""The benchmark's trace must keep working against chemovir.

``python3 bench/run.py --trace 1`` replaces each (module, attribute) of
``bench/spans.py``'s PATCHES by a traced wrapper; a refactor that drops
one of them would make the traced benchmark fail with AttributeError.
Its explicit-1d observer checks the mass recurrence of every step from
the step's state, dt and result, so those must keep their shape too.
"""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def bench_module(name):
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(BENCH)


@pytest.mark.parametrize("module,attribute", bench_module("spans").PATCHES)
def test_patched_name_resolves(module, attribute):
    target = importlib.import_module(f"chemovir.{module}")
    assert callable(getattr(target, attribute))


def test_traced_explicit_round_observes_every_step(tmp_path):
    spans, workloads = bench_module("spans"), bench_module("workloads")
    workload = workloads.Explicit1D(0, str(tmp_path))
    workload.T_END = 0.05
    workload.prepare()
    tracer = spans.Tracer(str(tmp_path))
    with tracer.installed(workloads.MODULES, workload.observers()):
        result = workload.execute()
    tracer.take()
    outcome = workload.check(result, traced=True)
    assert outcome.problems == []
    assert outcome.warnings == []
    assert len(workload._recurrence) == result.steps


def test_simulate_round_checks_pass(tmp_path):
    # the snapshot checks (masses to 1e-12, mirror symmetry, isotropy and
    # final_state.cvf at t_end) read every .cvf file through read_snapshot
    spans, workloads = bench_module("spans"), bench_module("workloads")

    class ShortSimulate3D(workloads.Simulate3D):
        # class attributes: __init__ writes the config file from them
        T_END, SNAPSHOTS = 0.1, 3
        attempted = 4

    workload = ShortSimulate3D(0, str(tmp_path))
    workload.prepare()
    tracer = spans.Tracer(str(tmp_path))
    with tracer.installed(workloads.MODULES, workload.observers()):
        result = workload.execute()
    tracer.take()
    outcome = workload.check(result, traced=True)
    assert outcome.problems == []
    assert outcome.warnings == []
    assert outcome.failed == 0
    assert sorted(result[1]) == ["final_state.cvf", "snapshot_t0.05.cvf", "snapshot_t0.1.cvf"]


def test_sweep_round_checks_pass(tmp_path):
    # the row checks: every row completes, bounded-plateau with a finite
    # energy above the threshold and no energy at or below it
    spans, workloads = bench_module("spans"), bench_module("workloads")
    workload = workloads.Sweep1D(0, str(tmp_path))
    workload.prepare()
    tracer = spans.Tracer(str(tmp_path))
    with tracer.installed(workloads.MODULES, workload.observers()):
        result = workload.execute()
    tracer.take()
    outcome = workload.check(result, traced=True)
    assert outcome.problems == []
    assert outcome.warnings == []
    assert outcome.failed == 0
    assert len(result.rows) == workload.attempted
