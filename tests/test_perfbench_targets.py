"""The benchmark's traced run patches einlab functions by name; a rename here
would break ``perfbench/run.py --trace 1`` without failing any other test."""

import importlib
import importlib.util
import sys
import threading
from pathlib import Path

METRICS = Path(__file__).resolve().parents[1] / "perfbench" / "metrics.py"


def test_every_tracer_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_metrics", METRICS)
    metrics = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, metrics)
    spec.loader.exec_module(metrics)
    assert metrics.TARGETS
    missing = [
        (module, attr)
        for module, attr, _name, _counter in metrics.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_sweep_and_ensemble_call_through_module_attributes(monkeypatch):
    # the tracer's model.* and analytic.abs_sq_* spans wrap these two names
    # in einlab.ensemble: one build and one kernel call per (n, seed), on the
    # calling thread, since the tracer's span stack assumes one thread, even
    # when the kernel splits its grid across threads (n = 700 here)
    import einlab.analytic as analytic
    import einlab.ensemble as ensemble

    calls, built, threads, slice_threads = [], [], set(), set()
    build, kernel = ensemble.build_environment_random, ensemble.decoherence_abs_sq
    blocks = analytic._abs_sq_blocks

    def traced_build(n, seed, *args):
        built.append(build(n, seed, *args))
        calls.append(("build", n, seed))
        threads.add(threading.get_ident())
        return built[-1]

    def traced_kernel(env, times):
        calls.append(("kernel", env is built[-1]))
        threads.add(threading.get_ident())
        return kernel(env, times)

    def traced_blocks(*args):
        slice_threads.add(threading.get_ident())
        return blocks(*args)

    monkeypatch.setattr(analytic, "_ABS_SQ_WORKERS", 2)
    monkeypatch.setattr(analytic, "_abs_sq_blocks", traced_blocks)
    monkeypatch.setattr(ensemble, "build_environment_random", traced_build)
    monkeypatch.setattr(ensemble, "decoherence_abs_sq", traced_kernel)
    window = ensemble.TimeGrid(5.0, 6.0, 0.01)
    ensemble.scaling_sweep((0, 3, 700), 2, window)
    assert calls == [
        call for n in (0, 3, 700) for seed in (1, 2) for call in (("build", n, seed), ("kernel", True))
    ]
    calls.clear()
    ensemble.ensemble_statistics(700, (9, 2, 5), window)
    assert calls == [call for seed in (2, 5, 9) for call in (("build", 700, seed), ("kernel", True))]
    assert threads == {threading.get_ident()}
    # the split did run: some slices ran off the calling thread
    assert slice_threads - threads


def test_verify_calls_the_oracle_through_module_attributes(monkeypatch, tmp_path):
    # the tracer's oracle.* spans wrap einlab.cli.crosscheck and the three
    # einlab.oracle stages; its amplitudes counter reads the assembled state
    import einlab.cli as cli
    import einlab.oracle as oracle

    calls, addresses = [], set()

    def traced(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            amplitudes = getattr(result, "amplitudes", None)
            calls.append((name, getattr(amplitudes, "size", None)))
            if amplitudes is not None:
                addresses.add((name, amplitudes.ctypes.data))
            return result

        monkeypatch.setattr(module, name, wrapper)

    traced(cli, "crosscheck")
    for name in ("assemble_full_state", "evolve_full", "partial_trace_to_system"):
        traced(oracle, name)
    n = 5
    config = tmp_path / "verify.cfg"
    config.write_text(f"mode = verify\nn = {n}\nseed = 3\ng_max = 1.0\noutput = {tmp_path / 'v.csv'}\n")
    assert cli.main([str(config), "--quiet"]) == 0
    case = [
        ("assemble_full_state", 2 ** (n + 1)),
        ("evolve_full", 2 ** (n + 1)),
        ("partial_trace_to_system", None),
        ("crosscheck", None),
    ]
    assert calls == case * cli.VERIFY_CASES
    # one set of state buffers serves every case of the job
    assert len(addresses) == 2
