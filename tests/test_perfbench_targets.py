"""The benchmark's traced run patches einlab functions by name; a rename here
would break ``perfbench/run.py --trace 1`` without failing any other test."""

import importlib
import threading
from collections import Counter, defaultdict


def test_every_tracer_target_resolves(perfbench_metrics):
    assert perfbench_metrics.TARGETS
    missing = [
        (module, attr)
        for module, attr, _name, _counter in perfbench_metrics.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_sweep_and_ensemble_call_through_module_attributes(monkeypatch):
    # the tracer's model.* and analytic.abs_sq_* spans wrap these two names
    # in einlab.ensemble.  Sweeps and ensembles hand their seeds to up to
    # _WORKERS threads.  An ensemble seed is built once and evaluated once,
    # build then kernel on one thread, and a kernel call runs the blocked
    # loop once on its own thread.  A sweep seed builds one bath per n, in
    # order, and runs one blocked loop for all of them on the same thread.
    # A one-seed ensemble runs on the calling thread, one loop on one CPU.
    import einlab.analytic as analytic
    import einlab.ensemble as ensemble

    workers = 2
    build, kernel, blocks = (
        ensemble.build_environment_random,
        ensemble.decoherence_abs_sq,
        analytic._abs_sq_blocks,
    )
    calls, loops, built = defaultdict(list), Counter(), {}
    barrier = [None]  # each thread's first build waits here, so every worker takes an item

    def traced_build(n, seed, *args):
        thread = threading.get_ident()
        if barrier[0] is not None and thread not in calls:
            barrier[0].wait()
        built[thread] = build(n, seed, *args)
        calls[thread].append(("build", n, seed))
        return built[thread]

    def traced_kernel(env, times):
        thread = threading.get_ident()
        calls[thread].append(("kernel", env is built.get(thread)))
        return kernel(env, times)

    def traced_blocks(*args):
        loops[threading.get_ident()] += 1
        return blocks(*args)

    def run(fn, *args, handed_out=True):
        calls.clear()
        loops.clear()
        built.clear()
        barrier[0] = threading.Barrier(workers, timeout=30) if handed_out else None
        fn(*args)
        return dict(calls), dict(loops)

    def check_hand_out(per_thread, per_thread_loops, items):
        assert Counter(c for seq in per_thread.values() for c in seq if c[0] == "build") == Counter(
            ("build", n, seed) for n, seed in items
        )
        for sequence in per_thread.values():
            assert [c[0] for c in sequence] == ["build", "kernel"] * (len(sequence) // 2)
            assert sequence[1::2] == [("kernel", True)] * (len(sequence) // 2)
        assert len(per_thread) == min(workers, len(items))
        # one blocked loop per kernel call, on the thread that made the call
        assert per_thread_loops == {t: len(seq) // 2 for t, seq in per_thread.items()}

    monkeypatch.setattr(analytic, "_WORKERS", workers)
    monkeypatch.setattr(analytic, "_abs_sq_blocks", traced_blocks)
    monkeypatch.setattr(ensemble, "build_environment_random", traced_build)
    monkeypatch.setattr(ensemble, "decoherence_abs_sq", traced_kernel)
    window = ensemble.TimeGrid(5.0, 6.0, 0.01)
    ns = (0, 3, 700)
    per_thread, per_loop = run(ensemble.scaling_sweep, ns, 2, window)
    assert Counter(c for seq in per_thread.values() for c in seq) == Counter(
        ("build", n, seed) for n in ns for seed in (1, 2)
    )
    for sequence in per_thread.values():
        seeds = [seed for _, _, seed in sequence[:: len(ns)]]
        assert sequence == [("build", n, seed) for seed in seeds for n in ns]
    assert len(per_thread) == workers
    assert per_loop == {t: len(seq) // len(ns) for t, seq in per_thread.items()}
    per_thread, per_loop = run(ensemble.ensemble_statistics, 700, (9, 2, 5), window)
    check_hand_out(per_thread, per_loop, [(700, seed) for seed in (2, 5, 9)])
    # one seed, one worker: everything on the calling thread
    per_thread, per_loop = run(ensemble.ensemble_statistics, 700, (4,), window, handed_out=False)
    assert per_thread == {threading.get_ident(): [("build", 700, 4), ("kernel", True)]}
    assert per_loop == {threading.get_ident(): 1}


def test_verify_calls_the_oracle_through_module_attributes(monkeypatch, tmp_path):
    # the tracer's oracle.* spans wrap einlab.cli.crosscheck and the three
    # einlab.oracle stages; its amplitudes counter reads the assembled state.
    # With two workers each case's four calls still run in order on one thread.
    import einlab.analytic as analytic
    import einlab.cli as cli
    import einlab.oracle as oracle

    workers = 2
    calls, times = defaultdict(list), []
    assembled, in_place = {}, []  # each thread's last assembled array; one check per stage
    both_started = threading.Barrier(workers, timeout=30)
    started = set()

    def traced(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            thread = threading.get_ident()
            if name == "assemble_full_state" and thread not in started:
                started.add(thread)
                both_started.wait()  # so that every worker takes a case
            result = fn(*args, **kwargs)
            amplitudes = getattr(result, "amplitudes", None)
            calls[thread].append((name, getattr(amplitudes, "size", None)))
            if name == "assemble_full_state":
                assembled[thread] = amplitudes
            elif name in ("evolve_full", "partial_trace_to_system"):
                # the stage reads the array its case assembled; evolve_full
                # also writes it
                written = amplitudes if name == "evolve_full" else args[0].amplitudes
                in_place.append(args[0].amplitudes is assembled[thread] and written is assembled[thread])
            if name == "crosscheck":
                times.append(args[2])
            return result

        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(analytic, "_WORKERS", workers)
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
    assert len(calls) == workers
    for sequence in calls.values():
        assert sequence == case * (len(sequence) // len(case))
    # each of the job's cases was crosschecked exactly once
    rows = (tmp_path / "v.csv").read_text().splitlines()[2:-1]
    assert sorted("%.17g" % t for t in times) == sorted(row.split(",")[2] for row in rows)
    assert len(rows) == cli.VERIFY_CASES
    # each case's one state, evolved and traced where it was assembled
    assert in_place == [True] * (2 * cli.VERIFY_CASES)
