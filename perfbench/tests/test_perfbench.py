"""Tests of the benchmark itself: tracer, seeded inputs and trace counts.

Run with: python3 -m pytest perfbench/tests
"""

import json
import signal
import sys
import time
import types

import queries
import run
import speed
from tracer import Tracer


def _fake_package(clock_box):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    mod.clock_box = clock_box
    exec(
        "def inner():\n"
        "    clock_box[0] += 3\n"
        "def outer():\n"
        "    clock_box[0] += 2\n"
        "    inner()\n"
        "    clock_box[0] += 1\n",
        vars(mod),
    )
    return pkg, mod


def test_self_time_of_nested_call(monkeypatch):
    now = [0.0]
    pkg, mod = _fake_package(now)
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    tracer = Tracer(
        package="fakepkg",
        targets=(("mod", "outer", "mod.outer"), ("mod", "inner", "mod.inner")),
        clock=lambda: now[0],
    )
    tracer.install()
    try:
        mod.outer()
        mod.inner()
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert snap["mod.outer.calls"] == 1
    assert snap["mod.outer.self_s"] == 3
    assert snap["mod.outer.max_s"] == 6
    assert snap["mod.inner.calls"] == 2
    assert snap["mod.inner.self_s"] == 6


def _algrest_attributes():
    import algrest.cli  # noqa: F401  (loads every module)
    from algrest.curves import RestrictionBasis
    from algrest.symmetry import TangentSpace

    attrs = {}
    for name, mod in sys.modules.items():
        if name == "algrest" or name.startswith("algrest."):
            for attr, value in vars(mod).items():
                attrs[(name, attr)] = value
    for cls in (RestrictionBasis, TangentSpace):
        for attr, value in vars(cls).items():
            attrs[(cls.__qualname__, attr)] = value
    return attrs


def test_install_rebinds_from_imports_and_uninstall_restores():
    import algrest.curves
    import algrest.linalg
    import algrest.symmetry

    before = _algrest_attributes()
    original_rref = algrest.linalg.rref
    original_contains = algrest.symmetry.TangentSpace.__dict__["contains"]
    tracer = Tracer()
    tracer.install()
    try:
        assert algrest.linalg.rref is not original_rref
        assert algrest.curves.rref is algrest.linalg.rref
        assert algrest.symmetry.rref is algrest.linalg.rref
        assert algrest.symmetry.TangentSpace.__dict__["contains"] is not original_contains
    finally:
        tracer.uninstall()
    after = _algrest_attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_seed_fixes_the_inputs():
    assert queries.class_stream(5) == queries.class_stream(5)
    assert queries.class_stream(5) != queries.class_stream(6)
    for workload in ("cold-cli", "atlas-verify"):
        assert run.workload_ops(workload, 5) == run.workload_ops(workload, 5)
        assert len({tuple(run.workload_ops(workload, seed)) for seed in range(5)}) > 1


def test_stream_visits_each_pooled_class_once_interleaved():
    stream = queries.class_stream(3)
    assert len(set(stream)) == len(stream) == queries.POOL_PER_CURVE * len(queries.CURVES)
    assert [c for c, _ in stream[:8]] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_tail_takes_ten_beyond_or_the_maximum():
    assert run.tail(list(range(300))) == (289, 100.0 * 290 / 300)
    assert run.tail(list(range(16)))[0] == 15


def test_restriction_text_parses_back():
    from algrest.curves import AlgRestriction, MonomialCurve, cached_basis
    from algrest.parser import parse_restriction

    basis = cached_basis(MonomialCurve((4, 5, 6, 7)))
    for terms, _ in run.cold_pool():
        text = run.restriction_text(terms)
        assert parse_restriction(text, basis) == AlgRestriction.from_coeffs(basis, dict(terms))


def test_trace_counts_repeat_and_show_the_double_build():
    argv = ("action-table", "4", "5", "6")
    first = run.run_cold_op(argv, "trace")
    second = run.run_cold_op(argv, "trace")
    assert first.error is None and second.error is None
    assert first.stdout == second.stdout
    counts = [
        {k: v for k, v in res.trace.items() if not k.endswith("_s")}
        for res in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["curves.RestrictionBasis.builds"] == 2
    assert counts[0]["cli.main.calls"] == 1


def test_normalise_removes_chunk_time_and_rescales():
    chunk = speed.NOMINAL_CHUNK_S
    # The host ran at half speed: 10 chunks took twice the nominal time.
    assert abs(speed.normalise(1.0, 10, 20 * chunk) - (1.0 - 20 * chunk) / 2) < 1e-12
    assert abs(speed.normalise(0.5, 4, 4 * chunk) - (0.5 - 4 * chunk)) < 1e-12


def test_probe_timer_interleaves_chunks_and_stops():
    handler = signal.getsignal(signal.SIGALRM)
    probe = speed.Probe()
    probe.start(interval=0.01)
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    probe.stop()
    chunks, chunk_s = probe.state()
    assert chunks >= 5 and chunk_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert speed._eliminate() == 7


def test_every_mode_gives_the_same_output_and_a_set_up_time():
    argv = ("basis", "4", "5", "6")
    results = [run.run_cold_op(argv, mode) for mode in run.MODES]
    for res in results:
        assert res.error is None and res.rc == 0
        assert 0 < res.setup_s < res.seconds
    assert len({res.stdout for res in results}) == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_a_checkout_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.HERE / "no-such-src")
    rc = run.main(["--workload", "cold-cli", "--seed", "1", "--seconds", "1"])
    assert rc != 0
    assert capsys.readouterr().out == ""
