"""The algrest benchmark: three seeded workloads, checked and timed.

Usage:
    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/algrest``.  One client
issues one operation at a time (closed loop).  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a separate
traced pass with ``--trace 1``.  The line before it carries informational
fields that nothing gates on.  README.md in this directory explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
QUERIES = HERE / "queries.py"
REFERENCE = HERE / "reference.json"

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

from child import MODES, READY, SPEED, TRACE  # noqa: E402
from queries import class_stream, digest, random_class  # noqa: E402
from speed import normalise  # noqa: E402

BUNDLED = ((4, 5, 6, 7), (4, 5, 6), (4, 5, 7))

COLD_FIXED = tuple(
    tuple(op.split())
    for op in (
        "basis 4 5 6 7",
        "basis 4 5 6",
        "basis 4 5 7",
        "basis 3 7 8",
        "basis 5 6 7 8",
        "basis 4 6 7 9",
        "basis 5 6 7 8 9",
        "basis 4 5 6 --ambient 5",
        "basis 4 5 6 7 --ambient 5",
        "basis 3 7 8 --ambient 5",
        "action-table 4 5 6 7",
        "action-table 4 5 6",
        "action-table 4 5 7",
    )
)
# Classes of (4, 5, 6, 7) for the seeded invariants, tangent and moser ops,
# and the verify-atlas seeds; reference.json covers all of them.
COLD_POOL_SIZE = 32
COLD_POOL_SEED = 2_000_003
ATLAS_SEEDS = tuple(range(1, 33))

# Real time of one round, speed probe included, at the commit that defined
# the benchmark (two cores, Python 3.11).  A run does
# max(2, round(seconds / ROUND_S)) rounds, so the work of a run is fixed by
# --seconds and a faster program does the same work in less time.
ROUND_S = {"cold-cli": 16.0, "atlas-verify": 6.0, "class-queries": 11.5}
MIN_ROUNDS = 2
OP_TIMEOUT_S = 150
DEADLINE_S = 160

WORKLOADS = tuple(ROUND_S)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_geomean_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_TIMED = (
    "linalg.rref",
    "linalg.solve_linear",
    "linalg.kernel_basis",
    "linalg.in_span",
    "linalg.solve_param_linear",
    "linalg.sturm_count",
    "curves.restriction_quotient",
    "curves.ideal_graded_basis",
    "curves.cached_basis",
    "curves.project",
    "symmetry.shift_action",
    "symmetry.orbit_tangent_space",
    "symmetry.TangentSpace.contains",
    "symmetry.action_table",
    "symmetry.moser_reduce",
    "invariants.index_of_isotropy",
    "invariants.lagrangian_tangency_order",
    "invariants.symplectic_multiplicity",
    "invariants.representable_by_symplectic",
    "atlas.verify_row",
    "atlas.verify_distinctness",
    "atlas.load_atlas",
    "forms.lie_derivative",
    "forms.pullback",
    "cli.main",
)
PER_LAYER = (
    tuple(
        (f"{name}.{stat}", unit)
        for name in _TIMED
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    )
    + (
        ("linalg.rref.cells", "count"),
        ("linalg.rref.nnz", "count"),
        ("linalg.rref.rank", "count"),
        ("curves.restriction_quotient.misses", "count"),
        ("curves.restriction_quotient.cols", "count"),
        ("curves.ideal_graded_basis.misses", "count"),
        ("curves.cached_basis.misses", "count"),
        ("curves.RestrictionBasis.builds", "count"),
        ("curves.RestrictionBasis.self_s", "s"),
        ("atlas.verify_row.max_s", "s"),
        ("cache.entries", "count"),
        ("trace.overhead_s", "s"),
    )
)
# Per-layer totals that combine across processes by max, not by sum.
_MAX_STATS = ("max_s", "cache.entries")

# A fixed hash seed keeps set and dict orders, and so the work done, the
# same from run to run; without written bytecode every process compiles
# the package, whatever the caller's environment, and the checkout stays
# clean.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


def restriction_text(terms) -> str:
    """CLI text of a class, e.g. 'a9 - 3/2*a13+ + 2*a10'."""
    parts = []
    for label, c in terms:
        body = label if abs(c) == 1 else f"{abs(c)}*{label}"
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return " ".join(parts)


def atlas_labels(lams) -> list[str]:
    name = "atlas_" + "_".join(map(str, lams)) + ".json"
    return list(json.loads((SRC / "algrest" / "data" / name).read_text())["aliases"])


def cold_pool():
    rng = random.Random(COLD_POOL_SEED)
    labels = atlas_labels((4, 5, 6, 7))
    return [random_class(rng, labels) for _ in range(COLD_POOL_SIZE)]


def class_ops(terms, kill) -> list[tuple[str, ...]]:
    """The invariants, tangent and moser ops on one class of (4, 5, 6, 7)."""
    option = "--restriction=" + restriction_text(terms)
    return [
        ("invariants", "4", "5", "6", "7", option, "--n", "2"),
        ("tangent", "4", "5", "6", "7", option),
        ("moser", "4", "5", "6", "7", option, "--kill", kill),
    ]


def workload_ops(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The ops of one round of a cold workload."""
    rng = random.Random(seed)
    if workload == "cold-cli":
        pool = cold_pool()
        seeded = [class_ops(*pool[rng.randrange(len(pool))])[i] for i in range(3)]
        return list(COLD_FIXED) + seeded
    ks = rng.sample(ATLAS_SEEDS, 3)
    return [verify_op(lams, k) for lams in BUNDLED for k in ks]


def verify_op(lams, k: int) -> tuple[str, ...]:
    return ("verify-atlas", *map(str, lams), "--seed", str(k))


def all_cold_ops() -> list[tuple[str, ...]]:
    """Every op any seed can issue; reference.json has a digest for each."""
    ops = list(COLD_FIXED)
    for terms, kill in cold_pool():
        ops.extend(class_ops(terms, kill))
    ops.extend(verify_op(lams, k) for lams in BUNDLED for k in ATLAS_SEEDS)
    return ops


def op_key(argv) -> str:
    return " ".join(argv)


@dataclass
class OpResult:
    argv: tuple[str, ...]
    seconds: float
    setup_s: float | None
    rc: int | None
    stdout: bytes
    trace: dict | None
    error: str | None


def _spawn(cmd: list[str]):
    """Start a child, wait for its ready marker, then for its exit.

    Returns (seconds to exit, ready, rc, stdout, stderr), where ready is
    None without a ready marker and otherwise (seconds to ready, the
    marker's further fields).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=CHILD_ENV
    )
    try:
        first = proc.stderr.readline()
        fields = first.decode(errors="replace").split()
        ready = None
        if fields and fields[0] == READY:
            ready = (time.perf_counter() - start, fields[1:])
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return time.perf_counter() - start, None, None, out, first + err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return time.perf_counter() - start, ready, proc.returncode, out, first + err


def _probe_state(fields: list[str]) -> tuple[int, float] | None:
    """(chunk count, chunk time) from a marker's fields, if it has them."""
    return (int(fields[0]), float(fields[1])) if len(fields) == 2 else None


def run_cold_op(argv, mode: str) -> OpResult:
    """One op in a fresh child in a mode of ``child.MODES``.  In ``probe``
    mode its time and set-up are normalised by the child's speed probe;
    otherwise they are real time."""
    cmd = [sys.executable, str(CHILD), str(SRC), mode, *argv]
    seconds, ready, rc, out, err = _spawn(cmd)
    snapshot = at_exit = None
    lines = err.decode(errors="replace").splitlines()
    for line in lines:
        if line.startswith(TRACE):
            snapshot = json.loads(line[len(TRACE):])
        elif line.startswith(SPEED):
            at_exit = _probe_state(line[len(SPEED):].split())
    error = setup_s = None
    if rc is None:
        error = f"timed out after {OP_TIMEOUT_S} s"
    elif ready is None:
        error = "no ready marker: " + " / ".join(lines[-3:])
    elif mode == "trace" and snapshot is None:
        error = "no trace from a traced op"
    elif mode != "probe":
        setup_s = ready[0]
    elif at_exit is None or _probe_state(ready[1]) is None:
        error = "no speed probe state from a probed op"
    else:
        setup_s = normalise(ready[0], *_probe_state(ready[1]))
        seconds = normalise(seconds, *at_exit)
    return OpResult(argv, seconds, setup_s, rc, out, snapshot, error)


def check_cold_op(res: OpResult, reference: dict) -> list[str]:
    """Exit code, reference digest, and checks independent of the engine."""
    key = op_key(res.argv)
    if res.error:
        return [f"{key}: {res.error}"]
    failures = []
    if res.rc != 0:
        failures.append(f"{key}: exit code {res.rc}")
    want = reference["ops"].get(key)
    got = digest(res.stdout)
    if want != got:
        failures.append(f"{key}: stdout digest {got}, reference {want}")
    text = res.stdout.decode(errors="replace")
    lams = tuple(int(v) for v in res.argv[1:] if v.isdigit())
    if res.argv[0] == "basis" and lams in BUNDLED and "--ambient" not in res.argv:
        printed = {line.split()[0] for line in text.splitlines()[1:] if line.strip()}
        if printed != set(atlas_labels(lams)):
            failures.append(f"{key}: labels {sorted(printed)} differ from the atlas aliases")
    if res.argv[0] == "verify-atlas":
        lines = text.strip().splitlines()
        if not lines or lines[-1] != "all checks passed":
            failures.append(f"{key}: verify-atlas did not print 'all checks passed'")
    return failures


def run_query_worker(seed: int, mode: str) -> dict:
    """One class-queries worker answering the stream of the seed, in a
    mode of ``child.MODES``."""
    cmd = [sys.executable, str(QUERIES), str(SRC), str(seed), mode]
    _, ready, rc, out, err = _spawn(cmd)
    state = None if ready is None else _probe_state(ready[1])
    if rc != 0 or ready is None or (state is None) != (mode != "probe"):
        tail = " / ".join(err.decode(errors="replace").splitlines()[-3:])
        return {"error": f"query worker: exit {rc}: {tail}"}
    result = json.loads(out)
    result["setup_s"] = ready[0] if state is None else normalise(ready[0], *state)
    return result


@dataclass
class Round:
    """One pass over a workload's ops."""

    seconds: list[float]  # per op; inf for an op that failed
    checks: list[list[str]]  # failed checks per op
    setups: list[float]
    rss_mb: float
    wall_s: float  # time of the timed ops
    digests: dict[str, str]  # output digest per op
    traces: dict[str, dict]  # per-layer totals per traced process


def cold_round(ops, mode: str, reference: dict) -> Round:
    seconds, checks, setups, digests, traces = [], [], [], {}, {}
    for argv in ops:
        res = run_cold_op(argv, mode)
        bad = check_cold_op(res, reference)
        checks.append(bad)
        seconds.append(math.inf if bad else res.seconds)
        if res.setup_s is not None:
            setups.append(res.setup_s)
        digests[op_key(argv)] = digest(res.stdout)
        if res.trace is not None:
            traces[op_key(argv)] = res.trace
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return Round(seconds, checks, setups, rss_mb, sum(seconds), digests, traces)


def query_round(seed: int, mode: str, reference: dict) -> Round:
    result = run_query_worker(seed, mode)
    count = len(class_stream(seed))
    if "error" in result:
        return Round([math.inf] * count, [[result["error"]]] * count, [], 0.0, math.inf, {}, {})
    checks, digests = [], {}
    for (lams, k), got, bad in zip(result["positions"], result["digests"], result["failures"]):
        key = ",".join(map(str, lams))
        want = reference["queries"][key][k]
        if got != want:
            bad = [f"query {lams} #{k}: digest {got}, reference {want}"] + bad
        checks.append(bad)
        digests[f"{key}#{k}"] = got
    seconds = [math.inf if bad else q for q, bad in zip(result["query_s"], checks)]
    traces = {} if result["trace"] is None else {"stream": result["trace"]}
    return Round(seconds, checks, [result["setup_s"]], result["maxrss_kb"] / 1024,
                 result["wall_s"], digests, traces)


def run_round(workload: str, seed: int, mode: str, reference: dict) -> Round:
    if workload == "class-queries":
        return query_round(seed, mode, reference)
    return cold_round(workload_ops(workload, seed), mode, reference)


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least 10 values beyond it,
    and that percentile; the maximum when that percentile would not lie
    above the median."""
    ordered = sorted(values)
    n = len(ordered)
    i = n - 11 if n - 11 >= n // 2 else n - 1
    return ordered[i], 100.0 * (i + 1) / n


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def src_lines() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "algrest").rglob("*.py"))
    )


def rounds_for(workload: str, seconds: int) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def _failures(rounds: list[Round]) -> tuple[int, list[str]]:
    checks = [bad for r in rounds for bad in r.checks]
    return sum(bool(bad) for bad in checks), [msg for bad in checks for msg in bad]


def measure(workload: str, seed: int, seconds: int, reference: dict):
    """Rounds of the same ops, each op in a fresh process every round; an
    op's latency is the median over the rounds of its normalised time."""
    rounds: list[Round] = []
    started = time.perf_counter()
    for _ in range(rounds_for(workload, seconds)):
        round_start = time.perf_counter()
        rounds.append(run_round(workload, seed, "probe", reference))
        now = time.perf_counter()
        if now - started + (now - round_start) > DEADLINE_S:
            break
    latency = [statistics.median(times) for times in zip(*(r.seconds for r in rounds))]
    tail_value, tail_pct = tail(latency)
    setups = [s for r in rounds for s in r.setups]
    metrics = {
        "setup_s": statistics.median(setups) if setups else math.inf,
        "wall_s": sum(latency),
        "op_geomean_s": geomean(latency),
        "query_p50_ms": 1000 * statistics.median(latency),
        "query_tail_ms": 1000 * tail_value,
        "peak_rss_mb": max(r.rss_mb for r in rounds),
    }
    failed, failures = _failures(rounds)
    info = {"rounds": len(rounds), "ops_per_round": len(latency),
            "tail_percentile": tail_pct, "digests": rounds[-1].digests}
    return metrics, len(rounds) * len(latency), failed, failures, info


def merge_traces(snapshots) -> dict:
    total: dict[str, float] = {}
    for snap in snapshots:
        for key, value in snap.items():
            if key.endswith(_MAX_STATS):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def trace_layers(workload: str, seed: int, reference: dict):
    """One untraced and one traced round of the same ops, both in real
    time: the speed probe would add its chunks to the traced spans."""
    plain = run_round(workload, seed, "plain", reference)
    traced = run_round(workload, seed, "trace", reference)
    failed, failures = _failures([plain, traced])
    if plain.digests != traced.digests:
        failures.append("traced and untraced output digests differ")
        failed = max(failed, 1)
    layers = merge_traces(traced.traces.values())
    layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
    info = {
        "ops_per_round": len(plain.seconds),
        "basis_builds": {k: t["curves.RestrictionBasis.builds"] for k, t in traced.traces.items()},
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
    }
    return layers, 2 * len(plain.seconds), failed, failures, info


def _value(v):
    return v if isinstance(v, int) or math.isfinite(v) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "algrest" / "cli.py").is_file():
        print(f"error: no algrest sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())

    if args.trace:
        values, attempted, failed, failures, info = trace_layers(args.workload, args.seed, reference)
        wanted = PER_LAYER
    else:
        values, attempted, failed, failures, info = measure(
            args.workload, args.seed, args.seconds, reference
        )
        wanted = END_TO_END

    info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        fail_ratio=failed / attempted,
        failures=failures[:20],
        src_lines=src_lines(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
    )
    print(json.dumps({"info": info}))
    metrics = {
        name: {"value": _value(values.get(name, 0)), "unit": unit} for name, unit in wanted
    }
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
