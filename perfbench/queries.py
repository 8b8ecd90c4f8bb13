"""The class-queries worker: one warm process answering a stream of classes.

Usage: python3 perfbench/queries.py <src dir> <seed> <probe|plain|trace>

Set-up imports algrest and builds the basis and action table of every
curve in ``CURVES``, then writes a ready marker to stderr.  In ``trace``
mode the trace covers set-up and the stream; in ``probe`` mode the times
are normalised by a speed probe (``speed.py``) and the ready marker
carries the probe's chunk count and chunk time; ``plain`` does neither.  The worker then answers the stream of
the seed, one query per pooled class, and prints one JSON object to
stdout: per-query times, pool positions, output digests and failed
checks.  The checks and digests are computed after the timed stream, with
tracing off.

Classes come from a fixed pool per curve whose reference digests are
recorded in ``reference.json``.  The seed draws the order in which the
stream visits each pool; positions cycle through the curves.  Every run
answers the same classes, so the work of a run does not depend on the
seed, and a process never sees a class twice.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
from fractions import Fraction

from child import READY
from speed import NOMINAL_CHUNK_S, Probe

CURVES = ((4, 5, 6, 7), (4, 5, 6), (4, 5, 7), (5, 6, 7, 8, 9))
POOL_PER_CURVE = 75
POOL_SEED = 1_000_003
COEFFS = tuple(Fraction(p, q) for p in range(-5, 6) if p for q in (1, 2, 3))


def random_class(rng: random.Random, labels) -> tuple[tuple[tuple[str, Fraction], ...], str]:
    """1 to 4 distinct labels with small nonzero rational coefficients, and
    one of those labels marking the graded part a reduction removes."""
    chosen = rng.sample(list(labels), min(rng.randint(1, 4), len(labels)))
    terms = tuple((label, rng.choice(COEFFS)) for label in chosen)
    return terms, rng.choice(chosen)


def class_pool(lams, labels):
    rng = random.Random(POOL_SEED + sum(v * 31**i for i, v in enumerate(lams)))
    return [random_class(rng, labels) for _ in range(POOL_PER_CURVE)]


def class_stream(seed: int) -> list[tuple[int, int]]:
    """Every pooled class once, as (curve index, pool index): positions
    cycle through the curves, and each curve visits its pool in an order
    drawn from the seed."""
    rng = random.Random(seed)
    orders = [rng.sample(range(POOL_PER_CURVE), POOL_PER_CURVE) for _ in CURVES]
    return [(c, orders[c][i]) for i in range(POOL_PER_CURVE) for c in range(len(CURVES))]


def digest(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()[:16]


def _setup():
    from algrest import curves, symmetry

    bases = {}
    for lams in CURVES:
        curve = curves.MonomialCurve(lams)
        bases[lams] = (curve, curves.cached_basis(curve))
        symmetry.action_table(curve)
    return bases


def _query(curve, basis, terms, kill_label):
    """One query: the work of invariants --n, tangent and moser on one class."""
    from algrest import curves, invariants, symmetry

    a = curves.AlgRestriction.from_coeffs(basis, dict(terms))
    report = invariants.invariant_report(curve, a)
    tangent = symmetry.orbit_tangent_space(curve, a)
    tangent_dim = tangent.dim
    contains = [
        tangent.contains(curves.AlgRestriction.from_coeffs(basis, {label: 1}))
        for label in basis.labels
    ]
    kill = a.part(basis.element(kill_label).qdeg)
    moser = symmetry.moser_reduce(curve, a, kill)
    s = len(curve.lams)
    representable = [
        invariants.representable_by_symplectic(curve, a, n)
        for n in range(max(2, s - 2), s + 1)
    ]
    return a, kill, report, tangent, tangent_dim, contains, moser, representable


def describe(result) -> str:
    """Canonical text of a query's outputs; its digest is compared."""
    a, kill, report, tangent, tangent_dim, contains, moser, representable = result
    coeffs = ";".join(f"{s}:{f}" for s, f in sorted(moser.coefficients.items()))
    poles = ",".join(f"{s}:{c}" for s, c in sorted(moser.pole_counts.items()))
    return "|".join(
        [
            str(a),
            f"mu={report.mu} iota={report.iota} lt={report.lt} min={report.min_qdeg}",
            f"tangent={tangent_dim} shifts={','.join(map(str, tangent.shifts))}",
            "contains=" + "".join("1" if c else "0" for c in contains),
            f"kill={kill} consistent={moser.consistent} feasible={moser.feasible}",
            f"b={coeffs} poles={poles}",
            "representable=" + "".join("1" if r else "0" for r in representable),
        ]
    )


def check(result) -> list[str]:
    """Checks that do not trust the engine's own outputs."""
    from algrest import symmetry

    a, kill, report, _, _, _, moser, _ = result
    basis = a.basis
    failures = []
    euler = symmetry.shift_action(a, 0).coords
    expected = tuple(el.qdeg * c for el, c in zip(basis.elements, a.coords))
    if euler != expected:
        failures.append(f"Euler identity fails for {a}")
    if not 0 <= report.mu <= basis.dim:
        failures.append(f"mu = {report.mu} outside [0, {basis.dim}] for {a}")
    if moser.consistent:
        failures.extend(_check_moser(a, kill, moser))
    return failures


def _check_moser(a, kill, moser) -> list[str]:
    """sum_s b_s(t) L_{X_s}(a - t kill) = kill at t = 1/2 (or a nearby
    rational when some b_s has a pole there)."""
    from algrest import symmetry

    for t in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
        try:
            b = {s: f.evaluate(t) for s, f in moser.coefficients.items()}
        except ZeroDivisionError:
            continue
        at_t = a - kill * t
        total = [Fraction(0)] * a.basis.dim
        for s in moser.shifts:
            if b[s]:
                for i, v in enumerate(symmetry.shift_action(at_t, s).coords):
                    total[i] += b[s] * v
        if tuple(total) != kill.coords:
            return [f"Moser identity fails at t = {t} for {a}, kill {kill}"]
        return []
    return [f"every Moser coefficient check point is a pole for {a}"]


def run(src: str, seed: int, mode: str) -> dict:
    """In ``probe`` mode a speed probe runs through set-up and one chunk
    runs before each query and after the last; a query's time is
    normalised by the mean of the two chunks around it."""
    probe = Probe() if mode == "probe" else None
    if probe is not None:
        probe.start()
    sys.path.insert(0, src)
    import algrest.cli  # noqa: F401  (loads every module before tracing)

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results, times, chunks = [], [], []
    try:
        bases = _setup()
        if probe is None:
            print(READY, file=sys.stderr, flush=True)
        else:
            probe.stop()
            count, chunk_s = probe.state()
            print(f"{READY} {count} {chunk_s!r}", file=sys.stderr, flush=True)
        pools = {lams: class_pool(lams, bases[lams][1].labels) for lams in CURVES}
        stream = class_stream(seed)
        for c, k in stream:
            curve, basis = bases[CURVES[c]]
            terms, kill_label = pools[CURVES[c]][k]
            if probe is not None:
                chunks.append(probe.chunk())
            t0 = time.perf_counter()
            results.append(_query(curve, basis, terms, kill_label))
            times.append(time.perf_counter() - t0)
        if probe is not None:
            chunks.append(probe.chunk())
            times = [
                t * NOMINAL_CHUNK_S * 2 / (before + after)
                for t, before, after in zip(times, chunks, chunks[1:])
            ]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "wall_s": sum(times),
        "query_s": times,
        "positions": [[CURVES[c], k] for c, k in stream],
        "digests": [digest(describe(r).encode()) for r in results],
        "failures": [check(r) for r in results],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": None if tracer is None else tracer.snapshot(),
    }


if __name__ == "__main__":
    src, seed, mode = sys.argv[1:4]
    out = run(src, int(seed), mode)
    print(json.dumps(out))
