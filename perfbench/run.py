"""setprob benchmark: three seeded workloads, checked answers, one JSON line.

    python3 perfbench/run.py --workload {scenario,audit,window} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; setprob is imported from src/.
One process, one thread, a closed loop: the next op starts when the
previous one has returned.  Inputs are made from the seed before timing.

--trace 0 prints the end-to-end metrics.  Before timing, one untimed pass
runs every input once, checks it and hashes its verdicts, citations and
witness codes into the digest.  Then ops cycle through the inputs for S
seconds, and until each input has run MIN_REPS times, each op timed and
checked.  `attempted` and `failed` count inputs: an input fails if any
of its runs fails.  Latency percentiles and ops_per_s are taken over the inputs
(at least 100 per workload), each input's latency being the median of
its repetitions on the reference clock of `clock`.

--trace 1 prints the per-layer metrics.  It runs the whole input list
once untraced and twice with the wrappers of `layers` installed; the two
traced passes must give identical counts.  The work is fixed by the
seed, not by S, so that the counts repeat.

The last line of standard output is the result object; the lines before
it say what was measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Every input runs at least this many times in a timed run.
MIN_REPS = 3
SETUP_STARTS = 9


def _import_setprob() -> None:
    if not os.path.isfile(os.path.join(SRC, "setprob", "__init__.py")):
        raise SystemExit(f"perfbench: no setprob package under {SRC}")
    sys.path.insert(0, SRC)
    import setprob
    if os.path.dirname(os.path.dirname(os.path.abspath(setprob.__file__))) != SRC:
        raise SystemExit(f"perfbench: setprob was imported from {setprob.__file__}")


def _cold_start(workload: str) -> float:
    """Reference time a fresh interpreter takes to import setprob and
    build the workload's universes and bases, as it reports it."""
    # No timeout: waiting with one makes subprocess poll in 50 ms steps.
    done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
                          cwd=ROOT, check=True, capture_output=True, text=True)
    return float(done.stdout)


class Outcomes:
    """Checked inputs and failed inputs, split by whether the failure is a
    documented defect.

    Every input is run several times; it is attempted once and failed
    once if any of its runs fails.  So `attempted` and `failed` depend on
    the seed only, not on how many runs fitted in the time, and two runs
    of the same code agree on them."""

    def __init__(self):
        self.runs = 0
        self.seen: set[int] = set()
        self.bad: set[int] = set()
        self.known: set[int] = set()
        self.unexpected: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.seen)

    @property
    def failed(self) -> int:
        return len(self.bad)

    def record(self, k: int, op, problem: str | None) -> None:
        self.runs += 1
        self.seen.add(k)
        if problem is None:
            return
        self.bad.add(k)
        if op.defect:
            self.known.add(k)
        elif len(self.unexpected) < 5:
            self.unexpected.append(f"{op.kind}: {problem}")


def _execute(wl, op):
    """Run one op; returns (output, wall seconds, reference seconds,
    problem or None)."""
    scale = clock.scale()
    start = perf_counter()
    try:
        out = wl.run(op)
    except Exception as exc:  # an op that raises is a failed op
        wall = perf_counter() - start
        detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return None, wall, wall * scale, f"raised {detail}"
    wall = perf_counter() - start
    return out, wall, wall * scale, wl.check(op, out)


def _digest_pass(wl, outcomes: Outcomes) -> str:
    from layers import WitnessLog
    log = WitnessLog()
    log.install()
    digest = hashlib.sha256()
    try:
        for i, op in enumerate(wl.ops):
            out, _, _, problem = _execute(wl, op)
            outcomes.record(i, op, problem)
            text = wl.canon(op, out) if out is not None else f"error: {problem}"
            digest.update(f"{i}\n{text}\n".encode())
            digest.update("\n".join(log.take()).encode())
    finally:
        log.uninstall()
    return digest.hexdigest()[:16]


def timed_run(wl, seconds: float) -> tuple[dict, Outcomes]:
    outcomes = Outcomes()
    digest = _digest_pass(wl, outcomes)
    wall: list[list[float]] = [[] for _ in wl.ops]
    ref: list[list[float]] = [[] for _ in wl.ops]
    # Cold starts are spread over the run so that their median does not
    # hang on one moment of a shared machine.
    setup = []
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while perf_counter() < deadline or i < MIN_REPS * len(wl.ops):
        if len(setup) < SETUP_STARTS and \
                perf_counter() >= start + len(setup) * seconds / SETUP_STARTS:
            setup.append(_cold_start(wl.name))
        k = i % len(wl.ops)
        i += 1
        _, wall_s, ref_s, problem = _execute(wl, wl.ops[k])
        wall[k].append(wall_s)
        ref[k].append(ref_s)
        outcomes.record(k, wl.ops[k], problem)
    while len(setup) < SETUP_STARTS:
        setup.append(_cold_start(wl.name))

    # One latency per input: the median of its repetitions, each on the
    # reference clock.  The repetitions are a cycle apart.
    latencies = [statistics.median(r) for r in ref]
    wall_latencies = [statistics.median(r) for r in wall]
    failed_share = outcomes.failed / outcomes.attempted
    print(f"workload {wl.name}: {len(wl.ops)} inputs, digest {digest}")
    print(f"ops {outcomes.runs} ({i / len(wl.ops):.1f} per input, plus the "
          f"untimed pass) in {sum(map(sum, wall)):.3f} s of op time; "
          f"failed_share {failed_share:.4f} ({outcomes.failed} of "
          f"{outcomes.attempted} inputs failed, {len(outcomes.known)} of "
          "them the documented defect)")
    print(f"wall clock: ops_per_s {len(wall_latencies) / sum(wall_latencies):.3f}, "
          f"op_p50_ms {statistics.median(wall_latencies) * 1000:.3f}, "
          f"op_p90_ms {statistics.quantiles(wall_latencies, n=10)[8] * 1000:.3f}")
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1000, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": (1 - failed_share, "ratio"),
    }
    return metrics, outcomes


def traced_run(wl) -> tuple[dict, Outcomes]:
    from layers import Tracer
    outcomes = Outcomes()

    def one_pass() -> float:
        total = 0.0
        for k, op in enumerate(wl.ops):
            _, _, ref_s, problem = _execute(wl, op)
            outcomes.record(k, op, problem)
            total += ref_s
        return total

    for op in wl.ops[:10]:
        _execute(wl, op)  # warm caches and lazy set-up; checked in the passes below
    untraced = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass()
        metrics = tracer.metrics(overhead=untraced / traced)
        first, bases = tracer.exact_counts(), tracer.ratio_bases()
        tracer.reset()
        one_pass()
        second = tracer.exact_counts()
    finally:
        tracer.uninstall()
    differ = sorted(k for k in first.keys() | second.keys()
                    if first.get(k, 0) != second.get(k, 0))
    print(f"workload {wl.name}: {len(wl.ops)} inputs per pass, untraced "
          f"{untraced:.3f} s, traced {traced:.3f} s (reference clock)")
    print("ratio bases: " + ", ".join(f"{k}={v}" for k, v in bases.items()))
    if differ:
        outcomes.unexpected.append("traced counts differ between passes: "
                                   + ", ".join(differ[:8]))
    else:
        print(f"traced counts repeat exactly ({len(first)} counters)")
    return metrics, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scenario", "audit", "window"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_setprob()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, outcomes = traced_run(wl)
    else:
        metrics, outcomes = timed_run(wl, args.seconds)
    for problem in outcomes.unexpected:
        print(f"unexpected failure: {problem}")
    print(json.dumps({
        "correct": not outcomes.unexpected,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
