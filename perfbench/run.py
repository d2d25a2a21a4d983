"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload toy-recipe --seed 1 --seconds 20 --trace 0

Run from the root of a genmatch checkout; the package is imported from its
``src`` directory. The process is a closed loop with one caller and one BLAS
thread: it repeats the workload's unit of work until the units' timed
seconds reach ``--seconds``, with samples of back-to-back set-ups (timed,
median per set-up reported) interleaved, and checks every unit's outputs.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the untraced units are followed by one set-up and one unit with every public
genmatch function wrapped in a span, and the metrics are the per-layer ones
of that traced unit; the spans are written to
``.perfbench_work/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
EXPECTED_PATH = BENCH_DIR / "expected.json"
# Losses may differ from the recorded ones by reduction-order rounding only.
LOSS_REL_TOL = 1e-5
PHASES = ("stage1", "stage2", "eval")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def bootstrap() -> None:
    """Import genmatch from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "genmatch" / "__init__.py").is_file():
        log(f"no genmatch sources under {src}")
        sys.exit(2)
    sys.path.insert(0, str(src))


def losses_match(got: list[float], want: list[float]) -> bool:
    return len(got) == len(want) and all(
        math.isclose(g, w, rel_tol=LOSS_REL_TOL, abs_tol=1e-12) for g, w in zip(got, want))


def rate(units, phase: str | None = None) -> float:
    """Instances per second over the units' timed phases (or one phase)."""
    picked = [u.phases[phase] if phase else (u.instances, u.seconds)
              for u in units if phase is None or phase in u.phases]
    return sum(n for n, _ in picked) / sum(s for _, s in picked) if picked else 0.0


def setup_sample(workload, tally, per_sample: int) -> tuple[float, object]:
    """Seconds per set-up over ``per_sample`` back-to-back set-ups, and the
    last set-up's state."""
    gc.collect()  # so that no sample pays for the garbage made before it
    tally.attempted += per_sample
    start = time.perf_counter()
    for _ in range(per_sample):
        state = workload.setup()
    seconds = (time.perf_counter() - start) / per_sample
    workload.check_setup(tally, state)
    return seconds, state


def measure(workload, tally, seconds: float, samples: int, per_sample: int):
    """Set-up samples interleaved with units: a fresh set-up sample before
    each unit while samples remain, units until their timed seconds reach
    ``seconds`` (at least one unit), then the samples still missing. On a
    shared machine the speed drifts over seconds to minutes, and samples
    spread over the whole run depend less on the moment they were taken.
    A unit that raises counts as failed and ends the units.

    Returns the seconds per set-up of each sample, the units and the last
    set-up's state."""
    setup_times, units, state = [], [], None
    while not units or sum(u.seconds for u in units) < seconds:
        if len(setup_times) < samples:
            state = None  # release the previous state before setting up again
            t, state = setup_sample(workload, tally, per_sample)
            setup_times.append(t)
        try:
            units.append(workload.unit(state, tally))
        except Exception:
            tally.failed += 1
            log(traceback.format_exc())
            break
    while len(setup_times) < samples:
        state = None
        t, state = setup_sample(workload, tally, per_sample)
        setup_times.append(t)
    return setup_times, units, state


def check_units(units, reference, recorded, tally) -> None:
    """Every unit's losses are finite, equal the seed's recorded ones when
    there is a record, and repeat the reference unit's, as do its reports."""
    for k, unit in enumerate(units):
        tally.check(all(math.isfinite(x) for x in unit.losses),
                    f"unit {k}: non-finite loss in {unit.losses}")
        if recorded is not None:
            tally.check(losses_match(unit.losses, recorded),
                        f"unit {k}: losses {unit.losses} differ from recorded {recorded}")
        if unit is not reference:
            tally.check(losses_match(unit.losses, reference.losses),
                        f"unit {k}: losses {unit.losses} differ from {reference.losses}")
            tally.check(unit.outputs == reference.outputs,
                        f"unit {k}: eval reports differ from the first unit's")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bootstrap()
    import tracer
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    recorded = None
    if EXPECTED_PATH.is_file():
        recorded = json.loads(EXPECTED_PATH.read_text()).get(args.workload, {}).get(str(args.seed))
    tally = Tally(log)
    WORK_DIR.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
        workload.prepare(args.seed, Path(scratch))
        setup_times, units, state = measure(workload, tally, args.seconds,
                                           workload.setup_samples, workload.setups_per_sample)
        if not units:
            log("no unit of work completed")
            return 1
        check_units(units, units[0], recorded, tally)
        extra = workload.check_run(state, units, tally)
        rates = {phase: rate(units, phase) for phase in PHASES
                 if any(phase in u.phases for u in units)}

        if args.trace:
            state = None
            rec = tracer.Recorder()
            counters = tracer.LayerCounters(rec)
            instrumentation = tracer.Instrumentation(rec, counters.hooks())
            instrumentation.install()
            try:
                _, traced, _ = measure(workload, tally, 0, 1, 1)
            finally:
                instrumentation.remove()
            if not traced:
                log("the traced unit did not complete")
                return 1
            check_units(traced, units[0], recorded, tally)
            rec.write(WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json")
            metrics = tracer.layer_metrics(rec, counters)
            untraced_s = statistics.median(u.seconds for u in units)
            metrics["trace.overhead_share"] = (traced[0].seconds / untraced_s - 1.0, "share")
            for phase in PHASES:
                metrics[f"phase.{phase}_inst_per_s"] = (rate(units, phase), "1/s")
        else:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "inst_per_s": (rate(units), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }

    print(f"# workload {args.workload} seed {args.seed}: {len(units)} timed units, "
          f"{len(setup_times)} set-up samples of {workload.setups_per_sample}")
    print("# seconds per set-up " + " ".join(f"{t:.4g}" for t in setup_times))
    print("# unit seconds " + " ".join(f"{u.seconds:.4g}" for u in units))
    for phase, value in rates.items():
        print(f"{phase}_inst_per_s {value:.6g} 1/s")
    for name, (value, unit) in {**extra, **metrics}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {tally.failed / max(tally.attempted, 1):.6g} share")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
