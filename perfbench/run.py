"""carnot benchmark: a single-process, closed-loop batch harness.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 56 --trace 0

Run from the root of a checkout.  One pass runs the workload to completion
before the next starts; passes repeat until ``--seconds`` have elapsed (at
least one pass).  With ``--trace 0`` the last stdout line reports the
end-to-end metrics of BENCHMARK.json: pass time is the mean over the passes,
set-up time the median of fresh processes run between them (see
setup_probe.py).  With ``--trace 1``
half the time runs untraced and half traced, the spans go to
``perfbench/out/``, and the last line reports the per-layer metrics.  The
exit code is 1 when a correctness gate fails, 2 on a usage or checkout
error (no carnot sources next to this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
NOTE = "shared, noisy sandbox: other tenants' load can move timings; compare medians of repeated runs"


def die(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def cap_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may use; call before
    numpy is imported."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, ncpu))
        except ValueError:
            cur = ncpu
        os.environ[var] = str(max(1, min(cur, ncpu)))
    return ncpu


def import_carnot():
    """Import carnot from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "carnot" / "__init__.py").is_file():
        die(f"no carnot sources at {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import carnot

    if Path(carnot.__file__).resolve().parent != (src / "carnot").resolve():
        die(f"imported carnot from {carnot.__file__}, not from {src}")
    return carnot


def machine(ncpu):
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "cpus_usable": ncpu,
        "cpus_total": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "note": NOTE,
    }


def setup_seconds(seed, count):
    """Set-up times of ``count`` fresh processes, each measuring itself."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_passes(pass_fn, inputs, seconds, outcomes, on_pass=None, after_pass=None):
    """Closed loop: passes back to back for about ``seconds`` of pass time; no
    pass starts that would overrun them by more than half a pass.
    ``after_pass`` gets the share of ``seconds`` done so far."""
    walls = []
    while not walls or sum(walls) + 0.5 * statistics.median(walls) < seconds:
        if on_pass is not None:
            on_pass(len(walls) + 1)
        t0 = time.perf_counter()
        outcomes.append(pass_fn(inputs))
        walls.append(time.perf_counter() - t0)
        if after_pass is not None:
            after_pass(sum(walls) / seconds)
    return walls


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ncpu = cap_threads()
    import_carnot()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    make_inputs, pass_fn = workloads.WORKLOADS[args.workload]
    info = machine(ncpu)
    print("machine: " + json.dumps(info, sort_keys=True), flush=True)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    descs, fns, plan = workloads.setup(args.seed)
    if tracer is not None:
        tracer.uninstall()
    inputs = make_inputs(args.seed, descs, fns, plan)

    outcomes = []
    if tracer is None:
        # One probe before the passes, one after, the rest spread between
        # them, so that set-up time samples the shared machine as the passes
        # do: its speed shifts by up to 1.5x in phases of seconds to minutes.
        probes = []

        def probe_due(share):
            while len(probes) < min(SETUP_PROBES - 1, 1 + int(share * (SETUP_PROBES - 1))):
                probes.extend(setup_seconds(args.seed, 1))

        probe_due(0.0)
        walls = run_passes(pass_fn, inputs, args.seconds, outcomes, after_pass=probe_due)
        probes += setup_seconds(args.seed, SETUP_PROBES - len(probes))
        setup_s = statistics.median(probes)
        traced_walls = []
    else:
        walls = run_passes(pass_fn, inputs, args.seconds / 2, outcomes)
        tracer.install()
        try:
            traced_walls = run_passes(pass_fn, inputs, args.seconds / 2, outcomes,
                                      on_pass=lambda i: setattr(tracer, "pass_id", i))
        finally:
            tracer.uninstall()

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    items = statistics.median(o.items for o in outcomes)
    reasons = [r for o in outcomes for r in o.hard_failures]
    if any(o.fingerprint != outcomes[0].fingerprint for o in outcomes):
        reasons.append("outputs differ between passes of one seed")
    correct = not reasons
    for r in reasons[:20]:
        print(f"FAIL {args.workload}: {r}", file=sys.stderr)

    # The mean, not the median: under the machine's two speeds the median
    # jumps between them as their mix crosses one half; the mean follows it.
    wall = statistics.fmean(walls)
    if tracer is None:
        metrics = {
            "wall_s": (wall, "s"),
            "items_per_s": (items / wall, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        declared = spec["end_to_end"]
    else:
        from layer_metrics import derive

        metrics, notes = derive(tracer, len(traced_walls), walls, traced_walls)
        declared = spec["per_layer"]
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace_{args.workload}_seed{args.seed}.jsonl"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "machine": info,
                                  "untraced_walls": walls, "traced_walls": traced_walls, **notes})
        print(f"trace: {len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}; " + json.dumps(notes))
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: u for k, (_, u) in metrics.items()}
    if want != got:
        die(f"metrics {sorted(set(want) ^ set(got))} differ from BENCHMARK.json")

    print(f"{args.workload} seed={args.seed}: {len(outcomes)} passes ({len(traced_walls)} traced), "
          f"{items:g} items per pass")
    print("  pass walls (s): " + " ".join(f"{w:.3f}" for w in walls + traced_walls))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_ratio = {failed / max(1, attempted):.6g} ratio ({failed} of {attempted} operations)")
    print(f"  correct = {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
