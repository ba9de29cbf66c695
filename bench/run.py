"""matseg benchmark: one command per workload run.

    python3 bench/run.py --workload label-suite --seed 1 --seconds 10 --trace 0

Set-up runs SETUPS times (``setup_s`` is the import time plus their
median), then whole rounds run until ``--seconds`` have passed (at least
one). Every output of a round is checked; a failed check fails its
operation. A summary goes to stderr; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1`` (the same work, with spans recorded).
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import benchenv  # noqa: E402  (before numpy: BLAS threads, import path)

SETUPS = 5
RATIOS = {
    "sampling.visible_ratio": ("sampling.visible", "sampling.drawn"),
    "crf.converged_ratio": ("crf.converged", "crf.infers"),
}


def end_to_end(import_s, setups, setup_trains, rounds) -> dict:
    trains = [r.train_time for r in rounds if r.train_time is not None] or setup_trains
    return {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(r.wall for r in rounds),
        "label_p50_s": statistics.median(t for r in rounds for t in r.label_times),
        "train_s": statistics.median(trains),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, n_rounds: int) -> dict:
    values = tracer.per_unit(SETUPS, n_rounds)
    for name, (num, den) in RATIOS.items():
        values[name] = values[num] / values[den] if values[den] else 0.0
    return values


def main(argv=None) -> int:
    with open(os.path.join(benchenv.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import tracing
    import workloads

    import_s = time.perf_counter() - _START
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work_root = os.path.join(benchenv.ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
        wl = workloads.WORKLOADS[args.workload](args.seed, tracer, workdir)
        setups, setup_trains = [], []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            trained = wl.setup()
            setups.append(time.perf_counter() - t0)
            if trained is not None:
                setup_trains.append(trained)
        tracer.phase = "round"
        rounds = []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < args.seconds:
            rounds.append(wl.run_round())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it

    e2e = end_to_end(import_s, setups, setup_trains, rounds)
    if args.trace:
        values, wanted = per_layer(tracer, len(rounds)), spec["per_layer"]
    else:
        values, wanted = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    unexpected = sum(r.unexpected for r in rounds)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed ({unexpected} unexpectedly); "
          f"process cpu {time.process_time():.2f} s in {time.perf_counter() - _START:.2f} s"
          + (f"; {len(tracer.spans)} spans" if args.trace else ""), file=sys.stderr)
    print("  " + " ".join(f"{k}={v:.4g}" for k, v in e2e.items()), file=sys.stderr)
    print("  label times " + " ".join(f"{t:.3g}" for r in rounds for t in sorted(r.label_times)),
          file=sys.stderr)
    print("  quality " + " ".join(f"{k}={v:.4g}" for k, v in rounds[-1].quality.items()),
          file=sys.stderr)
    for problem in sorted({p for r in rounds for p in r.problems}):
        print(f"  failed: {problem}", file=sys.stderr)
    for note in sorted({n for r in rounds for n in r.notes}):
        print(f"  seen: {note}", file=sys.stderr)
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
