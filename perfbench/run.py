#!/usr/bin/env python3
"""tagkit benchmark: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload recipe-train --seed 1 --seconds 20 --trace 0

Run it from the repository root. It pins BLAS to one thread, imports tagkit
from ./src, sets the workload up 3 to 5 times (reporting the median), then
repeats the workload's timed part until --seconds have passed (at least
three times) and reports medians. Every output is checked; failed checks
count in the result's ``failed``. With --trace 1, every other repetition
runs with span tracing on and the result holds the per-layer metrics
instead of the end-to-end ones. The last line of standard output is the
JSON result; the lines before it name every metric with its unit and give
the environment fingerprint. Full results, spans and a digest ledger go
to .perfbench_out/ in the repository root.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3

# The metrics of the result line; BENCHMARK.json lists the same names.
END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "final_map")
PER_LAYER = (
    "model.forward_s", "model.backward_s", "model.train_self_s", "model.predict_s",
    "model.predict_clips", "model.ckpt_bytes", "augment.assemble_s", "augment.batches",
    "sampler.plan_epoch_s", "sampler.plan_epoch_calls", "metrics.evaluate_s",
    "metrics.evaluate_calls", "metrics.classes_scored", "corpus.synth_s", "corpus.read_calls",
    "corpus.feature_tensor_s", "corpus.feature_tensor_calls", "labelfix.labels_added",
    "cli.load_run_calls", "trace.overhead_s",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("recipe-train", "committee-eval", "cli-lifecycle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "smoke"), default="full",
                   help="input sizes; 'smoke' is the tiny self-test size")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def source_digest(root: Path, files) -> str:
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of a git checkout, read from the files; None outside one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(args, src_sha: str, bench_sha: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": src_sha,
        "benchmark_sha256": bench_sha,
        "workload": args.workload,
        "seed": args.seed,
        "profile": args.profile,
        "seconds": args.seconds,
    }


class Tally:
    """Operations and checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def gate(self, name: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failures.append(f"{name}: " + "; ".join(failures))


def run(args, work: Path) -> int:
    import gates
    import tracing
    from workloads import WORKLOADS

    src_sha = source_digest(SRC, SRC.rglob("*.py"))
    bench_sha = source_digest(HERE, HERE.glob("*.py"))
    env = fingerprint(args, src_sha, bench_sha)
    tracer = tracing.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.profile, work)
    tally = Tally()

    def traced_call(fn, phase, *a):
        if tracer is None or phase is None:
            return fn(*a)
        tracer.phase = phase
        tracer.install()
        try:
            return fn(*a)
        finally:
            tracer.uninstall()

    setup_s, setup_digests = [], []
    for _ in range(workload.setups):
        t0 = time.perf_counter()
        traced_call(workload.setup, "setup")
        setup_s.append(time.perf_counter() - t0)
        setup_digests.append(workload.setup_digest())
    tally.gate("setup_reproducible", gates.same_digest(setup_digests, "set-up"))
    for name, failures in workload.after_setup_checks().items():
        tally.gate(name, failures)

    reps = []  # (wall, cpu, traced, Rep)
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and len(reps) % 2 == 1
        rep_dir = work / f"rep{len(reps)}"
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rep = traced_call(workload.rep, "timed" if traced else None, rep_dir)
        except Exception:
            traceback.print_exc()
            tally.attempted += 1
            tally.failures.append(f"repetition {len(reps)} raised; see standard error")
            break
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        tally.attempted += rep.ops
        tally.gate("final_map_finite", gates.finite_maps([rep.final_map], "final"))
        for name, failures in workload.checks(rep).items():
            tally.gate(name, failures)
        rep.keep = None  # gate inputs; holding them would grow memory with the rep count
        shutil.rmtree(rep_dir, ignore_errors=True)
        reps.append((wall, cpu, traced, rep))
    if not reps:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    digests = [r.digest for *_, r in reps]
    tally.gate("digest_reproducible", gates.same_digest(digests, "output"))
    key = (f"{args.workload}/{args.profile}/seed={args.seed}"
           f"/src={src_sha[:16]}/bench={bench_sha[:16]}")
    tally.gate("digest_matches_earlier_runs", gates.ledger(OUT / "digests.json", key, digests[0]))

    plain = [(w, c, r) for w, c, t, r in reps if not t]
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "wall_s": (median([w for w, _, _ in plain]), "s"),
        "cpu_s": (median([c for _, c, _ in plain]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_map": (median([r.final_map for *_, r in plain]), "mAP"),
    }
    for name, (_, unit) in plain[0][2].extras.items():
        metrics[name] = (median([r.extras[name][0] for *_, r in plain]), unit)
    metrics["ops_failed_frac"] = (len(tally.failures) / tally.attempted, "fraction")

    missing = []
    if tracer is not None:
        traced_walls = [w for w, _, t, _ in reps if t]
        layers, missing = tracing.layer_metrics(tracer, workload.setups, len(traced_walls))
        metrics.update(layers)
        metrics["trace.overhead_s"] = (median(traced_walls) - metrics["wall_s"][0], "s")
        metrics["trace.traced_wall_s"] = (median(traced_walls), "s")

    result_keys = PER_LAYER if tracer is not None else END_TO_END
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in result_keys if k in metrics},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.profile}"
    record = {
        "fingerprint": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "missing_layer_metrics": missing,
        "failures": tally.failures,
        "setup_s": setup_s,
        "reps": [{"wall_s": w, "cpu_s": c, "traced": t, "digest": r.digest,
                  "final_map": r.final_map} for w, c, t, r in reps],
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.span_records()) + "\n")

    print("fingerprint " + json.dumps(env, sort_keys=True))
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for name in missing:
        print(f"missing {name}: a traced tagkit name no longer exists")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value!r} {unit}")
    print(f"reps {len(reps)} ({sum(t for _, _, t, _ in reps)} traced), "
          f"digest {digests[0][:16]}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tagkit" / "__init__.py").is_file():
        print(f"perfbench: no tagkit sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
