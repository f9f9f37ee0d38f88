#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; not part of Tier-1.

    python3 perfbench/smoke.py

1. Feeds every correctness gate a right and a deliberately wrong output and
   checks that only the wrong one fires.
2. Removes a traced tagkit name and checks that its layer metrics are
   reported missing instead of crashing.
3. Runs all three workloads at the 'smoke' profile, untraced and traced, in
   fresh processes, and checks each result line against BENCHMARK.json.
4. Runs the benchmark in a directory holding only BENCHMARK.json and
   perfbench/, where it must fail without printing a result.

Exits 0 when every step passes.
"""

import json
import math
import shutil
import subprocess
import sys

import run  # pins BLAS threads before numpy loads

sys.path[:0] = [str(run.SRC), str(run.HERE)]

import numpy as np  # noqa: E402

import gates  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tagkit import metrics as tk_metrics  # noqa: E402
from tagkit import model as tk_model  # noqa: E402

TIMEOUT = 180
problems: list[str] = []


def expect(name: str, failures: list[str], should_fire: bool) -> None:
    if bool(failures) != should_fire:
        problems.append(f"{name}: expected {'a failure' if should_fire else 'a pass'}, "
                        f"got {failures or 'a pass'}")


def gate_self_test(work) -> None:
    expect("same_digest ok", gates.same_digest(["ab", "ab"], "x"), False)
    expect("same_digest wrong", gates.same_digest(["ab", "ac"], "x"), True)
    expect("finite_maps ok", gates.finite_maps([0.0, 0.5, 1.0], "x"), False)
    expect("finite_maps nan", gates.finite_maps([0.5, math.nan], "x"), True)
    expect("finite_maps >1", gates.finite_maps([1.5], "x"), True)
    book = work / "ledger.json"
    expect("ledger first", gates.ledger(book, "k", "d1"), False)
    expect("ledger same", gates.ledger(book, "k", "d1"), False)
    expect("ledger wrong", gates.ledger(book, "k", "d2"), True)

    rng = np.random.default_rng(0)
    members = [rng.standard_normal((20, 3)) for _ in range(3)]
    mean = np.mean(np.stack(members), axis=0)
    expect("linear_identity ok", gates.linear_identity(mean, members, 1), False)
    expect("linear_identity wrong", gates.linear_identity(mean + 1e-6, members, 1), True)

    preds = np.round(rng.random((60, 4)), 1)  # ties exercise the tie rules
    labels = (rng.random((60, 4)) < 0.3).astype(np.uint8)
    labels[0], labels[1] = 1, 0
    report = tk_metrics.evaluate(preds, labels)
    ap, auc = report.per_class_ap, report.per_class_auc
    expect("metric_oracle ok", gates.metric_oracle(preds, labels, ap, auc, [0, 1, 2, 3]), False)
    expect("metric_oracle AP", gates.metric_oracle(preds, labels, ap + 1e-9, auc, [2]), True)
    expect("metric_oracle AUC", gates.metric_oracle(preds, labels, ap, auc - 1e-9, [2]), True)

    expect("equal ok", gates.equal(0.25, 0.25, "x"), False)
    expect("equal ulp", gates.equal(0.25, np.nextafter(0.25, 1.0), "x"), True)
    expect("exit_codes ok", gates.exit_codes({"train": 0}), False)
    expect("exit_codes wrong", gates.exit_codes({"train": 2}), True)
    (work / "present").write_text("x")
    expect("files_exist ok", gates.files_exist(work, ["present"]), False)
    expect("files_exist wrong", gates.files_exist(work, ["present", "absent"]), True)


def workload_gate_test(work) -> None:
    """Run one real repetition per workload, then corrupt its outputs."""
    recipe = workloads.RecipeTrain(1, "smoke", work)
    recipe.setup()
    rep = recipe.rep(work / "recipe")
    expect("recipe checks ok", sum(recipe.checks(rep).values(), []), False)
    rep.keep = rep.keep[:-1] + [math.nan]
    expect("recipe nan epoch mAP", recipe.checks(rep)["per_epoch_map_finite"], True)

    committee = workloads.CommitteeEval(1, "smoke", work)
    committee.setup()
    expect("committee identity ok", committee.after_setup_checks()["linear_identity"], False)
    rep = committee.rep(work / "committee")
    expect("committee checks ok", sum(committee.checks(rep).values(), []), False)
    points, sweep_maps, ensemble, report = rep.keep
    report.per_class_ap = report.per_class_ap + 1e-6
    report.map += 1e-6
    fired = committee.checks(rep)
    expect("committee wrong AP vs oracle", fired["metric_oracle"], True)
    expect("committee wrong ensemble mAP", fired["ensemble_matches_sweep"], True)
    rep.keep = (points, sweep_maps[:-1] + [math.inf], ensemble, report)
    expect("committee inf sweep mAP", committee.checks(rep)["sweep_maps_finite"], True)

    cli = workloads.CliLifecycle(1, "smoke", work / "cli")
    cli.setup()
    rep = cli.rep(work / "cli" / "rep")
    expect("cli checks ok", sum(cli.checks(rep).values(), []), False)
    d, codes = rep.keep
    eval_json = d / "eval.json"
    logged = json.loads(eval_json.read_text())
    eval_json.write_text(json.dumps(dict(logged, map=logged["map"] + 1e-9)))
    expect("cli eval mAP drift", cli.checks(rep)["eval_reproduces_logged_map"], True)
    cli.expected["train"] = "0" * 64
    expect("cli synth digest", cli.checks(rep)["synth_train_matches_library"], True)
    rep.keep = (d, dict(codes, **{"2:train": 3}))
    expect("cli exit code", cli.checks(rep)["exit_codes"], True)
    (d / "run" / "summary.json").unlink()
    expect("cli missing run file", cli.checks(rep)["run_files"], True)


def missing_name_test() -> None:
    saved = tk_model._assemble_batch
    del tk_model._assemble_batch
    try:
        tracer = tracing.Tracer()
    finally:
        tk_model._assemble_batch = saved
    _, missing = tracing.layer_metrics(tracer, 1, 1)
    if not {"augment.assemble_s", "augment.batches"} <= set(missing):
        problems.append(f"removed _assemble_batch not reported missing: {missing}")


def run_bench(cwd, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--profile", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def workload_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    if sorted(wanted[0]) != sorted(run.END_TO_END) or sorted(wanted[1]) != sorted(run.PER_LAYER):
        problems.append("BENCHMARK.json metric names differ from run.py's result keys")
    for entry in spec["workloads"]:
        for trace in (0, 1):
            proc = run_bench(run.ROOT, entry["name"], trace)
            tag = f"{entry['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} failed: "
                                + proc.stdout[-2000:])
            if sorted(result["metrics"]) != sorted(wanted[trace]):
                problems.append(f"{tag}: metrics {sorted(result['metrics'])}")
            print(f"  {tag}: ok, {result['attempted']} checks", flush=True)


def bare_directory_test(work) -> None:
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "recipe-train", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    work = run.ROOT / ".perfbench_work" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for step in (gate_self_test, workload_gate_test, missing_name_test, workload_runs,
                     bare_directory_test):
            print(f"{step.__name__} ...", flush=True)
            step(*((work,) if step not in (missing_name_test, workload_runs) else ()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("PROBLEM", p)
    print("smoke: " + ("FAILED" if problems else "all gates fire and all workloads pass"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
