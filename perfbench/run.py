#!/usr/bin/env python3
"""PILOTE end-to-end benchmark.

    python3 perfbench/run.py --workload device_stream --seed 7 \\
        --seconds 10 --trace 0 [--out result.json]

Builds perfbench/ (the pilote_perfbench binary plus the library from src/, with the Release
flags of the top-level CMakeLists.txt) into $CARGO_TARGET_DIR or
.bench_build, runs one workload, checks its outputs and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The line before it is the run's configuration; perfbench/compare.py
refuses to compare results whose configurations differ. A pilote_perfbench
process that aborts is never retried: its unfinished operations count as
failed.
perfbench/README.md describes the workloads and every metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402

# Every workload runs the same pipeline: SETUP_REPS set-ups, UPDATES
# updates under live traffic, then a serve phase of --seconds split across
# FORKS processes that feed the device stream. BENCHMARK.json's format
# asks every run for every end-to-end metric, so each workload measures
# all of them; the workloads differ in what `accuracy` scores.
# device_stream: the smoothed labels of the device stream. learn_update:
# the updated model on held-out rows of all five activities. Every other
# setting is a constant of the binary, reported in its config record.
WORKLOADS = ("device_stream", "learn_update")
SETUP_REPS = 3  # setup_s is their median
UPDATES = 5
FORKS = 5

# Output checks.
ACCURACY_FLOOR = {"device_stream": 0.4, "learn_update": 0.9}
RETENTION_FLOOR = 0.9


def run_budget_s(seconds):
    """Every process of one run shares this budget (the build excluded),
    so a hung process cannot push the run past its time limit. Only the
    serve phase grows with --seconds."""
    return 155.0 + seconds


UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "latency_p99_ms": "ms", "throughput_per_s": "1/s",
         "accuracy": "fraction", "completed_share": "fraction",
         "update_s": "s", "epoch_s": "s", "stall_ms": "ms",
         "retention": "fraction"}

PER_LAYER = {
    "setup.data_s": "s", "setup.pretrain_s": "s", "setup.learner_s": "s",
    "har.ingest_ms": "ms", "exec.predict_ms": "ms",
    "exec.predict_batch_ms": "ms", "exec.plan_share": "fraction",
    "tensor.gemm_flops_per_window": "count",
    "tensor.gemm_bytes_per_window": "bytes", "tensor.gemm_gflops": "GFLOP/s",
    "core.allocs_per_window": "count", "serve.submit_us": "us",
    "serve.queue_wait_ms_p50": "ms", "serve.queue_wait_ms_p90": "ms",
    "serve.predict_ms_p50": "ms", "serve.batch_size_mean": "count",
    "serve.queue_depth_max": "count", "bench.generator_lag_p90_ms": "ms",
    "trainer.epoch_ms": "ms", "trainer.self_ms_per_epoch": "ms",
    "losses.contrastive_ms_per_epoch": "ms",
    "losses.distillation_ms_per_epoch": "ms",
    "autograd.backward_ms_per_epoch": "ms",
    "losses.pairs_per_epoch": "count",
    "autograd.backward_nodes_per_step": "count",
    "core.learn_overhead_ms": "ms", "core.prototype_rebuild_ms": "ms",
    "exec.plan_capture_ms": "ms", "bench.trace_overhead_share": "fraction",
    "bench.blocking_path_share": "fraction",
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "pilote_perfbench")


class Process:
    """The records one benchmark process flushed, and how it ended."""

    def __init__(self, records, returncode):
        self.records = records
        self.finished = returncode == 0 and any(r["kind"] == "done"
                                                for r in records)
        self.kinds = {}
        for r in records:
            self.kinds.setdefault(r["kind"], []).append(r)

    def all(self, kind):
        return self.kinds.get(kind, [])

    def first(self, kind):
        found = self.all(kind)
        return found[0] if found else None

    def phase_end(self, name, pass_):
        return next((e for e in self.all("phase_end")
                     if e["name"] == name and e["pass"] == pass_), None)


def run_process(binary, flags, deadline):
    cmd = [binary] + ["--%s=%s" % kv for kv in sorted(flags.items())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            cwd=ROOT, text=True)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log("process killed after %.0f s" % timeout)
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            log("unparsable output line: %.120s" % line)
    if proc.returncode != 0:
        log("process %s %s exited with code %s"
            % (flags["phase"], flags["index"], proc.returncode))
    return Process(records, proc.returncode)


def run_workload(binary, workload, seed, seconds, trace):
    """One process per operation: the set-ups, then the updates (from the
    first saved cloud artifact), each followed by a serve fork (from the
    first saved update). Returns {phase: processes run} and, per phase,
    how many processes the run budget left unstarted."""
    scratch = os.path.join(build_dir(), "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    base = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "forks": FORKS,
            "serve_seconds": seconds / FORKS}
    deadline = time.monotonic() + run_budget_s(seconds)
    procs = {"setup": [], "update": [], "serve": []}
    skipped = {"setup": 0, "update": 0, "serve": 0}

    def run_one(phase, artifact, **flags):
        """Runs the phase's next process; True when it finished and
        `artifact` exists."""
        if time.monotonic() >= deadline:
            skipped[phase] += 1
            return False
        proc = run_process(binary, dict(base, phase=phase,
                                        index=len(procs[phase]),
                                        artifact=artifact, **flags),
                           deadline)
        procs[phase].append(proc)
        return proc.finished and os.path.exists(artifact)

    def own(phase):
        return os.path.join(scratch, "%s-%d.plta" % (phase, len(procs[phase])))

    try:
        cloud = None
        for _ in range(SETUP_REPS):
            artifact = own("setup")
            if run_one("setup", artifact) and cloud is None:
                cloud = artifact
        updated = None
        # Serve forks alternate with the updates, so the device stream is
        # sampled across the run instead of in one stretch of it: the host's
        # speed drifts over tens of seconds.
        for i in range(UPDATES + (1 if trace else 0)):
            if cloud is None:
                break
            artifact = own("update")
            if run_one("update", artifact, cloud=cloud) and updated is None:
                updated = artifact
            if updated and len(procs["serve"]) < FORKS:
                run_one("serve", updated)
        while updated and len(procs["serve"]) + skipped["serve"] < FORKS:
            run_one("serve", updated)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return procs, skipped


def windows_of(proc, phase, index=None):
    chunks = [r for r in proc.all("open_windows") if r["phase"] == phase
              and (index is None or r["index"] == index)]
    return {k: [x for c in chunks for x in c[k]]
            for k in ("due_ms", "sent_ms", "submit_us", "done_ms",
                      "queue_depth", "rejected", "correct")}


def account(procs, settings, trace):
    """Attempted and failed operations per kind: {kind: (attempted,
    failed)}. A set-up or update fails unless its process finished and
    reported success. A window fails when rejected, unresolved or lost: a
    process that aborted, or never ran, loses the windows it was planned
    to send."""
    kinds = {}
    setups = procs["setup"]
    kinds["setups"] = (settings["setup_reps"], settings["setup_reps"] - sum(
        1 for p in setups if p.finished and p.first("setup")))

    planned_updates = settings["updates"] + (1 if trace else 0)
    updates = procs["update"]
    kinds["updates"] = (planned_updates, planned_updates - sum(
        1 for p in updates if p.finished and p.first("update")
        and p.first("update")["ok"]))

    attempted = failed = 0
    planned_live = int(settings["live_sessions"]
                       * settings["live_min_seconds"])
    for i in range(planned_updates):
        proc = updates[i] if i < len(updates) else None
        live = windows_of(proc, "live") if proc else {"due_ms": []}
        sent = len(live["due_ms"])
        if sent:
            unresolved = sum(1 for d, r in zip(live["done_ms"],
                                               live["rejected"])
                             if d < 0 and not r)
            failed += harness.failed_ops(rejects=sum(live["rejected"]),
                                         lost=unresolved)
        # A process flushes its live windows at once, after the traffic
        # stops: all of them, or none when it aborted or never ran.
        lost = 0 if sent else planned_live
        attempted += sent + lost
        failed += lost

    fork_seconds = settings["serve_seconds"] / settings["forks"]
    for f in range(settings["forks"]):
        proc = procs["serve"][f] if f < len(procs["serve"]) else None
        chunks = proc.all("device_windows") if proc else []
        done = sum(len(c["latency_ms"]) for c in chunks)
        attempted += done
        if proc is None or not proc.finished:
            # The rest of the fork at the rate it ran; one window when it
            # never started.
            lost = 1
            if chunks and chunks[-1]["elapsed_s"] > 0:
                rate = done / chunks[-1]["elapsed_s"]
                rest = fork_seconds - chunks[-1]["elapsed_s"]
                lost = max(1, round(rate * rest))
            attempted += lost
            failed += lost
    kinds["windows"] = (attempted, min(failed, attempted))
    return kinds


def process_notes(procs, skipped, settings):
    """Which processes aborted, were never started for lack of budget, or
    never ran because no earlier process saved their input."""
    notes = []
    for phase, ps in procs.items():
        aborted = [i for i, p in enumerate(ps) if not p.finished]
        if aborted:
            notes.append("%s processes %s did not finish" % (phase, aborted))
        if skipped[phase]:
            notes.append("%d %s processes not started: run budget spent"
                         % (skipped[phase], phase))
    if not procs["serve"] and not skipped["serve"]:
        notes.append("%d serve forks never ran: no update saved a model"
                     % settings["forks"])
    return notes


def check(procs, workload, metrics):
    """Output checks; returns the failures (empty when correct)."""
    bad = []
    for proc in procs["serve"]:
        for s in proc.all("serve_setup"):
            if s["known_classes"] != 5:
                bad.append("served model knows %d classes"
                           % s["known_classes"])
    for proc in procs["update"]:
        u, c = proc.first("update"), proc.first("check")
        if c is not None and c["mismatched"]:
            bad.append("update %d: %d of %d rows: batched label != batch-1 "
                       "PredictBatch" % (c["index"], c["mismatched"],
                                         c["rows"]))
        if proc.finished and (c is None or c["rows"] < 1):
            bad.append("update process finished without a bit-identity "
                       "check")
        if u is None or not u["ok"]:
            continue
        epochs = proc.first("config")["learn_epochs"]
        if u["epochs"] != epochs:
            bad.append("update %d ran %d epochs, configured %d"
                       % (u["index"], u["epochs"], epochs))
        if u["known_classes"] != 5:
            bad.append("update %d: %d known classes after learning Run"
                       % (u["index"], u["known_classes"]))
    acc = metrics.get("accuracy")
    if acc is not None and acc < ACCURACY_FLOOR[workload]:
        bad.append("accuracy %.4f below floor %.2f"
                   % (acc, ACCURACY_FLOOR[workload]))
    ret = metrics.get("retention")
    if ret is not None and ret < RETENTION_FLOOR:
        bad.append("retention %.4f below floor %.2f" % (ret, RETENTION_FLOOR))
    return bad


def median_measured(values):
    """Median of the values that were measured (None: not measured)."""
    values = [v for v in values if v is not None]
    return harness.median(values) if values else None


def safe_percentile(values, q):
    if not values:
        return None
    try:
        return harness.percentile(values, q)
    except harness.InsufficientSamples as e:
        log(str(e))
        return None


def end_to_end(learn, serves, workload):
    m = {}
    if learn.all("setup"):
        m["setup_s"] = harness.median([s["total_s"]
                                       for s in learn.all("setup")])
    ok = [u for u in learn.all("update") if u["ok"] and not u["traced"]]
    if ok:
        m["update_s"] = harness.median([u["update_s"] for u in ok])
        m["epoch_s"] = harness.median([u["update_s"] / u["epochs"]
                                       for u in ok])
        m["retention"] = median_measured(
            [u["old_accuracy_after"] / u["old_accuracy_before"]
             if u["old_accuracy_before"] > 0 else None for u in ok])
        stalls = []
        for u in ok:
            live = windows_of(learn, "live", u["index"])
            stalls.append(harness.longest_stall(
                live["due_ms"], live["done_ms"], u["start_ms"], u["end_ms"]))
        m["stall_ms"] = median_measured(stalls)
    # Latency percentiles over every fork's windows; throughput is the
    # median of the forks' rates.
    samples = []
    rates = []
    correct = total = 0
    for proc in serves:
        chunks = [c for c in proc.all("device_windows")
                  if c["pass"] == "main"]
        samples += [x for c in chunks for x in c["latency_ms"]]
        for c in chunks:
            correct += sum(c["correct"])
            total += len(c["correct"])
        end = proc.phase_end("device", "main")
        if end is not None and end["elapsed_s"] > 0:
            rates.append(end["windows"] / end["elapsed_s"])
    for name, q in (("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9),
                    ("latency_p99_ms", 0.99)):
        m[name] = safe_percentile(samples, q)
    m["throughput_per_s"] = median_measured(rates)
    if workload == "learn_update":
        # The learning workload's accuracy is the model's: all five
        # activities on held-out rows after the update.
        if ok:
            m["accuracy"] = harness.median([u["accuracy"] for u in ok])
    elif total:
        m["accuracy"] = correct / total
    return {k: v for k, v in m.items() if v is not None}


def per_layer(learn, serves, workload):
    L = [r for r in learn.all("layers") if r["process"] == "update"]
    S = [p.first("layers") for p in serves if p.first("layers")]
    if not L or not S:
        return {}
    m = {}
    setups = learn.all("setup")
    for key in ("data_s", "pretrain_s", "learner_s"):
        m["setup." + key] = harness.median([s[key] for s in setups])
    for key in ("har.ingest_ms", "exec.predict_ms", "exec.predict_batch_ms",
                "core.prototype_rebuild_ms", "exec.plan_capture_ms"):
        m[key] = median_measured([harness.median(s[key]) for s in S])

    def total(records, key):
        return sum(r[key] for r in records)

    predicted = (total(S, "exec.plan_windows")
                 + total(S, "exec.fallback_windows"))
    if predicted:
        m["exec.plan_share"] = total(S, "exec.plan_windows") / predicted
    if total(S, "serve_windows"):
        m["tensor.gemm_flops_per_window"] = (total(S, "tensor.gemm_flops")
                                             / total(S, "serve_windows"))
        m["core.allocs_per_window"] = (total(S, "core.allocs")
                                       / total(S, "serve_windows"))
    m["tensor.gemm_bytes_per_window"] = median_measured(
        [s["tensor.gemm_bytes_per_window"] for s in S])
    if workload == "learn_update":
        if total(L, "train_ms") > 0:
            m["tensor.gemm_gflops"] = (total(L, "train_flops") / 1e6
                                       / total(L, "train_ms"))
    elif total(S, "tensor.gemm_seconds") > 0:
        m["tensor.gemm_gflops"] = (total(S, "tensor.gemm_flops") / 1e9
                                   / total(S, "tensor.gemm_seconds"))

    # Training: every traced update's spans and counters, per epoch.
    epochs = total(L, "epochs")
    if epochs:
        m["trainer.epoch_ms"] = total(L, "epoch_ms") / epochs
        m["trainer.self_ms_per_epoch"] = total(L, "epoch_self_ms") / epochs
        m["losses.contrastive_ms_per_epoch"] = (total(L, "contrastive_ms")
                                                / epochs)
        m["losses.distillation_ms_per_epoch"] = (total(L, "distillation_ms")
                                                 / epochs)
        m["autograd.backward_ms_per_epoch"] = total(L, "backward_ms") / epochs
        m["losses.pairs_per_epoch"] = total(L, "pairs") / epochs
    if total(L, "backward_calls"):
        m["autograd.backward_nodes_per_step"] = (total(L, "backward_nodes")
                                                 / total(L, "backward_calls"))
    overhead = [r["update_s"] * 1e3 - r["train_ms"] for r in L]
    m["core.learn_overhead_ms"] = harness.median(overhead)

    # Serve-layer numbers: the live sessions of every update.
    for key in ("serve.queue_wait_ms_p50", "serve.queue_wait_ms_p90",
                "serve.predict_ms_p50"):
        m[key] = harness.median([r[key] for r in L])
    if total(L, "batches"):
        m["serve.batch_size_mean"] = total(L, "predicted") / total(L, "batches")
    sent = [windows_of(learn, "live", u["index"]) for u in learn.all("update")]
    lags = [x for w in sent
            for x in harness.generator_lags(w["due_ms"], w["sent_ms"])]
    m["bench.generator_lag_p90_ms"] = safe_percentile(lags, 0.9)
    submit = [x for w in sent for x in w["submit_us"]]
    m["serve.submit_us"] = harness.median(submit) if submit else None
    depth = [x for w in sent for x in w["queue_depth"]]
    m["serve.queue_depth_max"] = max(depth) if depth else None

    if workload == "learn_update":
        untraced = median_measured([u["update_s"] for u in learn.all("update")
                                    if u["ok"] and not u["traced"]])
        if untraced:
            m["bench.trace_overhead_share"] = (
                harness.median([r["update_s"] for r in L]) / untraced - 1)
            # Training spans plus the update's own overhead, against the
            # untraced update.
            path_ms = [r["epoch_self_ms"] + r["contrastive_ms"]
                       + r["distillation_ms"] + r["backward_ms"]
                       + r["update_s"] * 1e3 - r["train_ms"] for r in L]
            m["bench.blocking_path_share"] = (harness.median(path_ms)
                                              / (untraced * 1e3))
    else:
        overhead, share = [], []
        for proc in serves:
            p50 = {}
            for pass_ in ("untraced", "traced"):
                lat = [x for c in proc.all("device_windows")
                       if c["pass"] == pass_ for x in c["latency_ms"]]
                p50[pass_] = safe_percentile(lat, 0.5)
            s = proc.first("layers")
            if p50["untraced"] and p50["traced"] and s:
                overhead.append(p50["traced"] / p50["untraced"] - 1)
                share.append((harness.median(s["har.ingest_ms"])
                              + harness.median(s["exec.predict_ms"]))
                             / p50["untraced"])
        m["bench.trace_overhead_share"] = median_measured(overhead)
        m["bench.blocking_path_share"] = median_measured(share)
    return {k: v for k, v in m.items() if v is not None}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write config + result JSON here")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    procs, skipped = run_workload(binary, args.workload, args.seed,
                                  args.seconds, args.trace)
    # One view over the set-up and update processes' records.
    learn = Process([r for p in procs["setup"] + procs["update"]
                     for r in p.records], 0)
    serves = procs["serve"]
    config = learn.first("config")
    if config is None:
        log("no configuration record")
        return 2
    config = {k: v for k, v in config.items()
              if k not in ("kind", "phase", "index")}
    config.update({"setup_reps": SETUP_REPS, "updates": UPDATES,
                   "serve_seconds": args.seconds})

    kinds = account(procs, config, args.trace)
    attempted = sum(a for a, _ in kinds.values())
    failed = sum(f for _, f in kinds.values())
    notes = process_notes(procs, skipped, config)
    notes += ["%s: %d of %d failed" % (k, f, a)
              for k, (a, f) in kinds.items() if f]
    e2e = end_to_end(learn, serves, args.workload)
    e2e["completed_share"] = harness.completed_share(kinds)
    bad = check(procs, args.workload, e2e)
    if args.trace:
        values = per_layer(learn, serves, args.workload)
        units = PER_LAYER
    else:
        values = e2e
        units = UNITS
    metrics = {k: {"value": values[k], "unit": units[k]}
               for k in units if k in values}
    missing = [k for k in units if k not in values]
    if missing:
        notes.append("not measured: " + ", ".join(missing))
    for n in notes + bad:
        log(n)

    result = {"correct": not bad, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"config": config, "result": result, "notes": notes,
                       "check_failures": bad}, f, indent=1)
    print(json.dumps({"config": config}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
