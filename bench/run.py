"""Benchmark for the ``ualg`` command line.

    python3 bench/run.py --workload factorize-translations --seed 1 --seconds 50 --trace 0

Generates the workload's inputs from the seed, times several fresh worker
start-ups (``setup_s``), runs the op list in one worker process for about
``--seconds`` (a closed loop: one client, each op starts when the previous
one ends), checks every op's output against a naive recomputation, and
prints one JSON line per run: first the environment and workload details,
last ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are end to end; with ``--trace 1`` they are per layer, from
spans recorded around the public functions of each ``ualgebra`` module.
Op latencies are taken at reference speed (see ``speed``): each op's wall
time, scaled by how long a fixed reference kernel took around it in the
op processes, so that the host's slow and fast phases cancel out.  The
info line also gives the unscaled wall-clock figures.  ``setup_s`` is
plain wall time: start-up is mostly imports and page faults, which the
reference kernel does not track.
Details go to ``bench/out/result-<workload>-seed<seed>-trace<t>.json``,
and a traced run also keeps its spans in ``bench/out/spans-...jsonl.gz``.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracing
from check import Checker
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 4  # fresh start-ups timed before the run's own worker, and as many after it
WORKER_LIMIT_S = 150.0  # the worker is killed after this; unfinished ops fail
STARTED: list[subprocess.Popen] = []  # every worker, so that each exit path can stop them

LAYER_FUNCTIONS = (
    "translations.translation_semigroup",
    "translations.principal_translations",
    "factorization.least_factorization",
    "congruences.all_congruences",
    "congruences.is_congruence_direct",
    "congruences.congruence_generated",
    "congruences.is_congruence_via_translations",
    "congruences.largest_congruence_below",
    "partitions.all_partitions",
    "terms.evaluate",
    "terms.parse_term",
    "algebra.holds",
    "algebra.product",
    "algebra.quotient",
    "algebra.subalgebra_generated",
    "algebra.is_homomorphism",
    "algebra.FiniteAlgebra.from_json_dict",
    "fixtures.get_fixture",
    "malcev.clone_ternary_terms",
    "malcev.has_malcev_term",
    "malcev.group_malcev",
    "cli.main",
)
LAYER_COUNTS = (
    "translations.semigroup_members",
    "translations.s1_members",
    "congruences.congruences_found",
    "congruences.partitions_tested",
    "partitions.partitions_scanned",
    "malcev.clone_size",
    "algebra.FiniteAlgebra.apply.calls",
)
MODULES = ("cli", *tracing.MODULES)  # the op's root span is cli.main


def environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def start_worker(workdir: Path, *mode: str) -> tuple[subprocess.Popen, float]:
    """Spawn a worker in its own process group and wait for ``ready``;
    returns it and the seconds that took."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(workdir), *mode],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    STARTED.append(proc)
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, elapsed


def probe_setup(workdir: Path) -> list[float]:
    """Spawn-to-ready seconds of ``SETUP_PROBES`` fresh workers, one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        probe, elapsed = start_worker(workdir, "probe")
        probe.wait()
        probe.stdout.close()
        times.append(elapsed)
    return times


def stop(proc: subprocess.Popen) -> None:
    """Kill a worker and the op process it may have forked, and reap the worker."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics (Biometrika 69, 1982).

    The op mix puts tiers of very different cost next to each other, so the
    plain sample quantile is often one or two ops at a tier edge and moves
    with their noise; this estimate averages the samples around it.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    steps = 8  # midpoint rule inside each order statistic's interval
    logs = [
        [a * math.log(x) + b * math.log1p(-x) for x in ((i + (j + 0.5) / steps) / n for j in range(steps))]
        for i in range(n)
    ]
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def score(plan: dict, workdir: Path, killed: bool) -> tuple[list[dict], list[str], int, int]:
    """Check every op; returns the records, failure reasons, attempted and failed counts."""
    ops = plan["ops"]
    records = [json.loads(line) for line in (workdir / "records.jsonl").read_text().splitlines()]
    checker = Checker()
    first: dict[int, dict] = {}
    verdicts: dict[int, str | None] = {}
    reasons = []
    failed = 0
    for rec in records:
        index = rec["op"]
        if rec["pass"] == 0:
            first[index] = rec
            stdout = (workdir / "out" / f"{index}.json").read_text()
            verdicts[index] = checker.check(ops[index]["argv"], rec["code"], stdout)
            reason = verdicts[index]
        elif verdicts.get(index):
            reason = verdicts[index]
        elif rec["sha256"] != first[index]["sha256"] or rec["code"] != first[index]["code"]:
            reason = f"output differs from pass 0 in pass {rec['pass']}"
        else:
            reason = None
        if reason:
            failed += 1
            reasons.append(f"{' '.join(ops[index]['argv'])}: {reason} {rec['stderr']}".strip())
    attempted = len(records)
    if killed:  # the rest of the pass in progress never finished
        unfinished = len(ops) - len(records) % len(ops)
        attempted += unfinished
        failed += unfinished
        reasons.append(f"killed after {WORKER_LIMIT_S:.0f} s with {unfinished} op(s) unfinished")
    return records, reasons, attempted, failed


def local_reference(records: list[dict]) -> list[float]:
    """Per record, in run order, the mean reference time taken before the
    previous op, before this op and before the next one (just after it ends):
    one sample is a few milliseconds, and a long op outlasts it."""
    refs = [r["reference_s"] for r in records]
    return [statistics.fmean(refs[max(i - 1, 0) : i + 2]) for i in range(len(refs))]


def end_to_end(records: list[dict], setup: list[float], peak_rss_kb: int) -> tuple[dict, dict]:
    """Metrics from the untraced ops, in run order, and the start-up times ``setup``."""
    timed = [(r, ref) for r, ref in zip(records, local_reference(records))
             if not r["traced"] and r["code"] is not None]
    latencies = [r["seconds"] * speed.REFERENCE_S / ref for r, ref in timed]
    if len(latencies) < 2:
        return {}, {"latency": len(latencies)}
    metrics = {
        "latency_p50_s": (quantile(latencies, 0.5), "s"),
        "latency_p90_s": (quantile(latencies, 0.9), "s"),
        "throughput_ops_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    walls = [r["seconds"] for r, _ in timed]
    samples = {"latency": len(latencies), "beyond_p90": sum(x > metrics["latency_p90_s"][0] for x in latencies),
               "setup": len(setup), "passes": 1 + max(r["pass"] for r in records),
               "wall_clock": {"latency_p50_s": quantile(walls, 0.5), "latency_p90_s": quantile(walls, 0.9),
                              "throughput_ops_s": len(walls) / sum(walls),
                              "reference_s": statistics.median(r["reference_s"] for r, _ in timed)}}
    return metrics, samples


def per_layer(summary: dict, records: list[dict]) -> dict:
    traced_passes = summary["passes"] // 2
    wall = summary["walls"]["traced"]
    layers, counts = summary["layers"], summary["counts"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics = {}
    for name in LAYER_FUNCTIONS:
        entry = layers.get(name, empty)
        metrics[f"{name}.calls"] = (entry["calls"] / traced_passes, "count")
        metrics[f"{name}.total_s"] = (entry["total_s"] / traced_passes, "s")
        metrics[f"{name}.self_s"] = (entry["self_s"] / traced_passes, "s")
        metrics[f"{name}.self_share"] = (entry["self_s"] / wall, "ratio")
    tested = layers.get("congruences.is_congruence_direct", empty)["calls"]
    counts = {**counts, "congruences.partitions_tested": tested}
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0) / traced_passes, "count")
    found = counts.get("congruences.congruences_found", 0)
    metrics["congruences.accept_ratio"] = (found / tested if tested else 0.0, "ratio")
    for module in MODULES:
        own = sum(e["self_s"] for n, e in layers.items() if n.split(".", 1)[0] == module)
        metrics[f"module.{module}.self_share"] = (own / wall, "ratio")
    covered = sum(e["self_s"] for e in layers.values())
    metrics["trace.self_coverage"] = (covered / wall, "ratio")
    # per op, traced over untraced time; the median keeps one slow phase of the
    # machine during either pass from deciding the figure
    times: dict[tuple[int, bool], list[float]] = {}
    for r in records:
        times.setdefault((r["op"], r["traced"]), []).append(r["seconds"])
    ratios = [sum(times[op, True]) / sum(times[op, False]) for op, traced in times if traced and (op, False) in times]
    metrics["trace.overhead"] = (statistics.median(ratios) - 1, "ratio")
    metrics["trace.op_wall_s"] = (wall / traced_passes, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ualgebra" / "cli.py").is_file():
        sys.stderr.write(f"error: no ualgebra sources under {ROOT / 'src'}\n")
        return 2
    if not 1 <= args.seconds <= 60:
        sys.stderr.write("error: --seconds must be between 1 and 60\n")
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = perf_counter()
    env = environment(args)
    out_dir = BENCH / "out"
    workdir = out_dir / f"work-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        plan = generate(args.workload, args.seed, workdir.relative_to(ROOT))
        threads = max(int(op["argv"][op["argv"].index("--threads") + 1]) if "--threads" in op["argv"] else 1
                      for op in plan["ops"])
        if threads > env["nproc"]:
            sys.stderr.write(f"error: ops use {threads} worker threads, nproc is {env['nproc']}\n")
            return 2
        (workdir / "ops.json").write_text(json.dumps(plan))

        phases = {"generate_s": perf_counter() - started}
        setup = probe_setup(workdir)
        began = perf_counter()
        worker, elapsed = start_worker(workdir, "run", str(args.seconds), str(args.trace))
        setup.append(elapsed)
        worker.stdout.close()
        killed = False
        try:
            worker.wait(timeout=WORKER_LIMIT_S - (perf_counter() - began))
        except subprocess.TimeoutExpired:
            stop(worker)
            killed = True
        if worker.returncode != 0 and not killed:
            sys.stderr.write(f"error: worker exited with {worker.returncode}\n")
            return 2

        phases["worker_s"] = perf_counter() - began
        setup += probe_setup(workdir)  # the median spans the run, not one phase of the host
        checking = perf_counter()
        records, reasons, attempted, failed = score(plan, workdir, killed)
        phases["check_s"] = perf_counter() - checking
        summary = json.loads((workdir / "summary.json").read_text()) if not killed else None
        info = {"env": env, "ops_per_pass": len(plan["ops"]), "k_mix": plan["k_mix"],
                "commands": plan["commands"], "fail_rate": failed / attempted, "failures": reasons[:20], "phases_s": phases}
        if args.trace:
            metrics = per_layer(summary, records) if summary else {}
            info["samples"] = {"passes": summary["passes"], "traced_passes": summary["passes"] // 2} if summary else {}
        else:
            # a killed worker leaves no summary; take the largest reaped descendant
            rss = summary["peak_rss_kb"] if summary else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics, info["samples"] = end_to_end(records, setup, rss)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        per_op = [[r["pass"], r["op"], r["traced"], r["seconds"], r["reference_s"]] for r in records]
        detail = {**info, **result, "setup_samples_s": setup, "ops": plan["ops"], "records": per_op}
        (out_dir / f"result-{stem}.json").write_text(json.dumps(detail))
        if (workdir / "spans.jsonl.gz").exists():
            (workdir / "spans.jsonl.gz").replace(out_dir / f"spans-{stem}.jsonl.gz")
        print(json.dumps(info))
        print(json.dumps(result))
        return 0
    finally:
        for proc in STARTED:
            if proc.returncode is None:
                stop(proc)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
