"""Benchmark worker: runs one workload's ops through ``cli.main``.

    python3 bench/worker.py <workdir> probe
    python3 bench/worker.py <workdir> run <seconds> <trace>

Start-up imports ``ualgebra``, loads every algebra file of the workload
through ``FiniteAlgebra.from_json_dict`` and prints ``ready``; a probe
stops there.  A run then repeats the op list in whole passes, starting a
pass only if it should end within ``seconds`` (the first always runs).
With ``trace`` set, untraced and traced passes alternate and spans are
recorded in the traced ones.

Each op runs in a child forked from the ready worker, so every op starts
from the same heap, as each ``ualg`` call starts from a fresh one.  (In one
long-lived process, the heap a large op leaves behind slowed later
allocation-heavy ops by up to half, so figures depended on op order.)  The
child first runs a small untimed warm-up command, which pays the
copy-on-write faults of the pages every command touches, then times
``speed.reference()``, the machine's speed at that moment, and then
``cli.main(argv)`` with stdout and stderr captured: argument parsing, the
algorithm and the JSON emit.  (Timed in the worker itself instead, the
reference tracked the ops' slow phases far worse.)  The worker has no
threads when it forks; the congruence thread pool starts and ends inside
the child.  The worker and its children stay on one CPU, so the reference
and the op it scales always run on the same one.

One line per op goes to ``records.jsonl`` as it finishes, so a run killed at
its time limit still shows which ops completed.  The first pass also writes
each op's stdout to ``out/<index>.json`` for the checker; later passes
record only a digest, which must match.
"""

import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
WARM_UP = ["quotient", "Z4", "0,2|1,3", "--json"]


def run_op(cli, argv: list[str]) -> tuple[int | None, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raw exception is an op failure, not a worker failure
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    elapsed = perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def layer_totals(spans, counts: Counter) -> dict:
    """Per span name: calls, total (inclusive) and self seconds."""
    selfs = tracing.self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _parent, _op in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += selfs[sid]
    for name in tracing.GENERATORS:  # one call per generator, not per resumption
        if name in out:
            out[name]["calls"] = counts.get(name + ".calls", 0)
    return dict(out)


def child(cli, op: dict, index: int, workdir: Path, first: bool, tracer, keep_spans: bool) -> dict:
    """Body of the forked child: warm up, time the reference kernel, run the
    op, report one record."""
    run_op(cli, WARM_UP)
    reference_s = speed.reference()
    if tracer is not None:
        tracer.install()
        tracer.op = index
    code, elapsed, stdout, stderr = run_op(cli, op["argv"])
    record = {"code": code, "seconds": elapsed, "reference_s": reference_s,
              "sha256": hashlib.sha256(stdout.encode()).hexdigest(), "stderr": stderr[-500:]}
    if first:
        (workdir / "out" / f"{index}.json").write_text(stdout)
    if tracer is not None:
        tracer.uninstall()
        spans, counts = tracer.take()
        record["layers"] = layer_totals(spans, counts)
        record["counts"] = dict(counts)
        if keep_spans:
            with open(workdir / "spans" / f"{index}.jsonl", "w") as fh:
                fh.writelines(json.dumps(span) + "\n" for span in spans)
    return record


def fork_op(cli, op: dict, index: int, workdir: Path, first: bool, tracer, keep_spans: bool) -> dict:
    """Run one op in a forked child; the record gains the child's peak RSS."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            record = child(cli, op, index, workdir, first, tracer, keep_spans)
            with os.fdopen(write_end, "w") as pipe:
                pipe.write(json.dumps(record))
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        data = pipe.read()
    _pid, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        return {"code": None, "seconds": 0.0, "reference_s": speed.REFERENCE_S, "sha256": "",
                "stderr": f"op process ended with status {status}", "peak_rss_kb": usage.ru_maxrss}
    return {**json.loads(data), "peak_rss_kb": usage.ru_maxrss}


def main(argv: list[str]) -> int:
    workdir = Path(argv[0])
    mode = argv[1]
    sys.path.insert(0, str(ROOT / "src"))
    from ualgebra import cli
    from ualgebra.algebra import FiniteAlgebra

    plan = json.loads((workdir / "ops.json").read_text())
    for path in plan["algebra_files"]:
        FiniteAlgebra.from_json_dict(json.loads(Path(path).read_text()))
    print("ready", flush=True)
    if mode == "probe":
        return 0

    seconds, trace = float(argv[2]), argv[3] == "1"
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        (workdir / "spans").mkdir(exist_ok=True)
    ops = plan["ops"]
    (workdir / "out").mkdir(exist_ok=True)
    layers: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    counts: Counter = Counter()
    walls = {"untraced": 0.0, "traced": 0.0}
    peak_rss_kb = 0
    gc.collect()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # inherited by every op process
    gc.freeze()  # the children's collections leave the worker's objects (and their pages) alone
    start = perf_counter()
    passes = 0
    with open(workdir / "records.jsonl", "w") as records:
        while True:
            traced = trace and passes % 2 == 1
            for index, op in enumerate(ops):
                rec = fork_op(cli, op, index, workdir, passes == 0, tracer if traced else None, passes == 1)
                walls["traced" if traced else "untraced"] += rec["seconds"]
                peak_rss_kb = max(peak_rss_kb, rec["peak_rss_kb"])
                for name, entry in rec.pop("layers", {}).items():
                    for key, value in entry.items():
                        layers[name][key] += value
                counts.update(rec.pop("counts", {}))
                records.write(json.dumps({"pass": passes, "op": index, "traced": traced, **rec}) + "\n")
                records.flush()
            passes += 1
            unit = 2 if trace else 1  # a traced run measures untraced and traced passes in pairs
            elapsed = perf_counter() - start
            if passes % unit == 0 and elapsed + elapsed * unit / passes > seconds:
                break  # another pass (or pair) would not end within the run's seconds
    if trace:
        with gzip.open(workdir / "spans.jsonl.gz", "wt", compresslevel=1) as out:
            for index in range(len(ops)):
                out.write((workdir / "spans" / f"{index}.jsonl").read_text())
    summary = {"passes": passes, "peak_rss_kb": peak_rss_kb, "walls": walls, "layers": dict(layers),
               "counts": dict(counts)}
    (workdir / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
