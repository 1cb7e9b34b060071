"""Tests of the benchmark itself: generator, checker and tracer.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import naive  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from check import Checker  # noqa: E402
from ualgebra import cli  # noqa: E402

SELF_TIME_TOLERANCE_S = 1e-6  # float rounding over a few thousand spans


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((directory / "alg").iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    a = workloads.generate(workload, 7, tmp_path / "a")
    b = workloads.generate(workload, 7, tmp_path / "b")
    c = workloads.generate(workload, 8, tmp_path / "c")
    assert json.dumps(a).replace("/a/", "/x/") == json.dumps(b).replace("/b/", "/x/")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    if a["algebra_files"]:
        assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert len(a["ops"]) >= 100  # at least ten ops beyond the 90th percentile
    assert sum(a["k_mix"].values()) == len(a["ops"])


def _run(argv):
    code, _elapsed, stdout, _stderr = worker.run_op(cli, argv)
    return code, stdout


@pytest.fixture
def factorize_op(tmp_path):
    plan = workloads.generate("factorize-translations", 3, tmp_path)
    op = next(op for op in plan["ops"] if op["argv"][0] == "factorize" and op["k"] == 5)
    return (op["argv"], *_run(op["argv"]))


def test_checker_accepts_the_program_output(factorize_op):
    argv, code, stdout = factorize_op
    assert Checker().check(argv, code, stdout) is None


def test_checker_rejects_a_wrong_kernel(factorize_op):
    argv, code, stdout = factorize_op
    doc = json.loads(stdout)
    identity = naive.format_partition(range(len(doc["f"])))  # a congruence below ker f, not the largest
    ker_f = naive.format_partition(naive.canon(doc["f"]))  # coarser than the answer, or equal only if closed
    wrong = identity if doc["kernel"] != identity else ker_f
    assert wrong != doc["kernel"]
    doc["kernel"] = wrong
    assert Checker().check(argv, code, json.dumps(doc)) is not None
    assert Checker().check(argv, 1, stdout) is not None  # unexpected exit code


def test_checker_rejects_a_wrong_congruence_list():
    argv = ["congruences", "Z8", "--json"]
    code, stdout = _run(argv)
    assert Checker().check(argv, code, stdout) is None
    doc = json.loads(stdout)
    doc["congruences"] = doc["congruences"][:-1]
    doc["count"] -= 1
    assert Checker().check(argv, code, json.dumps(doc)) is not None


def test_checker_rejects_a_semigroup_missing_a_member():
    argv = ["translations", "Sinf3", "--json"]
    code, stdout = _run(argv)
    assert Checker().check(argv, code, stdout) is None
    doc = json.loads(stdout)
    doc["members"].pop()
    doc["s_size"] -= 1
    assert Checker().check(argv, code, json.dumps(doc)) is not None


def test_checker_rejects_a_wrong_identity_witness():
    argv = ["check-identity", "Sinf3", "m(v1,i(v1))", "e", "--json"]
    code, stdout = _run(argv)
    assert code == 1 and Checker().check(argv, code, stdout) is None
    doc = json.loads(stdout)
    doc["counterexample"] = {"v1": 0}
    assert Checker().check(argv, code, json.dumps(doc)) is not None


def _traced(argv):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        code, elapsed, _stdout, _stderr = worker.run_op(cli, argv)
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    return code, elapsed, spans, counts


def test_self_times_of_one_op_sum_to_its_span(factorize_op):
    argv = factorize_op[0]
    code, elapsed, spans, counts = _traced(argv)
    assert code == 0
    selfs = tracing.self_times(spans)
    (root,) = [s for s in spans if s[4] is None]
    assert root[1] == "cli.main"
    assert abs(sum(selfs.values()) - (root[3] - root[2])) < SELF_TIME_TOLERANCE_S
    assert root[3] - root[2] <= elapsed
    names = {s[1] for s in spans}
    # reached only through names re-imported into other modules
    assert {"translations.translation_semigroup", "algebra.quotient", "fixtures.get_fixture"} <= names
    assert counts["translations.semigroup_members"] > 0
    assert counts["algebra.FiniteAlgebra.apply.calls"] > 0


def test_uninstall_restores_every_binding():
    import ualgebra
    from ualgebra import congruences, factorization

    before = (factorization.translation_semigroup, congruences.principal_translations, ualgebra.holds,
              cli.least_factorization, ualgebra.FiniteAlgebra.__dict__["apply"])
    tracer = tracing.Tracer()
    tracer.install()
    assert factorization.translation_semigroup is not before[0]
    assert cli.least_factorization is not before[3]
    tracer.uninstall()
    after = (factorization.translation_semigroup, congruences.principal_translations, ualgebra.holds,
             cli.least_factorization, ualgebra.FiniteAlgebra.__dict__["apply"])
    assert after == before


def test_pool_thread_spans_hang_under_the_congruence_enumeration():
    code, _elapsed, spans, counts = _traced(["congruences", "V4", "--threads", "2", "--json"])
    assert code == 0
    by_id = {s[0]: s for s in spans}
    direct = [s for s in spans if s[1] == "congruences.is_congruence_direct"]
    assert len(direct) == 15  # Bell(4)
    assert all(by_id[s[4]][1] == "congruences.all_congruences" for s in direct)
    assert counts["partitions.partitions_scanned"] == 30  # the threaded path enumerates twice
    assert counts["congruences.congruences_found"] == 5


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice-terms", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"passes": 2, "walls": {"traced": 1.0, "untraced": 0.5}, "layers": {}, "counts": {}}
    records = [{"op": 0, "traced": traced, "seconds": 1.0} for traced in (False, True)]
    layer = run.per_layer(summary, records)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, unit) for n, (_v, unit) in layer.items()]
    records = [{"seconds": 0.01 * (i + 1), "traced": False, "code": 0, "pass": 0, "reference_s": speed.REFERENCE_S}
               for i in range(100)]
    e2e, samples = run.end_to_end(records, [0.1, 0.2, 0.3], 2048)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, unit) for n, (_v, unit) in e2e.items()]
    assert samples["beyond_p90"] >= 10
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_latencies_are_scaled_to_reference_speed():
    """An op timed while the reference ran twice as long as usual counts half its wall time."""
    records = [{"seconds": 0.02, "traced": False, "code": 0, "pass": 0, "reference_s": 2 * speed.REFERENCE_S}
               for _ in range(20)]
    e2e, samples = run.end_to_end(records, [0.1], 2048)
    assert e2e["latency_p50_s"][0] == pytest.approx(0.01)
    assert e2e["throughput_ops_s"][0] == pytest.approx(100)
    assert samples["wall_clock"]["latency_p50_s"] == pytest.approx(0.02)
