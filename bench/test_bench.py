"""Self-tests of the benchmark, on shrunk workloads (grid 5, a few scenarios).

    python3 -m pytest bench/test_bench.py

Each test runs bench/run.py as a subprocess, as the benchmark is run, so
together they take about half a minute.  The negative tests run a copy of the checkout
whose digest file or program has been corrupted, and expect the failure
to be counted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
SHRINK = {"compare_default": ["--grid", "5"], "region_d_default": ["--grid", "5"],
          "param_study": ["--grid", "5", "--scenarios", "3"]}


def bench(root, workload, trace=0, seed=1, out=None):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), *SHRINK[workload]]
    if out is not None:
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(tmp_path):
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work")
    for name in ("src", "scenarios", "bench"):
        shutil.copytree(ROOT / name, root / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def mutate(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    line = result_of(bench(ROOT, workload, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in wanted)


def _check_spans(spans):
    ids = {s["id"] for s in spans}
    assert len(ids) == len(spans)
    by_id = {s["id"]: s for s in spans}
    assert len({s["run"] for s in spans}) == 1
    roots = [s for s in spans if s["parent"] is None]
    assert [r["name"] for r in roots] == ["bench.child"]
    for s in spans:
        assert s["start_ns"] <= s["end_ns"]
        assert 0 <= s["dur_ns"] <= s["end_ns"] - s["start_ns"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"] and s["end_ns"] <= parent["end_ns"]
        if s["kind"] == "call":
            assert s["self_ns"] >= 0
    return by_id


@pytest.mark.parametrize("workload,chain", [
    ("compare_default", ["cli.cmd_compare", "region.sweep", "protocols.evaluate"]),
    ("region_d_default", ["cli.cmd_region", "region.sweep", "protocols.evaluate"]),
    ("param_study", ["bench.scenario", "region.sweep", "protocols.evaluate"]),
])
def test_traced_run_emits_well_formed_spans(tmp_path, workload, chain):
    out = tmp_path / "record.json"
    line = result_of(bench(ROOT, workload, trace=1, out=out))
    record = json.loads(out.read_text())[f"{workload}/trace1"]
    for key in ("commit", "machine", "scenario_sha256", "seed", "failed_frac"):
        assert key in record
    by_id = _check_spans(record["spans"])
    node = next(s for s in record["spans"] if s["name"] == chain[-1])
    names = [node["name"]]
    while by_id[node["parent"]]["name"] != "bench.child":
        node = by_id[node["parent"]]
        names.append(node["name"])
    assert names[::-1] == chain
    assert line["metrics"]["protocols.evaluate_calls"]["value"] == \
        line["metrics"]["protocols.enumerated_tuples"]["value"]


def test_timed_record_states_sample_counts(tmp_path):
    out = tmp_path / "record.json"
    result_of(bench(ROOT, "param_study", out=out))
    record = json.loads(out.read_text())["param_study/trace0"]
    assert record["samples"]["setup_s"]["n"] >= run.SETUP_PROBES + 1
    assert record["samples"]["scenario_latency_ms"]["n"] % 3 == 0
    assert len(record["scenario_sha256"]) == 3


def test_corrupted_digest_counts_as_failed(tmp_path):
    root = copy_checkout(tmp_path)
    digests = json.loads((root / "bench" / "digests.json").read_text())
    digests["compare_default"]["5"]["stdout"] = "0" * 64
    (root / "bench" / "digests.json").write_text(json.dumps(digests))
    line = result_of(bench(root, "compare_default"))
    assert line["correct"] is False and line["failed"] >= 1


def test_corrupted_csv_counts_as_failed(tmp_path):
    root = copy_checkout(tmp_path)
    mutate(root / "src" / "wiptsim" / "cli.py", 'f"{v:.8e}"', 'f"{v:.7e}"')
    line = result_of(bench(root, "region_d_default"))
    assert line["correct"] is False and line["failed"] >= 1


def test_sweep_drift_from_evaluate_counts_as_failed(tmp_path):
    root = copy_checkout(tmp_path)
    mutate(root / "src" / "wiptsim" / "region.py",
           "points.append(evaluate(scenario, protocol, controls))",
           "p = evaluate(scenario, protocol, controls)\n"
           "            points.append(OperatingPoint(p.rate * (1 + 2**-40), p.harvested_power,"
           " p.controls, p.protocol))")
    line = result_of(bench(root, "param_study", seed=7))
    assert line["correct"] is False and line["failed"] == line["attempted"] - run.SETUP_PROBES


def test_checkout_without_program_exits_nonzero(tmp_path):
    root = tmp_path / "bare"
    shutil.copytree(ROOT / "bench", root / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    proc = bench(root, "compare_default")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_high_percentile_keeps_ten_samples_beyond():
    assert run.high_percentile(list(range(10))) is None
    hi = run.high_percentile(list(range(100)))
    assert hi["p"] == 90.0 and hi["value"] == 89
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0
