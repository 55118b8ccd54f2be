"""wiptsim benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload compare_default --seed 1 --seconds 10 --trace 0

Run from anywhere; paths resolve from this file.  Each op runs in a fresh
child process (bench/child.py), one at a time, from this one parent
process.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
``end_to_end`` metric of BENCHMARK.json with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``.

``--trace 0`` spawns five set-up probes, then op children until their
wall times add up to ``--seconds`` (at least one).  ``--trace 1`` spawns one
untraced op, one traced op and one allocation pass, whatever
``--seconds`` says.  Every output is checked against bench/digests.json
or, for param_study, against the scalar ``evaluate``; a mismatch, a
non-zero exit or a crash counts as a failed op.

``--out PATH`` also writes the full results record (machine, versions,
commit, scenario digests, sample counts, percentiles and, when traced,
every span) into a JSON file keyed by workload and trace mode.
``--grid`` and ``--scenarios`` shrink a workload for the self-tests.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workload as wl  # noqa: E402

SETUP_PROBES = 5
RUN_BUDGET_S = 170.0  # every child is killed once the run has used this much
CHILD = str(HERE / "child.py")
DIGESTS = HERE / "digests.json"
SCENARIO_FILE = "scenarios/default.toml"
CSV_NAMES = ("region_d.csv", "region_d.frontier.csv")


class Child:
    """Outcome of one child process."""

    def __init__(self, wall_ns, spawn_ns, maxrss_kb, exit_code, result, stderr):
        self.wall_s = wall_ns / 1e9
        self.spawn_ns = spawn_ns
        self.maxrss_mb = maxrss_kb / 1024.0
        self.exit_code = exit_code
        self.result = result
        self.stderr = stderr

    @property
    def setup_s(self):
        return (self.result["setup_ns"] - self.spawn_ns) / 1e9

    @property
    def work_s(self):
        return (self.result["done_ns"] - self.result["setup_ns"]) / 1e9


def spawn(spec, work, deadline):
    """Run one child to completion; wall time and ru_maxrss come from wait4."""
    work.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, result_path=str(work / "result.json"))
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)],
                                stdout=out, stderr=err, cwd=str(ROOT))
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = work / "result.json"
    result = None
    if proc.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    stderr = (work / "stderr").read_text(encoding="utf-8", errors="replace")[-2000:]
    return Child(end_ns - spawn_ns, spawn_ns, usage.ru_maxrss, proc.returncode, result, stderr)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def summary_digest(summary):
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


class Run:
    """One benchmark invocation: spawns children and checks every output."""

    def __init__(self, args, digests):
        self.args = args
        self.digests = digests
        self.work = ROOT / ".bench_work" / f"run-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.run_id = uuid.uuid4().hex
        self.n_children = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.csv_bytes = 0  # summed over the CSVs checked so far
        self._study = None
        self._study_summaries = None

    # -- spawning ------------------------------------------------------

    def spec(self, mode, trace=False):
        a = self.args
        return {"workload": a.workload, "mode": mode, "trace": trace, "seed": a.seed,
                "grid": a.grid, "scenarios": a.scenarios, "run_id": self.run_id,
                "scenario_path": str(ROOT / SCENARIO_FILE)}

    def child(self, mode, trace=False):
        work = self.work / f"c{self.n_children}"
        self.n_children += 1
        spec = self.spec(mode, trace)
        if self.args.workload == "region_d_default":
            spec["out_path"] = str(work / CSV_NAMES[0])
        child = spawn(spec, work, self.deadline)
        return child, work

    def probe(self):
        child, work = self.child("setup")
        shutil.rmtree(work, ignore_errors=True)
        self.attempted += 1
        if child.result is None:
            self.fail(1, f"set-up probe exited {child.exit_code}: {child.stderr}")
            return None
        return child

    def op(self, trace=False):
        child, work = self.child("op", trace)
        try:
            self.check(child, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return child

    def alloc(self):
        child, work = self.child("alloc")
        shutil.rmtree(work, ignore_errors=True)
        if child.result is None:
            self.attempted += 1
            self.fail(1, f"allocation pass exited {child.exit_code}: {child.stderr}")
        return child

    def fail(self, n, reason):
        self.failed += n
        self.failures.append(reason)

    # -- correctness ---------------------------------------------------

    def check(self, child, work):
        """Count this child's ops and every one that failed."""
        a = self.args
        study = a.workload == "param_study"
        ops = a.scenarios if study else 1
        self.attempted += ops
        if child.result is None:
            self.fail(ops, f"child exited {child.exit_code}: {child.stderr}")
            return
        if study:
            self.check_study(child.result)
            return
        if child.result.get("rc") != 0:
            self.fail(1, f"wiptsim exited {child.result.get('rc')}: {child.stderr}")
            return
        expected = self.digests.get(a.workload, {}).get(str(a.grid))
        if expected is None:
            self.fail(1, f"no stored digest for {a.workload} at grid {a.grid}")
            return
        if a.workload == "compare_default":
            got = {"stdout": sha256_file(work / "stdout")}
        else:
            got = {}
            for name in CSV_NAMES:
                path = work / name
                if not path.exists():
                    self.fail(1, f"{name} was not written")
                    return
                got[name] = sha256_file(path)
                self.csv_bytes += path.stat().st_size
        if got != expected:
            self.fail(1, f"output digest mismatch: got {got}, expected {expected}")

    def study(self):
        """The param_study scenarios, regenerated here for the oracle check."""
        if self._study is None:
            self._study = wl.study_scenarios(self.args.seed, self.args.scenarios, wiptsim())
        return self._study

    def check_study(self, result):
        a = self.args
        w = wiptsim()
        stored = None
        if (a.seed, a.grid, a.scenarios) == (wl.DEFAULT_SEED, wl.STUDY_GRID, wl.STUDY_SCENARIOS):
            stored = self.digests.get("param_study", {}).get("summary_sha256")
        errors = result.get("errors", [])
        if len(errors) != a.scenarios:
            self.fail(a.scenarios, f"child reported {len(errors)} of {a.scenarios} scenarios")
            return
        first_child = self._study_summaries is None
        if first_child:
            self._study_summaries = result["summaries"]
        for i, (scenario, error) in enumerate(zip(self.study(), errors)):
            if error is not None:
                self.fail(1, f"scenario {i} raised: {error}")
                continue
            summary = result["summaries"][i]
            if not first_child and summary != self._study_summaries[i]:
                self.fail(1, f"scenario {i}: summary differs between children")
                continue
            if stored is not None and summary_digest(summary) != stored[i]:
                self.fail(1, f"scenario {i}: summary digest mismatch")
                continue
            bad = oracle_mismatch(w, scenario, result["samples"][i])
            if bad:
                self.fail(1, f"scenario {i}: swept point differs from evaluate: {bad}")

    # -- workloads -----------------------------------------------------

    def timed(self):
        """End-to-end metrics: set-up probes, then ops for --seconds."""
        probes = [c for c in (self.probe() for _ in range(SETUP_PROBES)) if c]
        ops = []
        measured = 0.0
        while True:
            ops.append(self.op())
            measured += ops[-1].wall_s
            remaining = self.deadline - time.monotonic()
            if measured >= self.args.seconds or remaining < 1.5 * ops[-1].wall_s:
                break
        good = [c for c in ops if c.result is not None]
        return probes, good

    def traced(self):
        """Per-layer metrics: an untraced op, a traced op and an allocation pass."""
        plain = self.op()
        before = self.csv_bytes
        traced = self.op(trace=True)
        csv_bytes = self.csv_bytes - before
        alloc = self.alloc()
        return plain, traced, alloc, csv_bytes


@functools.cache
def wiptsim():
    """The checkout's wiptsim, imported on first use by the parent."""
    sys.path.insert(0, str(ROOT / "src"))
    import wiptsim as module
    return module


def oracle_mismatch(w, scenario, samples):
    """First sampled point whose rate or harvest differs in any bit from evaluate."""
    for name, controls, rate, harvest in samples:
        values = dict(zip(("alpha_nirl", "tau_nirl", "alpha_vl", "tau_vl", "rho_rf"),
                          (float.fromhex(v) for v in controls)))
        point = w.evaluate(scenario, w.ProtocolId(name), w.ProtocolControls(**values))
        if (point.rate.hex(), point.harvested_power.hex()) != (rate, harvest):
            return [name, controls, rate, harvest]
    return None


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def high_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return {"p": 100.0 * k / n, "value": sorted(values)[k - 1], "beyond": 10}


def describe(values):
    out = {"n": len(values), "median": statistics.median(values)}
    hi = high_percentile(values)
    if hi:
        out["high"] = hi
    return out


def end_to_end(run, probes, ops):
    a = run.args
    tuples = wl.tuples_per_scenario(wiptsim(), a.workload, a.grid)
    per_child = tuples * (a.scenarios if a.workload == "param_study" else 1)
    setups = [c.setup_s for c in probes + ops]
    walls = [c.wall_s for c in ops]
    if a.workload == "param_study":
        latencies = [ns / 1e6 for c in ops for ns in c.result["latencies_ns"]]
    else:
        latencies = [c.work_s * 1e3 for c in ops]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c.maxrss_mb for c in ops),
        "tuples_per_s": statistics.median(per_child / (c.wall_s - c.setup_s) for c in ops),
        "scenario_p50_ms": percentile(latencies, 50),
        "scenario_p90_ms": percentile(latencies, 90),
    }
    samples = {"wall_s": describe(walls), "setup_s": describe(setups),
               "peak_rss_mb": {"n": len(ops)}, "tuples_per_s": {"n": len(ops)},
               "scenario_latency_ms": describe(latencies)}
    samples["scenario_latency_ms"]["p90"] = metrics["scenario_p90_ms"]
    samples["ops"] = [{"wall_s": c.wall_s, "setup_s": c.setup_s, "peak_rss_mb": c.maxrss_mb}
                      for c in ops]
    return metrics, samples


def _sum(spans, name, field="dur_ns"):
    return sum(s[field] for s in spans if s["name"] == name)


def _calls(spans, name):
    return sum(s["calls"] for s in spans if s["name"] == name)


def per_layer(plain, traced, alloc, csv_bytes):
    spans = traced.result["spans"]
    counts = traced.result["counts"]
    s = 1e-9
    evaluate_calls = _calls(spans, "protocols.evaluate")
    rejected = _sum(spans, "protocols.evaluate", "rejected")
    evaluate_ns = _sum(spans, "protocols.evaluate")
    pareto_in = _sum(spans, "region.pareto", "n_in")
    pareto_out = _sum(spans, "region.pareto", "n_out")
    csv_s = _sum(spans, "cli.cmd_region", "self_ns") * s
    requests = counts["channel_rf.ensemble_requests"]
    builds = counts["channel_rf.ensemble_builds"]
    top = sum(x["dur_ns"] for x in spans
              if x["name"] in ("cli.cmd_compare", "cli.cmd_region", "bench.scenario"))
    metrics = {
        "protocols.evaluate_s": evaluate_ns * s,
        "protocols.evaluate_calls": evaluate_calls,
        "protocols.evaluate_ns_per_tuple": evaluate_ns / evaluate_calls if evaluate_calls else 0.0,
        "protocols.enumerate_s": _sum(spans, "protocols.enumerate_controls") * s,
        "protocols.enumerated_tuples": _sum(spans, "protocols.enumerate_controls", "n"),
        "protocols.infeasible": rejected,
        "protocols.feasible_ratio": (evaluate_calls - rejected) / evaluate_calls
        if evaluate_calls else 0.0,
        "region.sweep_s": _sum(spans, "region.sweep") * s,
        "region.sweep_self_s": _sum(spans, "region.sweep", "self_ns") * s,
        "region.sweep_calls": _calls(spans, "region.sweep"),
        "region.sweep_alloc_peak_mb": alloc.result["alloc_peak_bytes"] / 2**20
        if alloc.result else 0.0,
        "region.pareto_s": _sum(spans, "region.pareto") * s,
        "region.frontier_points": pareto_out,
        "region.frontier_ratio": pareto_out / pareto_in if pareto_in else 0.0,
        "region.dominates_s": _sum(spans, "region.dominates") * s,
        "region.dominates_calls": _calls(spans, "region.dominates"),
        "region.extrema_s": (_sum(spans, "region.max_rate") + _sum(spans, "region.max_energy")) * s,
        "harvest.optical_calls": counts["harvest.optical_calls"],
        "harvest.rf_calls": counts["harvest.rf_calls"],
        "link_rates.lightwave_calls": counts["link_rates.lightwave_calls"],
        "link_rates.rf_calls": counts["link_rates.rf_calls"],
        "channel_optical.gain_calls": counts["channel_optical.gain_calls"],
        "channel_optical.illuminance_calls": counts["channel_optical.illuminance_calls"],
        "channel_rf.mean_rx_calls": counts["channel_rf.mean_rx_calls"],
        "channel_rf.ensemble_s": _sum(spans, "channel_rf.ensemble") * s,
        "channel_rf.ensemble_builds": builds,
        "channel_rf.ensemble_samples": counts["channel_rf.ensemble_samples"],
        "channel_rf.ensemble_reuse_ratio": (requests - builds) / requests if requests else 0.0,
        "scenario.parse_s": _sum(spans, "scenario.parse_scenario") * s,
        "scenario.parse_calls": _calls(spans, "scenario.parse_scenario"),
        "safety.evaluate_s": _sum(spans, "safety.evaluate_safety") * s,
        "safety.calls": _calls(spans, "safety.evaluate_safety"),
        "cli.csv_s": csv_s,
        "cli.csv_bytes": csv_bytes,
        "cli.csv_mb_per_s": csv_bytes / 1e6 / csv_s if csv_s else 0.0,
        "cli.compare_table_s": _sum(spans, "cli.cmd_compare", "self_ns") * s,
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "trace.span_coverage": top * s / (traced.wall_s - traced.setup_s),
    }
    return metrics


# -- results record ---------------------------------------------------------


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def scenario_digests(run):
    w = wiptsim()
    if run.args.workload == "param_study":
        scenarios = run.study()
    else:
        scenarios = [w.parse_scenario((ROOT / SCENARIO_FILE).read_text(encoding="utf-8"))]
    return [hashlib.sha256(w.render_scenario(sc).encode()).hexdigest() for sc in scenarios]


def write_record(path, run, metrics, units, extra):
    """Merge this run's record into the JSON file at path, keyed by workload and trace."""
    a = run.args
    record = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "grid": a.grid,
        "scenarios": a.scenarios,
        "commit": _commit(),
        "machine": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                    "python": platform.python_version(), "numpy": metadata.version("numpy"),
                    "platform": platform.platform()},
        "scenario_sha256": scenario_digests(run),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "failures": run.failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(extra)
    path = Path(path)
    book = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    book[f"{a.workload}/trace{a.trace}"] = record
    path.parent.mkdir(parents=True, exist_ok=True)
    # One record per line: a traced param_study record holds thousands of spans.
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(rec)}" for key, rec in book.items())
    path.write_text("{\n" + lines + "\n}\n", encoding="utf-8")


# -- entry point ----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="merge the results record into this file")
    parser.add_argument("--grid", type=int, default=None,
                        help="grid points per axis (default 101, or 9 for param_study)")
    parser.add_argument("--scenarios", type=int, default=wl.STUDY_SCENARIOS,
                        help="param_study scenario count")
    args = parser.parse_args(argv)
    if args.grid is None:
        args.grid = wl.STUDY_GRID if args.workload == "param_study" else wl.CLI_GRID
    if args.workload != "param_study":
        args.scenarios = 1
    if args.grid < 2 or args.scenarios < 1:
        parser.error("--grid must be at least 2 and --scenarios at least 1")
    return args


def missing_inputs():
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "wiptsim" / "__init__.py",
              ROOT / SCENARIO_FILE, DIGESTS]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def main(argv=None):
    args = parse_args(argv)
    missing = missing_inputs()
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = Run(args, json.loads(DIGESTS.read_text(encoding="utf-8")))
    metrics = None
    try:
        if args.trace:
            wanted = config["per_layer"]
            plain, traced, alloc, csv_bytes = run.traced()
            if plain.result is not None and traced.result is not None:
                metrics = per_layer(plain, traced, alloc, csv_bytes)
                extra = {"spans": traced.result["spans"],
                         "alloc_grid": alloc.result["alloc_grid"] if alloc.result else None}
        else:
            wanted = config["end_to_end"]
            probes, ops = run.timed()
            if ops:
                metrics, samples = end_to_end(run, probes, ops)
                extra = {"samples": samples}
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in wanted}
    if not metrics:
        for reason in run.failures:
            print(reason, file=sys.stderr)
        print("error: no op completed, so no metric can be reported", file=sys.stderr)
        return 1
    if args.out:
        write_record(args.out, run, metrics, units, extra)
    for reason in run.failures:
        print(f"failed: {reason}", file=sys.stderr)
    line = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
