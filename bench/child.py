"""One benchmark child process: set up, run one op of a workload, report.

Usage (spawned by run.py): python3 bench/child.py '<spec json>'

The spec names the workload, the mode and where to write the result:

* ``setup``: import wiptsim, parse the (first) scenario, warm its fading
  ensemble and link gains through the public ``mean_rf_received_power``
  and ``channel_gain``, then exit.  The set-up probe.
* ``op``: set up as above, then run the workload once: ``wiptsim compare``
  or ``wiptsim region`` through ``cli.main``, or the param_study loop.
  With ``trace`` set, every layer boundary is wrapped (see tracer.py).
* ``alloc``: set up, then sweep protocol d under tracemalloc and report
  the peak of traced allocations.  Kept apart from the traced timings
  because tracemalloc slows allocation several-fold.

Time marks use CLOCK_MONOTONIC (``time.monotonic_ns``), which the parent
shares, so set-up time is measured from the parent's spawn.  Outputs are
checked by the parent after this process exits, outside its wall time.
"""

import json
import random
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workload as wl  # noqa: E402

# tracemalloc slows a sweep about sevenfold, so the allocation pass sweeps
# protocol d (three free axes, as many tuples as any protocol) on the first
# scenario once, at a grid capped at 41: still 68,921 points.
ALLOC_PROTOCOL = "d"
ALLOC_GRID_CAP = 41


def _modules():
    import wiptsim
    from wiptsim import cli, protocols, region, safety, scenario
    return wiptsim, {"cli": cli, "protocols": protocols, "region": region,
                     "scenario": scenario, "safety": safety}


def _set_up(spec, wiptsim, mods):
    """Parse the first scenario and warm its ensemble and link gains."""
    if spec["workload"] == "param_study":
        scenarios = wl.study_scenarios(spec["seed"], spec["scenarios"], wiptsim)
        text = wiptsim.render_scenario(scenarios[0])
    else:
        scenarios = None
        text = Path(spec["scenario_path"]).read_text(encoding="utf-8")
    first = mods["scenario"].parse_scenario(text)
    protocols = mods["protocols"]
    protocols.mean_rf_received_power(first, 1.0)
    for geometry in (first.vl_geometry(), first.nirl_geometry()):
        protocols.channel_gain(geometry, first.pd_area, first.optical_filter_gain)
    return first, scenarios


def _run_study(spec, scenarios, wiptsim, tracer, result):
    api = wl.study_api(wiptsim)
    latencies, summaries, samples, errors = [], [], [], []
    for i, sc in enumerate(scenarios):
        frame = tracer.open("bench.scenario") if tracer else None
        start = time.perf_counter_ns()
        try:
            verdict, regions, extrema, dominance = wl.run_scenario(api, sc, spec["grid"])
        except Exception:  # one failed scenario is one failed op; keep going
            outcome = None
            errors.append(traceback.format_exc(limit=3))
        else:
            outcome = (verdict, regions, extrema, dominance)
            errors.append(None)
        latencies.append(time.perf_counter_ns() - start)
        if frame is not None:
            tracer.close(frame)
        if outcome is None:
            summaries.append(None)
            samples.append([])
            continue
        summaries.append(wl.scenario_summary(*outcome))
        samples.append(wl.sample_points(outcome[1], random.Random(f"{spec['seed']}:{i}")))
    result.update(latencies_ns=latencies, summaries=summaries, samples=samples, errors=errors)


def _alloc_pass(spec, first, mods):
    import tracemalloc

    grid = min(spec["grid"], ALLOC_GRID_CAP)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mods["region"].sweep(first, mods["protocols"].ProtocolId(ALLOC_PROTOCOL), grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"alloc_peak_bytes": peak, "alloc_grid": grid}


def main(spec):
    result = {"mode": spec["mode"]}
    tracer = None
    wiptsim, mods = _modules()
    if spec.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer, mods)
        setup_frame = tracer.open("bench.setup")
    first, scenarios = _set_up(spec, wiptsim, mods)
    result["setup_ns"] = time.monotonic_ns()
    if tracer:
        tracer.close(setup_frame)

    if spec["mode"] == "op":
        if scenarios is None:
            argv = wl.cli_argv(spec["workload"], spec["scenario_path"], spec["grid"],
                               spec.get("out_path"))
            result["rc"] = mods["cli"].main(argv)
        else:
            _run_study(spec, scenarios, wiptsim, tracer, result)
    elif spec["mode"] == "alloc":
        result.update(_alloc_pass(spec, first, mods))
    result["done_ns"] = time.monotonic_ns()

    if tracer:
        result["spans"] = tracer.finish()
        result["counts"] = tracer.counts
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
