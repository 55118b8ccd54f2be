"""Regenerate bench/digests.json, the outputs the benchmark checks against.

    python3 bench/regen_digests.py

Run it on a commit whose outputs are known to be right, and only when an
output is meant to change.  It hashes the stdout of ``wiptsim compare`` and
both CSVs of ``wiptsim region ... d`` on scenarios/default.toml at the
workload grid (101) and at the self-test grid (5), and the per-scenario
summary of param_study at its default seed, grid and scenario count.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workload as wl  # noqa: E402

GRIDS = (wl.CLI_GRID, 5)


def _cli(argv, stdout):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "wiptsim.cli", *argv], cwd=ROOT, env=env,
                   stdout=stdout, check=True)


def cli_digests(work):
    out = {"compare_default": {}, "region_d_default": {}}
    for grid in GRIDS:
        stdout = work / "stdout"
        with open(stdout, "wb") as handle:
            _cli(wl.cli_argv("compare_default", run.SCENARIO_FILE, grid), handle)
        out["compare_default"][str(grid)] = {"stdout": run.sha256_file(stdout)}
        csv = work / run.CSV_NAMES[0]
        with open(os.devnull, "wb") as handle:
            _cli(wl.cli_argv("region_d_default", run.SCENARIO_FILE, grid, str(csv)), handle)
        out["region_d_default"][str(grid)] = {
            name: run.sha256_file(work / name) for name in run.CSV_NAMES
        }
    return out


def study_digests():
    import wiptsim

    api = wl.study_api(wiptsim)
    digests = []
    for sc in wl.study_scenarios(wl.DEFAULT_SEED, wl.STUDY_SCENARIOS, wiptsim):
        summary = wl.scenario_summary(*wl.run_scenario(api, sc, wl.STUDY_GRID))
        digests.append(run.summary_digest(summary))
    return {"seed": wl.DEFAULT_SEED, "grid": wl.STUDY_GRID, "scenarios": wl.STUDY_SCENARIOS,
            "summary_sha256": digests}


def main():
    work = ROOT / ".bench_work" / "regen"
    work.mkdir(parents=True, exist_ok=True)
    try:
        digests = {"regenerate": "python3 bench/regen_digests.py"}
        digests.update(cli_digests(work))
        digests["param_study"] = study_digests()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.DIGESTS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
