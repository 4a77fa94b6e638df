"""Regenerate the benchmark's correctness reference data.

    python3 perfbench/record_reference.py           # compare with the stored data
    python3 perfbench/record_reference.py --write   # overwrite the stored data

The data are the coefficients ``C_0 ... C_20`` of burgers, allen_cahn and
schrodinger on a fixed subsample of four points per problem, and the output
files of the seven CLI runs of the ``cli-export`` workload.  The stored copy
was recorded at the seed commit and is what later commits are checked
against, so rewrite it only when an output change is intended.  Without
``--write`` the script changes nothing and exits 1 if the current code's
outputs differ from the stored ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pdetaylor import compute_expansion, default_exclusion, get_problem, sample_points  # noqa: E402

import workloads  # noqa: E402

RECORDED_PROBLEMS = ("burgers", "allen_cahn", "schrodinger")
RECORDED_ORDER = 20
FIXED_POINTS = 4
FIXED_POINTS_SEED = 2210


def coefficient_data() -> dict:
    problems = {}
    for name in RECORDED_PROBLEMS:
        problem = get_problem(name)
        x = sample_points(problem, FIXED_POINTS, default_exclusion(problem), FIXED_POINTS_SEED)
        expansion = compute_expansion(problem, x, RECORDED_ORDER)
        problems[name] = {
            "points": x.tolist(),
            "coeffs": [[c.tolist() for c in comp] for comp in expansion.coeffs],
        }
    return {
        "max_order": RECORDED_ORDER,
        "fixed_points_seed": FIXED_POINTS_SEED,
        "problems": problems,
    }


def cli_outputs(scratch: Path) -> dict:
    outputs = {}
    for run, args in workloads.CLI_RUNS.items():
        out_dir = scratch / run
        out_dir.mkdir(parents=True)
        child = workloads.run_child(["-m", "pdetaylor.cli", *args, "--out", str(out_dir)], scratch)
        if child.returncode != 0:
            raise SystemExit(f"{run} exited {child.returncode}:\n{child.stderr}")
        outputs[run] = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="overwrite the stored reference data")
    args = parser.parse_args(argv)

    scratch = ROOT / ".perfbench_out" / f"record-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        coeffs = coefficient_data()
        cli = cli_outputs(scratch)
    finally:
        shutil.rmtree(scratch)

    if args.write:
        workloads.DATA.mkdir(exist_ok=True)
        with open(workloads.COEFF_DATA, "w", encoding="utf-8") as f:
            json.dump(coeffs, f, indent=1)
            f.write("\n")
        shutil.rmtree(workloads.CLI_DATA, ignore_errors=True)
        for run, files in cli.items():
            (workloads.CLI_DATA / run).mkdir(parents=True)
            for name, data in files.items():
                (workloads.CLI_DATA / run / name).write_bytes(data)
        print(f"wrote {workloads.COEFF_DATA} and {workloads.CLI_DATA}")
        return 0

    with open(workloads.COEFF_DATA, encoding="utf-8") as f:
        stored = json.load(f)
    same = stored == json.loads(json.dumps(coeffs)) and workloads.load_cli_seed_outputs() == cli
    print("stored reference data match the current code" if same
          else "current outputs differ from the stored reference data (rerun with --write to replace)")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
