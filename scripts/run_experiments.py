#!/usr/bin/env python3
"""Run the full experiment battery and drop reports in an output directory.

Produces, per run:
  lemma_reports.json     sliced-shift certification for every (d, j), d <= dmax
  modulation_sweep.csv   aggregate modulation error vs scale, with fitted slope
  duality_runs.json      seeded duality-chain checks
  dimension_sweep.csv    restricted vector-norm estimate per dimension
  hilbert_growth.json    p = 4 lower bounds of the truncated conjugate operator

Usage: python3 scripts/run_experiments.py [--out-dir results] [--quick]
"""

import argparse
import math
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from haartorus import experiments, serialize  # noqa: E402

try:
    import resource
except ImportError:  # not on Windows
    resource = None


def minor_faults():
    """Page faults of this process served without disk I/O; 0 where unknown."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else 0


def lemma_battery(out_dir, dmax, cutoff):
    # truncation residual scales like N**-0.5; 5e-3 is the budget at N = 2**14
    tolerance = 5e-3 * math.sqrt((1 << 14) / cutoff)
    reports = []
    for d in range(1, dmax + 1):
        for j in range(1, d + 1):
            report = experiments.verify_lemma_hvs(d, j, j - 1, 1, N=cutoff,
                                                  tolerance=tolerance)
            reports.append(serialize.lemma_report_to_dict(report))
            print(f"  d={d} j={j}: residual={report.residual:.3e} "
                  f"fitted={report.fitted_constant:.9f} passed={report.passed}")
    serialize.write_json(out_dir / "lemma_reports.json",
                         {"schema": 1, "kind": "lemma_reports", "reports": reports})


def modulation_battery(out_dir, a_list):
    result = experiments.modulation_decay_experiment(A_list=a_list)
    serialize.write_modulation_sweep_csv(out_dir / "modulation_sweep.csv",
                                         result.A_values,
                                         result.aggregate_errors, result.slope)
    print(f"  slope={result.slope:.6f} over A={list(result.A_values)}")


def duality_battery(out_dir, runs, c0):
    reports = []
    for seed in range(1, runs + 1):
        report = experiments.run_duality_experiment(seed, c0=c0)
        reports.append(serialize.duality_report_to_dict(report))
        flags = (report.coded_matches, report.projected_within_bound,
                 report.multiplier_within_bound, report.inequality_holds)
        print(f"  seed={seed}: pairing={report.dyadic_pairing:+.6f} "
              f"checks={'all ok' if all(flags) else flags}")
    serialize.write_json(out_dir / "duality_runs.json",
                         {"schema": 1, "kind": "duality_runs", "runs": reports})


def dimension_battery(out_dir, dmax):
    rows = experiments.dimension_free_check(list(range(1, dmax + 1)))
    serialize.write_dimension_sweep_csv(out_dir / "dimension_sweep.csv", rows)
    for r in rows:
        print(f"  d={r.d}: estimate={r.estimate:.12f} converged={r.converged}")


def hilbert_battery(out_dir, cutoffs):
    points = []
    for cutoff in cutoffs:
        est = experiments.lp_norm_estimate(
            experiments.hilbert_multiplier_operator(cutoff), 4.0, seed=1)
        points.append({"cutoff": cutoff, "estimate": est.estimate,
                       "converged": est.converged})
        print(f"  cutoff={cutoff}: estimate={est.estimate:.6f}")
    serialize.write_json(out_dir / "hilbert_growth.json",
                         {"schema": 1, "kind": "hilbert_growth", "p": 4.0,
                          "points": points})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results", help="report directory")
    parser.add_argument("--quick", action="store_true",
                        help="smaller cutoffs and fewer runs")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    c0 = serialize.load_golden_c0()

    cutoff = 2047 if args.quick else 1 << 14
    runs = 5 if args.quick else 20
    hilbert_cutoffs = (64, 128, 256) if args.quick else (128, 256, 512)
    a_list = [2 ** r for r in range(4, 10 if args.quick else 13)]

    batteries = (
        ("sliced-shift certification", lambda: lemma_battery(out_dir, 4, cutoff)),
        ("modulation decay", lambda: modulation_battery(out_dir, a_list)),
        ("duality chain", lambda: duality_battery(out_dir, runs, c0)),
        ("dimension sweep", lambda: dimension_battery(out_dir, 6)),
        ("conjugate-operator growth", lambda: hilbert_battery(out_dir, hilbert_cutoffs)),
    )
    for name, battery in batteries:
        print(f"{name}:")
        start, cpu, faults = time.perf_counter(), time.process_time(), minor_faults()
        battery()
        line = f"  done in {time.perf_counter() - start:.1f}s"
        if resource:
            line += f", {time.process_time() - cpu:.1f}s CPU, {minor_faults() - faults} minor faults"
        print(line)
    print(f"reports written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
