#!/usr/bin/env python3
"""Regenerate the golden files under golden/.

The reference constant c0 comes from an oracle independent of the package:
the boundary conjugate of the sign-of-cos wave has the closed form
V(theta) = (2/pi) ln tan(theta/2 + pi/4), and c0 is its average over the arc
[0, pi/2), evaluated with high-precision quadrature. A second closed form,
8 * Catalan / pi^2, cross-checks the quadrature. Only after that constant is
frozen do the package's own experiments produce the two sweep files, which
later runs must reproduce.

Usage: python3 scripts/make_golden.py [--golden-dir DIR]
"""

import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))


def quadrature_c0(dps=60):
    """Average of the conjugate wave over one quarter arc, two ways."""
    mp.mp.dps = dps
    integral = mp.quad(lambda u: mp.log(mp.tan(u)), [mp.pi / 4, mp.pi / 2])
    by_quadrature = 8 * integral / mp.pi**2
    by_catalan = 8 * mp.catalan / mp.pi**2
    gap = abs(by_quadrature - by_catalan)
    if gap > mp.mpf(10) ** (-(dps - 10)):
        raise RuntimeError(f"c0 cross-check failed: gap {gap}")
    return by_quadrature, float(gap)


def write_c0(golden_dir):
    value, gap = quadrature_c0()
    payload = {
        "schema": 1,
        "kind": "golden_constant",
        "c0": float(value),
        "digits": mp.nstr(value, 22),
        "method": "high-precision quadrature of the conjugate-wave average; "
                  "cross-checked against 8*Catalan/pi^2",
        "cross_check_gap": gap,
    }
    path = golden_dir / "c0.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}: c0 = {payload['digits']}")


def write_modulation(golden_dir):
    from haartorus.experiments import modulation_decay_experiment
    from haartorus.serialize import write_modulation_sweep_csv

    result = modulation_decay_experiment()
    path = golden_dir / "modulation_slope.csv"
    write_modulation_sweep_csv(path, result.A_values, result.aggregate_errors,
                               result.slope)
    print(f"wrote {path}: slope = {result.slope}")


def write_dimension_free(golden_dir):
    from haartorus.experiments import dimension_free_check
    from haartorus.serialize import write_dimension_sweep_csv

    rows = dimension_free_check(range(1, 7), depth=6)
    path = golden_dir / "dimension_free.csv"
    write_dimension_sweep_csv(path, rows)
    print(f"wrote {path}: estimates = {[round(r.estimate, 12) for r in rows]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--golden-dir", default=REPO / "golden", type=Path)
    args = parser.parse_args(argv)
    args.golden_dir.mkdir(parents=True, exist_ok=True)
    write_c0(args.golden_dir)
    write_modulation(args.golden_dir)
    write_dimension_free(args.golden_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
