#!/usr/bin/env python3
"""Sweep lens focal lengths and tabulate where the beam actually peaks.

The per-cell gain divides the raw intensity gain by the number of antenna
cells spanned by the aperture, so it is comparable across array sizes.
"""

import argparse

import numpy as np

from lensmimo import (ArraySpec, LensSpec, PropagationGrid, find_focal_peak,
                      lens_phase_profile, propagate)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--focal-lengths", default="20,30,40,50",
                    help="comma-separated focal lengths in wavelengths")
    ap.add_argument("--dx", type=float, default=1.0)
    ap.add_argument("--dz", type=float, default=1.0)
    ap.add_argument("--window", type=float, default=80.0)
    ap.add_argument("--steps", type=int, default=60)
    ap.add_argument("--aod", type=float, default=0.0,
                    help="incidence angle in degrees")
    args = ap.parse_args()

    grid = PropagationGrid(dx=args.dx, dz=args.dz, window=args.window)
    array = ArraySpec()
    print(f"grid: dx={args.dx}, dz={args.dz}, window={args.window}, "
          f"steps={args.steps}, aod={args.aod} deg")
    print(f"{'f':>6} {'peak z':>8} {'gain/cell':>10} {'gain raw':>10}")
    for f in [float(t) for t in args.focal_lengths.split(",")]:
        lens = LensSpec(focal_length=f)
        hist = propagate(lens_phase_profile(lens, grid, args.aod), grid, args.steps)
        z, per_cell = find_focal_peak(hist, lens, array)
        _, raw = find_focal_peak(hist)
        print(f"{f:6g} {z:8g} {per_cell:10.4f} {raw:10.4f}")


if __name__ == "__main__":
    main()
