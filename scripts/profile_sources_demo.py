#!/usr/bin/env python3
"""Compare the power profile a codebook would use, source by source.

For one departure angle, prints the RMS deviation of each cheaper profile
source from the array-plane propagation result, plus where each profile peaks.
"""

import argparse
import warnings
from functools import partial

import numpy as np

from lensmimo import (ArraySpec, LensSpec, PropagationGrid,
                      antenna_power_profile, fit_sector_model, gaussian_profile)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--aod", type=float, default=10.0)
    ap.add_argument("--strides", default="2,5,10",
                    help="coarse axial steps, in units of dz")
    args = ap.parse_args()

    lens, grid, array = LensSpec(), PropagationGrid(), ArraySpec()
    profile_at = partial(antenna_power_profile, lens, grid, array)
    exact = profile_at(args.aod)
    model = fit_sector_model(profile_at, lens, array)

    rows = [("gaussian fit", gaussian_profile(args.aod, model))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for stride in [int(t) for t in args.strides.split(",")]:
            rows.append((f"sub-bpm x{stride}",
                         profile_at(args.aod, stride=stride)))

    print(f"aod = {args.aod} deg; exact profile peaks at antenna "
          f"{int(np.argmax(exact))} with value {exact.max():.3f}")
    print(f"{'source':>14} {'rms dev':>10} {'peak idx':>9} {'peak val':>9}")
    for name, prof in rows:
        rms = float(np.sqrt(np.mean((prof - exact) ** 2)))
        print(f"{name:>14} {rms:10.4f} {int(np.argmax(prof)):9d} "
              f"{prof.max():9.3f}")


if __name__ == "__main__":
    main()
