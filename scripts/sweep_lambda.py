#!/usr/bin/env python3
"""Sweep fixed update-rate overrides against the per-binade default.

The default rate 2^-(E(m)-bias+1) puts lambda*m in [0.5, 1), so the
iteration's contraction factor |1 - 2*lambda*m| depends on where ||y||^2
lands inside its binade.  This sweep quantifies that sensitivity for one
vector length: it normalizes the same seeded batch under a grid of
lambda*m targets and prints the resulting average error per format.  The
batch's vector stages (mean shift and squared norm) run once and are
reused for every target.
"""

import argparse
import math

import numpy as np

from iterl2norm.baselines import reference_batch
from iterl2norm.fpformat import FORMATS, round_array
from iterl2norm.norm_core import FixedSteps, NormConfig, normalize_batch, shift_batch


def sweep(fmt_name: str, d: int, num_vectors: int, steps: int, seed: int,
          targets: list[float]) -> None:
    fmt = FORMATS[fmt_name]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = round_array(rng.uniform(-1.0, 1.0, size=(num_vectors, d)), fmt)
    ref = reference_batch(fmt, x)
    shifted = shift_batch(fmt, x)

    default = normalize_batch(fmt, shifted, config=NormConfig(stopping=FixedSteps(steps)))
    err_default = float(np.abs(default.z - ref).mean())
    m_mean = float(default.m.mean())
    sig = 2.0 * math.frexp(m_mean)[0]
    print(f"{fmt_name} d={d}: mean m={m_mean:.1f} (significand {sig / 2:.3f}*2)")
    print(f"  {'lambda*m':>9s} {'lambda':>12s} {'avg_abs_err':>12s}")
    print(f"  {'default':>9s} {'2^-(e+1)':>12s} {err_default:12.3e}")
    for t in targets:
        lam = t / m_mean
        out = normalize_batch(fmt, shifted, config=NormConfig(
            stopping=FixedSteps(steps), lambda_override=lam))
        err = float(np.abs(out.z - ref).mean())
        print(f"  {t:9.3f} {lam:12.4e} {err:12.3e}")


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--format", dest="formats", action="append", choices=tuple(FORMATS))
    p.add_argument("--d", type=int, default=1024)
    p.add_argument("--num-vectors", type=int, default=300)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--targets", type=lambda s: [float(t) for t in s.split(",")],
                   default=[0.3, 0.345, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    a = p.parse_args()
    for name in a.formats or FORMATS:
        sweep(name, a.d, a.num_vectors, a.steps, a.seed, a.targets)
