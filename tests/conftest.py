import os

import numpy as np
from hypothesis import settings

# The load_usps fuzz tests take their example count from the profile;
# HYPOTHESIS_PROFILE=ci runs them ten times as long.  Every other
# property test sets its own count.
settings.register_profile("default", max_examples=300)
settings.register_profile("ci", max_examples=3000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-300)
    return float(np.abs(a - b).max() / denom)


def numeric_grad(fn, arrays, eps=1e-6):
    """Central finite differences of a scalar-valued ``fn(*arrays)`` w.r.t.
    every entry of every array, at 64-bit."""
    grads = []
    for target in range(len(arrays)):
        base = np.array(arrays[target], dtype=np.float64)
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            step = eps * max(1.0, abs(flat[i]))
            orig = flat[i]
            flat[i] = orig + step
            hi = fn(*[base if j == target else arrays[j] for j in range(len(arrays))])
            flat[i] = orig - step
            lo = fn(*[base if j == target else arrays[j] for j in range(len(arrays))])
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads
