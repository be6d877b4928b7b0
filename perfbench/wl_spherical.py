"""Workload ``spherical``: Haar Monte Carlo of spherical functions against
their closed forms, and the corank-2 recursion against the closed f_n.

Every Monte Carlo point has a nonzero estimator variance: s = (4, 0) and
s = (6, 2, 0) give positive exponents to proper principal minors, while
s = (2, 0) would weight only the k-invariant full determinant.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import numpy as np

from common import (CheckError, Op, Z_LIMIT, check_close, check_z, draw_base,
                    rng_for)
from refs import fn_mp, harish_chandra_mp, phi_mp

S2 = (4.0, 0.0)
S3 = (6.0, 2.0, 0.0)

#: Haar samples per Monte Carlo call; a round takes about two seconds.
SAMPLES = {"phi-n2": 50_000, "phi-n3": 40_000, "hc-n2": 50_000,
           "factorization-phi": 30_000, "factorization-psi": 30_000}


class SphericalWorkload:
    def __init__(self, seed: int, out: Path):
        import antiprod.spherical as sph
        rng = rng_for(seed, 3)
        self.a2 = a2 = draw_base(rng, 2, 0.6, 2.0)
        a3 = draw_base(rng, 3, 0.6, 2.4)
        self.xy = x, y = draw_base(rng, 2, 0.3, 1.0), draw_base(rng, 2, 0.3, 1.0)
        g = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        gp = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        calls = {  # operation -> (function, arguments before the sample count)
            "phi-n2": ("phi_montecarlo", (S2, a2)),
            "phi-n3": ("phi_montecarlo", (S3, a3)),
            "hc-n2": ("harish_chandra_o2n_mc", (x, y)),
            "factorization-phi": ("factorization_check_phi", (S2, g, a2)),
            "factorization-psi": ("factorization_check_psi", (S2, g, gp)),
        }

        def monte_carlo(name: str, samples: int):
            fn, args = calls[name]
            return getattr(sph, fn)(*args, samples,
                                    rng_for(seed, 3, 1 + list(calls).index(name)))

        checks = {
            "phi-n2": lambda r: check_mc(r, phi_mp(S2, a2), sph.phi_closed(S2, a2),
                                         "phi-n2"),
            "phi-n3": lambda r: check_mc(r, phi_mp(S3, a3), sph.phi_closed(S3, a3),
                                         "phi-n3"),
            "hc-n2": lambda r: check_mc(r, harish_chandra_mp(x, y),
                                        sph.harish_chandra_o2n(x, y), "hc-n2"),
            "factorization-phi": partial(check_factorization,
                                         what="factorization-phi"),
            "factorization-psi": partial(check_factorization,
                                         what="factorization-psi"),
        }
        def recurrence(s, a):
            return sph.fn_recurrence(s, a)

        self.ops = [Op(name, partial(monte_carlo, name, SAMPLES[name]), checks[name])
                    for name in calls]
        self.ops += [Op(f"recurrence-n{len(s)}", partial(recurrence, s, a),
                        partial(check_recurrence, s=s, a=a, closed=sph.fn_closed))
                     for s, a in ((S2, a2), (S3, a3))]
        self._warm = [partial(monte_carlo, name, 64) for name in calls] \
            + [op.run for op in self.ops[len(calls):]]

    def warm_up(self):
        for call in self._warm:
            call()

    def check_round(self, stats_by_op: dict):
        pass


def check_mc(result, reference, closed, what: str):
    """Monte Carlo (estimate, stderr) against the closed form, which must
    itself match the mpmath reference."""
    estimate, stderr = result
    check_close(closed, reference, 1e-9, 0.0, f"{what}: closed form")
    check_z(estimate, stderr, closed, f"{what}: Monte Carlo")


def check_factorization(result, what: str):
    lhs, rhs, z = result
    if not (np.isfinite(lhs) and np.isfinite(rhs) and z < Z_LIMIT):
        raise CheckError(f"{what}: lhs {lhs}, rhs {rhs}, |z| = {z:.2f}")


def check_recurrence(result, s, a, closed):
    """fn_recurrence against the closed f_n, itself checked against mpmath."""
    what = f"recurrence-n{len(s)}"
    check_close(closed(s, a), fn_mp(s, a), 1e-9, 0.0, f"{what}: closed f_n")
    check_close(result, closed(s, a), 1e-6, 0.0, f"{what}: recursion")
