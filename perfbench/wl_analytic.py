"""Workload ``analytic``: closed forms tabulated on grids and points,
numeric Mellin transforms and convolutions, the Prop. 4.5 reports written
by the harness, and the ``jpdf``, ``kernel`` and ``spherical`` commands
through ``cli.main``.

Density grids are composite Gauss-Legendre product grids, so the check can
integrate the tabulated values directly: unit mass for densities, n for
the kernel diagonal.  Jacobi weights with integer exponents make those
densities piecewise polynomial between the base values, where the rule is
exact; the Ginibre grids reach about 2e-8.
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp
import numpy as np

from common import (CheckError, OpFailed, Op, check_close, cli_seed,
                    draw_base, gauss_legendre, half_line_breaks, read_table,
                    require_finite, rng_for, run_cli, write_config)
from refs import DPS, fn_mp, harish_chandra_mp, jpdf_fixed_mp, phi_mp, weight_mp
from wl_verify import check_summary

#: Ginibre exponent of the tabulated densities and kernels.
NU = 0.5
#: Jacobi parameters (nu, mu, n) = those of the N = 2, K1 = 9 factor at n = 2.
JACOBI = (0.0, 0.0, 2)
JACOBI_CLI = {"factor": "jacobi", "n": 2, "N": 2, "K1": 9}

#: Largest accepted |mass - 1| of a tabulated density: the quadrature error
#: is below 2e-8, and a density scaled by 1 + 1e-6 must be rejected.
MASS_TOL = 2e-7

#: The README's Ginibre config, with no grid settings.
README_CONFIG = {"factor": "ginibre", "n": 2, "nu": 0.0, "base": [1.0, 2.0]}

POINTS = 12

#: Mellin arguments of the numeric transforms, as in the Mellin report of
#: ``antiprod verify``.
MELLIN_S = (1, 3, 5, 7)

#: Catalogued weights, as ``weight_mp`` arguments, whose numeric Mellin
#: transforms the workload takes.
MELLIN_WEIGHTS = [("ginibre", nu) for nu in (0.0, 0.5, 1.0)] \
    + [("jacobi", nu, mu, 2) for nu in (0.0, 0.5, 1.0) for mu in (0.0, 1.0)]


def catalogued(mel, kind, *params):
    return mel.ginibre_weight(*params) if kind == "ginibre" \
        else mel.jacobi_weight(*params)


def sym_grid(f, x):
    """f on the product grid x by x for a symmetric f, evaluated on i <= j."""
    P = np.empty((x.size, x.size))
    for i in range(x.size):
        for j in range(i, x.size):
            P[i, j] = P[j, i] = f([x[i], x[j]])
    return P


def spectra(rng, n: int, hi: float) -> list:
    return [draw_base(rng, n, 0.05, hi) for _ in range(POINTS)]


def s_params(rng, n: int) -> tuple:
    """Real s with s_j - s_(j+1) in [2, 4]."""
    gaps = rng.uniform(2.0, 4.0, n - 1)
    last = rng.uniform(-0.5, 1.0)
    return tuple(float(v) for v in last + np.concatenate([np.cumsum(gaps[::-1])[::-1], [0.0]]))


class AnalyticWorkload:
    def __init__(self, seed: int, out: Path):
        import antiprod.ensembles as ens
        import antiprod.kernels as ker
        import antiprod.mellin as mel
        import antiprod.spherical as sph
        rng = rng_for(seed, 4)
        bg = draw_base(rng, 2, 0.5, 2.5)
        bj = draw_base(rng, 2, 0.5, 2.5)
        b3 = draw_base(rng, 3, 0.5, 2.5)
        b4 = draw_base(rng, 4, 0.5, 3.0)
        b3p = [b3[0], b3[1], b3[1]]
        b4p = [b4[0], b4[0], b4[2], b4[3]]
        p3, p4 = spectra(rng, 3, 7.5), spectra(rng, 4, 9.0)
        sph_pts = [(s_params(rng, n), draw_base(rng, n, 0.5, 2.5))
                   for n in (2, 3) for _ in range(POINTS)]
        hc_pts = [(draw_base(rng, n, 0.2, 1.5), draw_base(rng, n, 0.2, 1.5))
                  for n in (2, 3) for _ in range(POINTS)]
        hc_pts += [(x, [y[0], y[1], y[1]]) for x, y in hc_pts[-3:]]
        conv_pts = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(20.0), 24)))
        kg_pts = rng.uniform(0.2, 3.0, 4)
        kj_pts = rng.uniform(0.05, 0.9, 4) * bj[0]
        hc_named = rng.uniform(0.2, 2.0, (4, 2))

        wg = ("ginibre", NU)
        wj = ("jacobi", *JACOBI)
        ginibre = lambda: mel.ginibre_weight(NU)
        jacobi = lambda: mel.jacobi_weight(*JACOBI)
        xg, _ = gauss_legendre(half_line_breaks(bg), 8)
        xj, _ = gauss_legendre([0.0, *bj], 12)
        xd, _ = gauss_legendre(half_line_breaks([1.0]), 8)
        xc, _ = gauss_legendre([0.0, *b3], 6)

        self.ops = [
            Op("jpdf-ginibre-n2-grid",
               lambda: sym_grid(lambda a, w=ginibre(): ens.jpdf_fixed(a, bg, w), xg),
               lambda P: check_density_grid(P, half_line_breaks(bg), 8, bg, wg)),
            Op("jpdf-jacobi-n2-grid",
               lambda: sym_grid(lambda a, w=jacobi(): ens.jpdf_fixed(a, bj, w), xj),
               lambda P: check_density_grid(P, [0.0, *bj], 12, bj, wj)),
            Op("jpdf-degenerate-n2-grid",
               lambda: sym_grid(lambda a, w=ginibre(): ens.jpdf_degenerate(a, w), xd),
               lambda P: check_density_grid(P, half_line_breaks([1.0]), 8,
                                            [1.0, 1.0], wg)),
            Op("corank2-n3-grid",
               lambda: sym_grid(lambda x: ens.corank2_jpdf(x, b3), xc),
               lambda P: check_mass(P, [0.0, *b3], 6, "corank2-n3-grid")),
        ]
        for tag, base, pts in (("n3", b3, p3), ("n3-partial", b3p, p3),
                               ("n4", b4, p4), ("n4-partial", b4p, p4)):
            self.ops.append(Op(
                f"jpdf-{tag}-points",
                lambda base=base, pts=pts: np.array(
                    [ens.jpdf_fixed(a, base, ginibre()) for a in pts]),
                lambda v, base=base, pts=pts, tag=tag: check_points(
                    v, pts, base, wg, f"jpdf-{tag}-points")))
        self.ops += [
            Op("kernel-ginibre-diag",
               lambda: kernel_diag(ker, bg, ginibre(), xg),
               lambda K: check_trace(K, half_line_breaks(bg), 8, "kernel-ginibre-diag")),
            Op("kernel-jacobi-diag",
               lambda: kernel_diag(ker, bj, jacobi(), xj),
               lambda K: check_trace(K, [0.0, *bj], 12, "kernel-jacobi-diag")),
            Op("kernel-ginibre-forms", lambda: kernel_forms(ker, bg, ginibre(), kg_pts),
               lambda f: check_forms(f, "kernel-ginibre-forms")),
            Op("kernel-jacobi-forms", lambda: kernel_forms(ker, bj, jacobi(), kj_pts),
               lambda f: check_forms(f, "kernel-jacobi-forms")),
            Op("phi-closed-points",
               lambda: np.array([sph.phi_closed(s, a) for s, a in sph_pts]),
               lambda v: check_close(v, [phi_mp(s, a) for s, a in sph_pts],
                                     1e-9, 0.0, "phi-closed-points")),
            Op("fn-closed-points",
               lambda: np.array([sph.fn_closed(s, a) for s, a in sph_pts]),
               lambda v: check_close(v, [fn_mp(s, a) for s, a in sph_pts],
                                     1e-9, 0.0, "fn-closed-points")),
            Op("hc-closed-points",
               lambda: np.array([sph.harish_chandra_o2n(x, y) for x, y in hc_pts]),
               lambda v: check_close(v, [harish_chandra_mp(x, y, 1e-20)
                                         for x, y in hc_pts],
                                     1e-8, 0.0, "hc-closed-points")),
            Op("spherical-named-values",
               lambda: named_values(sph, hc_named),
               lambda v: check_named(v, hc_named)),
            Op("mellin-numeric",
               lambda: np.array([mel.mellin_numeric(catalogued(mel, *key), s)
                                 for key in MELLIN_WEIGHTS for s in MELLIN_S]),
               check_mellin_numeric),
            Op("mellin-convolve",
               lambda: np.array([mel.mellin_convolve(mel.ginibre_weight(NU),
                                                     mel.jacobi_weight(0.0, 0.0, 1), y)
                                 for y in conv_pts]),
               lambda v: check_close(v, [convolution_mp(y) for y in conv_pts],
                                     1e-8, 0.0, "mellin-convolve")),
        ]
        self._cli(seed, out, bg, bj, sph_pts[:POINTS])
        # the three deterministic Prop. 4.5 reports of the quick suite,
        # emitted: the harness's report path without Monte Carlo
        prop45 = out / "harness-prop45"
        self.ops.append(Op("harness-prop45", lambda: emit_prop45(prop45),
                           check_prop45))

    def _cli(self, seed, out: Path, bg, bj, sph_pts):
        import antiprod.kernels as ker
        import antiprod.mellin as mel
        grid = {"grid_lo": 0.05, "grid_points": 100}
        s = [4.0, 0.0]
        cases = [
            ("jpdf-ginibre", "jpdf", "csv",
             {"factor": "ginibre", "n": 2, "nu": NU, "base": bg,
              "grid_hi": 4.0 * bg[1], **grid}),
            ("jpdf-jacobi", "jpdf", "jsonlines",
             {**JACOBI_CLI, "base": bj, "grid_hi": bj[1], **grid}),
            ("kernel-ginibre", "kernel", "csv", README_CONFIG),
            ("kernel-jacobi", "kernel", "jsonlines",
             {**JACOBI_CLI, "base": bj, "grid_hi": bj[1], **grid}),
            ("spherical", "spherical", "csv",
             {"s": s, "a_points": [a for _, a in sph_pts]}),
        ]
        for k, (tag, cmd, fmt, params) in enumerate(cases):
            cfg = write_config(out / "inputs" / f"{tag}.yaml", params)
            o = out / f"cli-{tag}"
            argv = [cmd, "--config", cfg, "--seed", cli_seed(seed, 4, k),
                    "--out", o, "--format", fmt]
            if cmd == "spherical":
                ref = lambda a, s=s: phi_mp(s, a).real
            else:
                weight = (lambda nu=params["nu"]: mel.ginibre_weight(nu)) \
                    if params["factor"] == "ginibre" else \
                    (lambda: mel.jacobi_weight(*JACOBI))
                # the pooled marginal of jpdf is the kernel diagonal over n
                scale = 1.0 / params["n"] if cmd == "jpdf" else 1.0
                ref = lambda y, b=params["base"], w=weight, c=scale: \
                    c * ker.kernel_fixed(y, y, b, w(), method="series")
            self.ops.append(Op(
                f"cli-{tag}", lambda argv=argv, o=o: run_cli(argv, o),
                lambda res, cmd=cmd, ref=ref, p=params, name=f"cli-{tag}":
                    check_cli_table(res, cmd, p, ref, name)))

    def warm_up(self):
        # every operation but the four grids, whose jpdf paths the point
        # operations take as well
        for op in self.ops[4:]:
            op.run()

    def check_round(self, stats_by_op: dict):
        pass


def kernel_diag(ker, base, weight, x):
    system = ker.biorth_fixed(base, weight)
    return np.array([ker.kernel_fixed(y, y, base, weight, method="series",
                                      system=system) for y in x])


def kernel_forms(ker, base, weight, pts):
    """Series, single-contour and double-contour kernels on pts x pts."""
    system = ker.biorth_fixed(base, weight)
    return np.array([[[ker.kernel_fixed(yp, y, base, weight, method="series",
                                        system=system),
                       ker.kernel_fixed(yp, y, base, weight, method="contour",
                                        system=system),
                       ker.kernel_fixed_contour(yp, y, base, weight)]
                      for y in pts] for yp in pts])


def named_values(sph, hc):
    phi = [sph.phi_closed((2.0, 0.0), (1.0, 2.0))]
    phi += [sph.phi_closed(tuple(2.0 * (n - j) for j in range(1, n + 1)),
                           (1.0,) * n) for n in (1, 2, 3, 4)]
    return np.array(phi), np.array([sph.harish_chandra_o2n((x,), (y,))
                                    for x, y in hc])


def check_named(values, hc):
    phi, hc_vals = values
    check_close(phi, [2.0, 1.0, 1.0, 1.0, 1.0], 1e-12, 0.0,
                "Phi((2,0);(1,2)) = 2 and Phi(s;1,...,1) = 1")
    check_close(hc_vals, np.cosh(hc[:, 0] * hc[:, 1]), 1e-13, 0.0,
                "HC at n = 1 is cosh(x y)")


def emit_prop45(out: Path) -> list:
    import antiprod.harness as harness
    reports = [harness.run_prop45_check(0.0, 0.0, 1),
               harness.run_prop45_check(1.0, 0.5, 2),
               harness.run_prop45_check(0.0, 0.0, 1, perturb=True)]
    paths = harness.emit_results(reports, out)
    return [(p.name, p.read_text()) for p in paths]


def check_prop45(files: list):
    summaries = [(name, text) for name, text in files if name.endswith(".summary.txt")]
    if len(summaries) != 3:
        raise CheckError(f"harness-prop45: {len(summaries)} summaries")
    for name, text in summaries:
        check_summary(text, name)


def check_mellin_numeric(values):
    """Numeric Mellin transforms against 50-digit mpmath Gamma and Beta."""
    want = []
    for key in MELLIN_WEIGHTS:
        _, mellin = weight_mp(*key)
        with mp.workdps(DPS):
            want += [complex(mellin(s)) for s in MELLIN_S]
    check_close(values, want, 1e-8, 0.0, "mellin-numeric")


def convolution_mp(y: float) -> float:
    """(A (*) B)(y) = int A(t) B(y/t) dt/t for the Ginibre weight at NU and
    the Jacobi weight (0, 0, 1), by mpmath quadrature."""
    ginibre, _ = weight_mp("ginibre", NU)
    jacobi, _ = weight_mp("jacobi", 0.0, 0.0, 1)
    with mp.workdps(30):
        y = mp.mpf(float(y))
        return float(mp.quad(lambda t: ginibre(t) * jacobi(y / t) / t,
                             [y, 2 * y, 10 * y, mp.inf]))


def check_mass(P, breaks, m: int, what: str):
    require_finite(P, what)
    if np.any(P < 0):
        raise CheckError(f"{what}: negative density values")
    _, w = gauss_legendre(breaks, m)
    mass = float(w @ P @ w)
    if not abs(mass - 1.0) < MASS_TOL:
        raise CheckError(f"{what}: mass {mass!r}")


def check_density_grid(P, breaks, m: int, base, weight_key):
    """Unit mass, and three grid values against the mpmath formula."""
    what = f"jpdf grid at base {base}"
    check_mass(P, breaks, m, what)
    x, _ = gauss_legendre(breaks, m)
    idx = [(1, 2), (x.size // 3, x.size // 2), (x.size // 2, x.size - 3)]
    eps = 1e-20 if base[0] == base[1] else 0.0
    want = [jpdf_fixed_mp([x[i], x[j]], base, weight_mp(*weight_key), eps)
            for i, j in idx]
    check_close([P[i, j] for i, j in idx], want, 1e-9, 1e-300, what)


def check_points(values, pts, base, weight_key, what: str):
    require_finite(values[:, None], what)
    eps = 1e-20 if len(set(base)) < len(base) else 0.0
    want = [jpdf_fixed_mp(a, base, weight_mp(*weight_key), eps) for a in pts]
    check_close(values, want, 1e-8, 1e-300, what)


def check_trace(K, breaks, m: int, what: str):
    require_finite(K[:, None], what)
    _, w = gauss_legendre(breaks, m)
    check_close(float(w @ K), 2.0, 1e-8, 0.0, f"{what}: integral of K(y, y)")


def check_forms(forms, what: str):
    require_finite(forms.reshape(-1, 3), what)
    check_close(forms[..., 1], forms[..., 0], 1e-7, 1e-9, f"{what}: contour")
    check_close(forms[..., 2], forms[..., 0], 1e-7, 1e-9, f"{what}: double contour")


def check_cli_table(res, cmd: str, params: dict, ref, what: str):
    """Finite rows on the configured grid or points, each matching the
    library call at the same point."""
    if res.rc != 0:
        raise OpFailed(f"exit code {res.rc}")
    suffix = ".csv" if any(res.out.glob("*.csv")) else ".jsonl"
    header, rows = read_table(res.out / f"{cmd}{suffix}")
    require_finite(rows, what)
    col = {name: rows[:, i] for i, name in enumerate(header)}
    if cmd == "spherical":
        pts = np.array(params["a_points"])
        got_pts = np.stack([col[f"a_{j + 1}"] for j in range(pts.shape[1])], 1) \
            if len(rows) == len(pts) else None
        if got_pts is None or not np.array_equal(got_pts, pts):
            raise CheckError(f"{what}: rows are not the configured points")
        check_close(col["phi_im"], 0.0, 0.0, 1e-12, f"{what}: imaginary part")
        got, args = col["phi_re"], got_pts
    else:
        npts = params.get("grid_points", 200)
        y = col["y"]
        grid = np.linspace(params.get("grid_lo", 1e-4),
                           params.get("grid_hi", y[-1]), npts)
        if len(y) != npts:
            raise CheckError(f"{what}: {len(y)} rows, expected {npts}")
        check_close(y, grid, 1e-15, 0.0, f"{what}: grid")
        got, args = col["density" if cmd == "jpdf" else "K"], y
    check_close(got, [ref(v) for v in args], 1e-6, 1e-9,
                f"{what}: against the library")
