"""Fault matrix: which default `verify` checks fail which faults of the library.

Each fault is a small patch of one library function, rebound in every quadheat
module that binds it (a name imported with ``from ... import`` is a separate
binding in each importer; patching one alone hides the fault from the others).
A check *catches* a fault when it fails on a geometry it passes unfaulted,
with an error above its tolerance or by refusing.  Each row names the checks
that must catch its fault on each geometry.  Rows no default check catches
today are kept as gaps: strict xfails, so a check that starts catching one
fails the suite until the row is made a required catch.
"""

import numpy as np
import pytest
from test_cli import rotated_form_json

import quadheat
from quadheat import GridFunction, GridSpec, QuadricForm, SpectralData
from quadheat import boxop, cli, forms, hermite, kernel, quadrature, spectral
from quadheat.forms import FormIndex

HEIS = {"n": 1, "m": 1, "A": [[[1.0, 0.0]]]}
# (quadric, lambda, L) per geometry; the first three are Heisenberg n = 1
GEOMETRIES = {
    "heis_L1": (HEIS, [1.0], [1]),
    "heis_L0": (HEIS, [1.0], []),
    "heis_neg_L1": (HEIS, [-0.7], [1]),
    "n3": (rotated_form_json([1.0, -0.5, 0.75], 5), [1.0], [2]),
}
N1 = ("heis_L1", "heis_L0", "heis_neg_L1")
REFUSED = {"n3": {"semigroup"}}  # checks that refuse a geometry, faulted or not
_MODULES = (quadheat, boxop, cli, forms, hermite, kernel, quadrature, spectral)


def default_verify(geometry: str) -> dict:
    """The default verify report's entries by check name (no "checks" field)."""
    q, lam, L = GEOMETRIES[geometry]
    raw = {"quadric": q, "lambda": lam, "L": L}
    cfg = cli.JobConfig(quadric=QuadricForm.from_json(q), lam=np.array(lam), L=FormIndex(L),
                        s_values=[1.0], raw=raw, path="")
    return {c["name"]: c for c in cli.run_verification(cfg)["checks"]}


def caught(report: dict, geometry: str) -> set:
    return {name for name, c in report.items() if not c["pass"]} - REFUSED.get(geometry, set())


def _rebind(mp, home, name: str, wrap) -> None:
    """Rebind ``home.name`` to wrap(original) in every quadheat module that binds it."""
    original = getattr(home, name)
    fault = wrap(original)
    for mod in _MODULES:
        if getattr(mod, name, None) is original:
            mp.setattr(mod, name, fault)


def _log_rho_parts(change):
    """A fault of kernel._log_rho_parts: change(s, S, const, log_fac, rates) -> the three parts."""
    def install(mp):
        _rebind(mp, kernel, "_log_rho_parts",
                lambda orig: lambda s, S, L: change(np.asarray(s, dtype=float), S, *orig(s, S, L)))
    return install


def _sinh_argument_scaled(mp):  # 2 exp(s eps |mu|) |mu| / sinh(1.1 s |mu|)
    def wrap(orig):
        def fault(s, mu, eps):
            x = s * np.abs(mu)
            return orig(s, mu, eps) + np.log(np.sinh(x)) - np.log(np.sinh(1.1 * x))
        return fault
    _rebind(mp, kernel, "log_mu_sinh_factor", wrap)


def _batch(change):
    """A fault of kernel.weighted_heat_kernel_batch: change(S, phase_sign, call) -> values."""
    def install(mp):
        def wrap(orig):
            def fault(s, z, Zt, Q, S, L, phase_sign=-1.0):
                return change(S, phase_sign, lambda sign: orig(s, z, Zt, Q, S, L, phase_sign=sign))
            return fault
        _rebind(mp, kernel, "weighted_heat_kernel_batch", wrap)
    return install


def _heat_apply(change):
    """A fault of boxop.heat_apply: change(orig, f, s, S, L, out_points) -> values."""
    def install(mp):
        _rebind(mp, boxop, "heat_apply", lambda orig: lambda f, s, S, L, out_points:
                change(orig, f, s, S, L, out_points))
    return install


def _y_phase_flipped(mp):  # exp(-2i mu y Re c) conjugated on heat_apply's y-axes alone
    def wrap(orig):
        def fault(*args):
            own, vecs = orig(*args)
            return own, [np.conj(v) if k % 2 else v for k, v in enumerate(vecs)]
        return fault
    _rebind(mp, boxop, "_axis_vectors", wrap)


def _conjugated_heat_apply(orig, f, s, S, L, out_points):
    conj = GridFunction(f.spec, np.conj(np.concatenate([v for _, v in f.slabs()])))
    return [np.conj(v) for v in orig(conj, s, S, L, out_points)]


def _end_weights_not_halved(mp):
    mp.setattr(GridSpec, "weights", lambda self: [np.full(self.points, x[1] - x[0]) for x in self._axes])


def _columns_swapped(mp):  # eigenvector columns 0 and 1 swapped, mu kept in place
    def wrap(orig):
        def fault(A, lam=None):
            S = orig(A, lam)
            V = S.V[:, [1, 0] + list(range(2, S.n))] if S.n > 1 else S.V.copy()
            return SpectralData(mu=S.mu, V=V, nu=S.nu, tol=S.tol, lam=S.lam)
        return fault
    _rebind(mp, spectral, "eigendecompose", wrap)


def _on(geometries, *checks) -> dict:
    return {g: set(checks) for g in geometries}


NO_HEAT_APPLY = {"n3": "semigroup refuses n >= 3, and no other default check calls heat_apply"}
# name: (install, {geometry: checks that must catch the fault}, {geometry: why nothing catches it})
FAULTS = {
    "log_rho_plus_0.05": (
        _log_rho_parts(lambda s, S, c, f, r: (c + 0.05, f, r)),
        {**_on(N1, "inversion", "semigroup", "euclidean"), **_on(["n3"], "inversion", "euclidean")}, {}),
    "rates_x1.02": (
        _log_rho_parts(lambda s, S, c, f, r: (c, f, 1.02 * r)),
        {**_on(N1, "inversion", "pde_residual", "semigroup"), **_on(["n3"], "inversion", "pde_residual")}, {}),
    "log_rho_plus_0.05s": (  # e^{0.05 s} composes, so semigroup cannot see it
        _log_rho_parts(lambda s, S, c, f, r: (c, f + 0.05 * s[..., None] / S.n, r)),
        _on(GEOMETRIES, "inversion", "pde_residual", "euclidean"), {}),
    "sinh_1.1_s_mu": (
        _sinh_argument_scaled,
        {**_on(N1, "inversion", "pde_residual", "semigroup"), **_on(["n3"], "inversion", "pde_residual")}, {}),
    "eps_flipped": (
        lambda mp: _rebind(mp, forms, "epsilon", lambda orig: lambda L, S: -orig(L, S)),
        _on(GEOMETRIES, "pde_residual"), {}),
    "batch_without_2pi_m2": (  # semigroup's ratio cancels the factor; euclidean compares it at lambda = 0
        _batch(lambda S, sign, call: call(sign) / (2.0 * np.pi) ** (0.5 * S.m)),
        _on(GEOMETRIES, "euclidean"), {}),
    "batch_phase_conjugated": (
        _batch(lambda S, sign, call: call(-sign)),
        _on(N1, "semigroup"), {"n3": "semigroup refuses n >= 3"}),
    "heat_apply_y_phase_flipped": (_y_phase_flipped, _on(N1, "semigroup"), NO_HEAT_APPLY),
    "heat_apply_conjugated": (_heat_apply(_conjugated_heat_apply), _on(N1, "semigroup"), NO_HEAT_APPLY),
    "heat_apply_at_1.01s": (
        _heat_apply(lambda orig, f, s, S, L, pts: orig(f, 1.01 * s, S, L, pts)),
        _on(N1, "semigroup"), NO_HEAT_APPLY),
    "heat_apply_x1.01": (
        _heat_apply(lambda orig, f, s, S, L, pts: [1.01 * v for v in orig(f, s, S, L, pts)]),
        _on(N1, "semigroup"), NO_HEAT_APPLY),
    "end_weights_not_halved": (
        _end_weights_not_halved,
        {}, dict.fromkeys(GEOMETRIES, "every box is sized so the integrand is negligible at its ends")),
    "columns_swapped": (
        _columns_swapped,
        {}, {"n3": "semigroup refuses n >= 3, and the other checks see only |c_j| or V's columns alone"}),
}


def _cases(kind: int) -> list:
    return [pytest.param(name, g, id=f"{name}-{g}")
            for name, row in FAULTS.items() for g in row[kind]]


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_unfaulted_default_verify_passes(geometry):
    report = default_verify(geometry)
    assert list(report) == list(cli.DEFAULT_TOLERANCES)
    assert caught(report, geometry) == set()
    assert {name for name, c in report.items() if c["error"] is None} == REFUSED.get(geometry, set())


@pytest.mark.parametrize("fault,geometry", _cases(1))
def test_required_catches(fault, geometry):
    install, required, _ = FAULTS[fault]
    with pytest.MonkeyPatch.context() as mp:
        install(mp)
        report = default_verify(geometry)
    assert required[geometry] <= caught(report, geometry), {k: c["error"] for k, c in report.items()}


@pytest.mark.parametrize("fault,geometry", _cases(2))
def test_gap(fault, geometry):
    install, _, gaps = FAULTS[fault]
    with pytest.MonkeyPatch.context() as mp:
        install(mp)
        report = default_verify(geometry)
    if not caught(report, geometry):
        pytest.xfail(f"gap: no default check catches {fault} on {geometry}: {gaps[geometry]}")
    pytest.fail(f"{sorted(caught(report, geometry))} now catch {fault} on {geometry}: make it a required catch")


def test_every_row_names_a_geometry():
    assert all(set(row[1]) | set(row[2]) for row in FAULTS.values())
    assert all(set(row[1]).isdisjoint(row[2]) for row in FAULTS.values())
