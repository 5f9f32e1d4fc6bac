"""Command-line front end: evaluate kernels, scan grids, verify, evolve.

Commands
    eval    kernel values at configured points (JSON lines)
    scan    kernel values over a grid (CSV, written atomically)
    verify  run the numerical verification suite (JSON report)
    evolve  heat evolution of expression-defined initial data (CSV)

A single JSON config drives every command; see the README for the schema.
Exit codes: 0 success, 1 numeric failure, 2 invalid input.  All floating
point output uses shortest round-trip representations so reruns are
byte-identical and files reparse exactly.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .boxop import (
    GridFunction,
    GridSpec,
    heat_apply,
    initial_condition_check,
    pde_residual,
    sample_on_grid,
    semigroup_check,
    write_atomic,
    write_grid_csv,
)
from .errors import NumericsError
from .forms import FormIndex, epsilon
from .hermite import UTildeParams, default_series_terms, u_tilde_closed, u_tilde_series
from .kernel import (
    KernelQuery,
    rho_hat,
    rho_hat_adapted,
    rho_via_inversion,
    rho_hat_eta,
    weighted_heat_kernel,
)
from .quadrature import QuadratureSpec
from .quadric import QuadricForm
from .spectral import SpectralData, decompose_form, to_adapted

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INVALID = 2

ALL_CHECKS = (
    "mehler",
    "inversion",
    "pde_residual",
    "semigroup",
    "initial_condition",
    "euclidean",
    "evenness",
)

DEFAULT_TOLERANCES = {
    "mehler": 1e-9,
    "inversion": 1e-6,
    "pde_residual": 1e-5,
    "semigroup": 1e-5,
    "initial_condition": 5e-3,
    "euclidean": 1e-14,
    "evenness": 1e-12,
}


# ---------------------------------------------------------------------------
# initial-data expression grammar: identifiers, literals, + - * / ^, exp, ()


class ExprError(ValueError):
    """Parse failure with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ExprError(f"unexpected character {rest[0]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent for the tiny initial-data grammar."""

    def __init__(self, text: str, variables: set):
        self.tokens = _tokenize(text)
        self.variables = variables
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected trailing token {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = (
                    (lambda a, b: lambda env: a(env) + b(env))
                    if val == "+"
                    else (lambda a, b: lambda env: a(env) - b(env))
                )(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                node = (
                    (lambda a, b: lambda env: a(env) * b(env))
                    if val == "*"
                    else (lambda a, b: lambda env: a(env) / b(env))
                )(node, rhs)
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            inner = self.factor()
            if val == "-":
                return lambda env: -inner(env)
            return inner
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            expo = self.factor()
            return lambda env: base(env) ** expo(env)
        return base

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return lambda env, v=np.float64(val): v  # IEEE 1/0, not ZeroDivisionError
        if kind == "ident":
            if val == "exp":
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return lambda env: np.exp(inner(env))
            if val in self.variables:
                return lambda env, name=val: env[name]
            raise ExprError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprError(f"expected a value, got {val!r}", pos)


def parse_initial_expression(text: str, n: int):
    """Compile an initial-data expression over x1..xn, y1..yn.

    Returns a callable mapping an (N, n) complex array of points to N values.
    """
    variables = {f"x{j + 1}" for j in range(n)} | {f"y{j + 1}" for j in range(n)}
    fn = _Parser(text, variables).parse()

    def evaluate(Z):
        Z = np.asarray(Z, dtype=complex)
        env = {}
        for j in range(n):
            env[f"x{j + 1}"] = Z[..., j].real
            env[f"y{j + 1}"] = Z[..., j].imag
        return fn(env) * np.ones(Z.shape[:-1])

    return evaluate


# ---------------------------------------------------------------------------
# config parsing


@dataclass
class JobConfig:
    quadric: QuadricForm
    lam: np.ndarray
    L: FormIndex
    s_values: list
    raw: dict
    spectral: SpectralData = field(init=False)

    def __post_init__(self):
        self.spectral = decompose_form(self.quadric, self.lam)


def _finite_array(obj, name: str, shape: tuple) -> np.ndarray:
    """``obj`` as a float array of ``shape`` with finite entries; else ValueError naming it."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config field '{name}': {exc}") from exc
    if arr.shape != shape:
        raise ValueError(f"config field '{name}': expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"config field '{name}': entries must be finite, got {arr.tolist()}")
    return arr


def _parse_complex_vector(obj, n: int, name: str) -> np.ndarray:
    arr = _finite_array(obj, name, (n, 2))  # n [re, im] pairs
    return arr[:, 0] + 1j * arr[:, 1]


def load_config(path: str) -> JobConfig:
    """Parse and validate the job config, raising ValueError with field names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc

    errors = []
    quadric = None
    qspec = raw.get("quadric")
    if qspec is None:
        errors.append("config field 'quadric': missing")
    else:
        try:
            if isinstance(qspec, str):
                base = os.path.dirname(os.path.abspath(path))
                qpath = qspec if os.path.isabs(qspec) else os.path.join(base, qspec)
                with open(qpath, "r", encoding="utf-8") as fh:
                    qspec = json.load(fh)
            quadric = QuadricForm.from_json(qspec)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            errors.append(f"config field 'quadric': {exc}")

    lam = None
    if "lambda" not in raw:
        errors.append("config field 'lambda': missing")
    elif quadric is not None:
        try:
            lam = _finite_array(raw["lambda"], "lambda", (quadric.m,))
        except ValueError as exc:
            errors.append(str(exc))

    form = None
    try:
        entries = raw.get("L", [])
        if len(set(entries)) != len(entries):
            raise ValueError(f"repeated index in {entries}")
        form = FormIndex(entries)
        if quadric is not None:
            form.validate_against(quadric.n)
    except (ValueError, TypeError) as exc:
        errors.append(f"config field 'L': {exc}")

    s_raw = raw.get("s", 1.0)
    s_values = []
    try:
        s_list = [s_raw] if np.isscalar(s_raw) else list(s_raw)
        for s in s_list:
            if isinstance(s, bool) or not 0.0 < float(s) < np.inf:
                raise ValueError(f"time values must be positive finite numbers, got {s}")
            s_values.append(float(s))
        if not s_values:
            raise ValueError("empty list")
    except (ValueError, TypeError) as exc:
        errors.append(f"config field 's': {exc}")

    if errors:
        raise ValueError("; ".join(errors))
    return JobConfig(quadric=quadric, lam=lam, L=form, s_values=s_values, raw=raw)


def config_digest(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# commands


def cmd_eval(cfg: JobConfig, out_path: str | None) -> int:
    n = cfg.quadric.n
    pts_raw = cfg.raw.get("points")
    if pts_raw is None:
        raise ValueError("config field 'points': missing (required by eval)")
    points = [
        _parse_complex_vector(p, n, f"points[{i}]") for i, p in enumerate(pts_raw)
    ]
    zt = None
    if "point_tilde" in cfg.raw:
        zt = _parse_complex_vector(cfg.raw["point_tilde"], n, "point_tilde")
    S = cfg.spectral
    eps = epsilon(cfg.L, S)
    lines = []
    with np.errstate(all="ignore"):  # a non-finite value is reported below
        for s in cfg.s_values:
            for i, z in enumerate(points):
                if zt is None:
                    val = complex(rho_hat(KernelQuery(s, z, S, cfg.L)))
                else:
                    val = weighted_heat_kernel(s, z, zt, cfg.quadric, S, cfg.L)
                if not cmath.isfinite(val):
                    raise NumericsError(f"kernel value {val} at s={s!r}, points[{i}] "
                                        "is not finite")
                record = {
                    "s": s,
                    "point": [[float(c.real), float(c.imag)] for c in z],
                    "lambda": [float(x) for x in cfg.lam],
                    "L": list(cfg.L.L),
                    "mu": [float(x) for x in S.mu],
                    "nu": S.nu,
                    "eps": [int(e) for e in eps],
                    "value": [val.real, val.imag],
                    "log10_abs": float(np.log10(abs(val))) if val != 0 else None,
                }
                if zt is not None:
                    record["point_tilde"] = [[float(c.real), float(c.imag)] for c in zt]
                lines.append(json.dumps(record, allow_nan=False))
    text = "\n".join(lines) + "\n"
    if out_path:
        write_atomic(out_path, [text])
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _grid_from_config(cfg: JobConfig) -> GridSpec:
    gspec = cfg.raw.get("grid")
    if gspec is None:
        raise ValueError("config field 'grid': missing")
    points = gspec.get("points") if isinstance(gspec, dict) else None
    if isinstance(points, bool) or not isinstance(points, (int, float)) or points % 1:
        raise ValueError(f"config field 'grid.points': expected an integer, got {points!r}")
    try:
        spec = GridSpec(gspec["half_widths"], int(points))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"config field 'grid': {exc}") from exc
    if spec.dim != 2 * cfg.quadric.n:
        raise ValueError(
            f"config field 'grid.half_widths': expected 2n={2 * cfg.quadric.n} axes, "
            f"got {spec.dim}"
        )
    return spec


def cmd_scan(cfg: JobConfig, out_path: str | None) -> int:
    if out_path is None:
        raise ValueError("scan requires --out PATH for its CSV output")
    if len(cfg.s_values) != 1:
        raise ValueError("config field 's': scan expects a single time value")
    spec = _grid_from_config(cfg)
    s = cfg.s_values[0]
    S = cfg.spectral
    eps = epsilon(cfg.L, S)
    pts = spec.flat_points()
    values = rho_hat_adapted(s, pts[:, 0::2] + 1j * pts[:, 1::2], S, cfg.L)
    with np.errstate(divide="ignore"):  # log10(0.0) = -inf where the value underflows
        logs = np.log10(values)
    comments = [
        f"# config_sha256={config_digest(cfg.raw)}",
        f"# lambda={[float(x) for x in cfg.lam]}",
        f"# mu={[float(x) for x in S.mu]}",
        f"# nu={S.nu}",
        f"# eps={[int(e) for e in eps]}",
        f"# s={repr(s)}",
    ]
    columns = {"re": values, "im": np.zeros_like(values), "log10_abs": logs}
    write_grid_csv(out_path, spec, columns, comments)
    return EXIT_OK


def cmd_evolve(cfg: JobConfig, out_path: str | None, threads: int) -> int:
    if out_path is None:
        raise ValueError("evolve requires --out PATH for its CSV output")
    n = cfg.quadric.n
    spec = _grid_from_config(cfg)
    expr = cfg.raw.get("initial")
    csv_path = cfg.raw.get("initial_csv")
    if (expr is None) == (csv_path is None):
        raise ValueError(
            "config field 'initial': evolve needs exactly one of "
            "'initial' (expression) or 'initial_csv' (grid CSV)"
        )
    out_raw = cfg.raw.get("out_points")
    if out_raw is None:
        raise ValueError("config field 'out_points': missing (required by evolve)")
    out_points = [
        _parse_complex_vector(p, n, f"out_points[{i}]") for i, p in enumerate(out_raw)
    ]
    S = cfg.spectral
    if expr is not None:
        f = parse_initial_expression(expr, n)
        # Overflow and division by zero show up as non-finite nodes, reported below.
        with np.errstate(all="ignore"):
            gf = sample_on_grid(f, spec, S)
    else:
        try:
            gf = GridFunction.load_csv(csv_path, spec)
        except (OSError, ValueError) as exc:
            raise ValueError(f"config field 'initial_csv': {exc}") from exc
    bad = int(np.count_nonzero(~np.isfinite(gf.values)))
    if bad:
        source = "initial" if expr is not None else "initial_csv"
        raise ValueError(f"config field '{source}': initial data is not finite at "
                         f"{bad} of {gf.values.size} grid nodes")

    def one_s(s):
        return heat_apply(gf, s, cfg.quadric, S, cfg.L, out_points)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_s, cfg.s_values))
    else:
        results = [one_s(s) for s in cfg.s_values]
    lines = [
        f"# config_sha256={config_digest(cfg.raw)}",
        "s,point_index,re,im",
    ]
    for s, vals in zip(cfg.s_values, results):
        for i, v in enumerate(vals):
            lines.append(f"{repr(float(s))},{i},{repr(v.real)},{repr(v.imag)}")
    write_atomic(out_path, ["\n".join(lines) + "\n"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification checks: each returns (error, message), the message naming its error budget


def _check_mehler(cfg: JobConfig, tol: float) -> tuple:
    S = cfg.spectral
    if S.nu < 1:
        raise NumericsError("mehler check needs at least one nonzero eigenvalue")
    worst = 0.0
    grid = np.linspace(-4.0, 4.0, 5)
    a = np.repeat(grid[:, None, None], S.nu, axis=-1)  # a_j = grid[k] on axis 0
    b = a.reshape(1, 5, S.nu)  # b_j = grid[l] on axis 1
    complement = FormIndex([j for j in range(1, S.n + 1) if not cfg.L.contains(j)])
    for L in (cfg.L, complement):
        for s in (0.1, 1.0):
            p = UTildeParams(s, a, b, S, L)
            worst = max(worst, float(np.max(np.abs(u_tilde_closed(p) - u_tilde_series(p, 300)))))
    needed = ", ".join(f"{default_series_terms(s, S.mu[:S.nu])} at s={s}" for s in (0.1, 1.0))
    return worst, f"series truncated at 300 terms; a 1e-12 tail needs {needed}"


def _check_inversion(cfg: JobConfig, tol: float) -> tuple:
    S = cfg.spectral
    if S.nu < 1:
        raise NumericsError("inversion check needs nu >= 1")
    worst, notes = 0.0, []
    samples = np.array([(0.3, -0.2), (0.0, 0.0), (-0.7, 0.5)])
    xp = np.repeat(samples[:, :1], S.nu, axis=1)
    yp = np.repeat(samples[:, 1:], S.nu, axis=1)
    for s in (0.3, 0.7):
        want = np.array([rho_hat_eta(s, x, y, None, S, cfg.L) for x, y in zip(xp, yp)])
        got, tails, budget = rho_via_inversion(s, xp, yp, None, S, cfg.L, tol=tol,
                                               return_budget=True)
        worst = max(worst, float(np.max(np.abs(got - want))), float(np.max(np.abs(got.imag))))
        notes.append(f"s={s}: tails {', '.join(f'{t:.1e}' for t in tails)}, budget {budget:.1e}")
    return worst, "per-direction quadrature tails and product budget: " + "; ".join(notes)


def _check_pde_residual(cfg: JobConfig, tol: float) -> tuple:
    n = cfg.quadric.n
    if n == 1:
        grid = GridSpec.cube(2.0, 2, 2001)
    elif n == 2:
        grid = GridSpec.cube(0.06, 4, 49)
    else:
        raise NumericsError("pde_residual check supports n <= 2 grids only")
    return pde_residual(0.7, cfg.spectral, cfg.L, grid, 1e-4), ""


def _semigroup_points(n: int):
    z = np.zeros(n, dtype=complex)
    zt = np.zeros(n, dtype=complex)
    z[0] = 0.3 + 0.1j
    zt[0] = -0.2 + 0.5j
    return z, zt


def _check_semigroup(cfg: JobConfig, tol: float) -> tuple:
    n = cfg.quadric.n
    if n > 1:
        raise NumericsError("semigroup check runs on n = 1 geometries")
    debug = cfg.raw.get("debug", {})
    phase_sign = float(debug.get("phase_sign", -1.0))
    z, zt = _semigroup_points(n)
    quad = QuadratureSpec(half_width=6.0, points=400, tail_rate=1.0)
    return semigroup_check(0.4, 0.4, z, zt, cfg.quadric, cfg.spectral, cfg.L, quad,
                           phase_sign=phase_sign), ""


def _check_initial_condition(cfg: JobConfig, tol: float) -> tuple:
    if cfg.quadric.n > 1:
        raise NumericsError("initial_condition check runs on n = 1 geometries")

    def f(Z):
        return np.exp(-np.sum(np.abs(Z) ** 2, axis=-1))

    errs = initial_condition_check(
        f, [0.1, 0.01, 0.001], cfg.quadric, cfg.spectral, cfg.L
    )
    if not all(a > b for a, b in zip(errs, errs[1:])):
        raise NumericsError(f"initial-condition errors not decreasing: {errs}")
    return errs[-1], ""


def _check_euclidean(cfg: JobConfig, tol: float) -> tuple:
    rng = np.random.default_rng(20240811)
    n, m = cfg.quadric.n, cfg.quadric.m
    S0 = decompose_form(cfg.quadric, np.zeros(m))
    worst = 0.0
    for _ in range(200):
        s = float(rng.uniform(0.3, 3.0))
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = rho_hat(KernelQuery(s, z, S0, cfg.L))
        want = (
            2.0**n
            * (2.0 * np.pi) ** (-(0.5 * m + n))
            * s ** (-n)
            * np.exp(-float(np.sum(np.abs(z) ** 2)) / s)
        )
        worst = max(worst, abs(got - want) / want)
    return worst, ""


def _check_evenness(cfg: JobConfig, tol: float) -> tuple:
    rng = np.random.default_rng(20240812)
    S = cfg.spectral
    worst = 0.0
    for _ in range(100):
        s = float(rng.uniform(0.2, 2.0))
        z = rng.normal(size=S.n) + 1j * rng.normal(size=S.n)
        base = rho_hat(KernelQuery(s, z, S, cfg.L))
        p = to_adapted(S, z)
        c = np.concatenate([p.zp, p.zpp])
        for j in range(S.n):
            # x_j -> -x_j and y_j -> -y_j sign flips in adapted coordinates
            for flip in (-np.conj(c[j]), np.conj(c[j])):
                c2 = c.copy()
                c2[j] = flip
                other = rho_hat(KernelQuery(s, S.V @ c2, S, cfg.L))
                worst = max(worst, abs(other - base) / base)
        neg = rho_hat(KernelQuery(s, -z, S, cfg.L))
        worst = max(worst, abs(neg - base) / base)
    return worst, ""


CHECK_FUNCTIONS = {
    "mehler": _check_mehler,
    "inversion": _check_inversion,
    "pde_residual": _check_pde_residual,
    "semigroup": _check_semigroup,
    "initial_condition": _check_initial_condition,
    "euclidean": _check_euclidean,
    "evenness": _check_evenness,
}


def run_verification(cfg: JobConfig, tol_override: float | None = None) -> dict:
    """Run the configured checks and assemble the report dict; a check that
    cannot run (NumericsError or ValueError) is a failed entry with error null."""
    names = cfg.raw.get("checks", list(ALL_CHECKS))
    unknown = [c for c in names if c not in CHECK_FUNCTIONS]
    if unknown:
        raise ValueError(f"config field 'checks': unknown check names {unknown}")
    tolerances = dict(DEFAULT_TOLERANCES)
    tolerances.update(cfg.raw.get("tolerances", {}))
    tols = [float(tol_override if tol_override is not None else tolerances[name]) for name in names]
    if not all(0.0 < tol < np.inf for tol in tols):
        raise ValueError("config field 'tolerances': must be positive and finite, got "
                         f"{dict(zip(names, tols))}")
    entries = []
    for name, tol in zip(names, tols):
        entry = {"name": name, "pass": False, "error": None, "tolerance": tol, "runtime_s": 0.0}
        t0 = time.perf_counter()
        try:
            err, message = CHECK_FUNCTIONS[name](cfg, tol)
            if not np.isfinite(err):
                raise NumericsError(f"{name} check error is not finite ({err})")
            entry.update({"pass": bool(err <= tol), "error": float(err)})
        except (NumericsError, ValueError) as exc:
            message = str(exc)
        entry.update({"runtime_s": round(time.perf_counter() - t0, 3), "message": message})
        entries.append(entry)
    return {
        "config_sha256": config_digest(cfg.raw),
        "checks": entries,
        "all_pass": all(e["pass"] for e in entries),
    }


def cmd_verify(cfg: JobConfig, out_path: str | None, tol_override: float | None) -> int:
    report = run_verification(cfg, tol_override)
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if out_path:
        write_atomic(out_path, [text])
    else:
        sys.stdout.write(text)
    return EXIT_OK if report["all_pass"] else EXIT_NUMERIC


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadheat",
        description="Evaluate and verify heat kernels on quadric geometries.",
    )
    parser.add_argument("command", choices=["eval", "scan", "verify", "evolve"])
    parser.add_argument("--config", required=True, help="path to the JSON job config")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--threads", type=int, default=1,
                        help="evolve's parallelism cap, at most the CPU count; scan ignores it")
    parser.add_argument("--tol", type=float, default=None,
                        help="override every verification tolerance")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        sys.stderr.write("error: --threads must be at least 1\n")
        return EXIT_INVALID
    if args.tol is not None and not 0.0 < args.tol < float("inf"):
        sys.stderr.write(f"error: --tol must be a positive finite number, got {args.tol}\n")
        return EXIT_INVALID
    threads = min(args.threads, os.cpu_count() or 1)
    try:
        cfg = load_config(args.config)
        if args.command == "eval":
            return cmd_eval(cfg, args.out)
        if args.command == "scan":
            return cmd_scan(cfg, args.out)
        if args.command == "evolve":
            return cmd_evolve(cfg, args.out, threads)
        return cmd_verify(cfg, args.out, args.tol)
    except (ValueError, ExprError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except NumericsError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
