"""Command-line front end: evaluate kernels, scan grids, verify, evolve.

Commands
    eval    kernel values at configured points (JSON lines)
    scan    kernel values over a grid (CSV, written atomically)
    verify  run the numerical verification suite (JSON report; six checks by default)
    evolve  heat evolution of expression-defined initial data (CSV)

A single JSON config drives every command; see the README for the schema.
Exit codes: 0 success, 1 numeric failure, 2 invalid input.  All floating
point output uses shortest round-trip representations so reruns are
byte-identical and files reparse exactly.
"""

from __future__ import annotations

import argparse
import ast
import errno
import functools
import hashlib
import json
import operator
import os
import re
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

# pde_residual and initial_condition_check stay in this namespace for callers that instrument them.
from .boxop import (  # noqa: F401
    GridFunction,
    GridSpec,
    SampledField,
    heat_apply,
    initial_condition_check,
    pde_residual,
    pde_residual_richardson,
    semigroup_check,
    write_atomic,
    write_grid_csv,
)
from .errors import NumericsError
from .forms import FormIndex, epsilon
from .hermite import UTildeParams, default_series_terms, u_tilde_closed, u_tilde_series
# rho_hat and weighted_heat_kernel stay in this namespace for callers that instrument them.
from .kernel import (  # noqa: F401
    _matmul_rows,
    log_rho_hat,
    rho_hat,
    rho_hat_adapted,
    rho_via_inversion,
    rho_hat_eta,
    weighted_heat_kernel,
    weighted_heat_kernel_batch,
    weighted_phase,
)
from .quadrature import NODE_BUDGET
from .quadric import QuadricForm, json_numbers
from .spectral import SpectralData, decompose_form

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INVALID = 2

DEFAULT_TOLERANCES = {
    "mehler": 1e-9,
    "inversion": 1e-6,
    "pde_residual": 1e-5,
    "semigroup": 1e-5,
    "euclidean": 1e-14,
    "evenness": 1e-12,
}
SERIES_MARGIN = 10  # terms the mehler check sums past each time's default_series_terms
# The README schema's top-level fields and initial_csv, then its grid and debug keys; others exit 2.
CONFIG_FIELDS = ("quadric", "lambda", "L", "s", "points", "point_tilde", "grid", "initial",
                 "initial_csv", "out_points", "checks", "tolerances", "debug")
GRID_FIELDS = ("half_widths", "points")
DEBUG_FIELDS = ("phase_sign",)


# ---------------------------------------------------------------------------
# initial-data expressions: + - * / ^, unary + -, exp(.), x1..yn, ASCII decimal literals.
# Python's parser reads them with "^" as "**": right-associative and binding tighter than
# a unary minus on its left (-2^2 = -4), whitespace and newlines free, syntax error
# positions its own.  A whitelist walk refuses every other node; nesting is capped.


class ExprError(ValueError):
    """Parse failure with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


MAX_NESTING = 100  # parentheses, and operations in the parse tree, nested in one another
_TOO_DEEP = f"expression nests too deeply (more than {MAX_NESTING} levels)"
_OUTSIDE_GRAMMAR = re.compile(r"\*\*|[^\sA-Za-z0-9_.+\-*/^()]")
_DECIMAL = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def parse_initial_expression(text: str, n: int):
    """Compile an initial-data expression over x1, y1, ..., xn, yn.

    Returns an elementwise callable ``f(x1, y1, ..., xn, yn)`` of 2n real
    arrays, the contract of boxop.SampledField (one call per slab), whose
    result has their broadcast shape (a constant stays a scalar).
    """
    names = [f"{a}{j + 1}" for j in range(n) for a in "xy"]
    bad = _OUTSIDE_GRAMMAR.search(text)
    if bad:
        raise ExprError(f"unexpected {bad.group()!r}", bad.start())
    depth = 0
    for pos, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if not 0 <= depth <= MAX_NESTING:
            raise ExprError("unmatched ')'" if depth < 0 else _TOO_DEEP, pos)
    # One line of ASCII, "^" as "**" (the same precedence and right associativity), in
    # parentheses so that leading whitespace parses; back[i] is the text position of src[i].
    src = "(" + re.sub(r"\s", " ", text).replace("^", "**") + ")"
    back = [0] + [i for i, ch in enumerate(text) for _ in range(1 + (ch == "^"))] + [len(text)] * 2
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)  # "1if": a literal run into a keyword
            tree = ast.parse(src, mode="eval").body
    except SyntaxError as exc:
        raise ExprError(exc.msg, back[min(max((exc.offset or 1) - 1, 0), len(src))]) from None
    except (RecursionError, MemoryError):  # CPython's parser on a pathological input
        raise ExprError(_TOO_DEEP, 0) from None

    def build(node, depth: int):
        pos = back[node.col_offset]
        if depth > MAX_NESTING:
            raise ExprError(_TOO_DEEP, pos)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            op, a, b = _BINARY[type(node.op)], build(node.left, depth + 1), build(node.right, depth + 1)
            return lambda env: op(a(env), b(env))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            inner = build(node.operand, depth + 1)
            return inner if isinstance(node.op, ast.UAdd) else lambda env: -inner(env)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "exp"
                and node.func.col_offset == node.col_offset  # not "(exp)(x1)"
                and len(node.args) == 1 and not node.keywords):
            inner = build(node.args[0], depth + 1)
            return lambda env: np.exp(inner(env))
        if isinstance(node, ast.Name) and node.id in names:
            return lambda env, name=node.id: env[name]
        literal = src[node.col_offset:node.end_col_offset]
        if isinstance(node, ast.Constant) and _DECIMAL.fullmatch(literal):
            return lambda env, v=np.float64(float(literal)): v  # IEEE 1/0, not ZeroDivisionError
        what = "unknown identifier" if isinstance(node, ast.Name) else "unexpected"
        raise ExprError(f"{what} {text[pos:back[node.end_col_offset - 1] + 1]!r}", pos)

    fn = build(tree, 0)
    return lambda *xy: fn(dict(zip(names, xy, strict=True)))


# ---------------------------------------------------------------------------
# config parsing


@dataclass
class JobConfig:
    quadric: QuadricForm
    lam: np.ndarray
    L: FormIndex
    s_values: list
    raw: dict
    path: str
    spectral: SpectralData = field(init=False)

    def __post_init__(self):
        self.spectral = decompose_form(self.quadric, self.lam)


def _finite_array(obj, name: str, shape: tuple) -> np.ndarray:
    """quadric.json_numbers(obj, shape), its ValueError naming the config field."""
    try:
        return json_numbers(obj, shape)
    except ValueError as exc:
        raise ValueError(f"config field '{name}': {exc}") from exc


def _parse_complex_vector(obj, n: int, name: str) -> np.ndarray:
    arr = _finite_array(obj, name, (n, 2))  # n [re, im] pairs
    return arr[:, 0] + 1j * arr[:, 1]


def _parse_points(obj, n: int, name: str) -> np.ndarray:
    """A JSON list of points, each n [re, im] pairs, as a (k, n) complex array.

    One json_numbers call checks the whole list; only when it fails are the
    points checked one at a time, to name the first bad ``name[i]``.
    """
    if obj is None:
        raise ValueError(f"config field '{name}': missing")
    try:
        arr = json_numbers(obj, (-1, n, 2)) if obj != [] else np.zeros((0, n, 2))
    except ValueError as exc:
        for i, p in enumerate(obj if isinstance(obj, list) else []):
            _parse_complex_vector(p, n, f"{name}[{i}]")
        raise ValueError(f"config field '{name}': {exc}") from None
    return arr[..., 0] + 1j * arr[..., 1]


def _config_relative(config_path: str, path: str) -> str:
    """``path`` named in a config, relative to the config file's directory (absolute: as is)."""
    return os.path.join(os.path.dirname(os.path.abspath(config_path)), path)


def _unknown(obj: dict, prefix: str, known) -> list:
    """One error per key of ``obj`` not in ``known``, naming it as '<prefix><key>'."""
    return [f"config field '{prefix}{key}': unknown field" for key in obj if key not in known]


def load_config(path: str) -> JobConfig:
    """Parse and validate the job config, raising ValueError with field names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # the second: nested past the stack
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")

    errors = _unknown(raw, "", CONFIG_FIELDS)
    quadric = None
    qspec = raw.get("quadric")
    if qspec is None:
        errors.append("config field 'quadric': missing")
    else:
        try:
            if isinstance(qspec, str):
                with open(_config_relative(path, qspec), "r", encoding="utf-8") as fh:
                    qspec = json.load(fh)
            quadric = QuadricForm.from_json(qspec)
        except (ValueError, OSError, RecursionError) as exc:  # JSONDecodeError is a ValueError
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
        json_numbers(entries, (-1,))
        form = FormIndex(entries)
        if quadric is not None:
            form.validate_against(quadric.n)
    except ValueError as exc:
        errors.append(f"config field 'L': {exc}")

    s_raw = raw.get("s", 1.0)
    s_values = []
    try:
        s_values = json_numbers(s_raw if isinstance(s_raw, list) else [s_raw], (-1,)).tolist()
        if not s_values or min(s_values) <= 0.0:
            raise ValueError(f"expected one or more positive times, got {s_raw!r}")
    except ValueError as exc:
        errors.append(f"config field 's': {exc}")

    if errors:
        raise ValueError("; ".join(errors))
    return JobConfig(quadric=quadric, lam=lam, L=form, s_values=s_values, raw=raw, path=path)


def config_digest(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# commands


def _json_field(key: str, value) -> str:
    return f'"{key}": {json.dumps(value, allow_nan=False)}'


def _pairs(z) -> list:
    return [[float(c.real), float(c.imag)] for c in z]


def _values_and_logs(log_rho, m: int = 0, phase=1.0) -> tuple:
    """The written values ((2 pi)^{m/2} exp(log_rho)) * phase and their log10_abs: log10|value|,
    or where the value underflows to 0, (log_rho + (m/2) log 2 pi) / ln 10, so it stays finite."""
    values = (2.0 * np.pi) ** (0.5 * m) * np.exp(log_rho) * phase
    logs = (log_rho + 0.5 * m * np.log(2.0 * np.pi)) / np.log(10.0)
    return values, np.log10(np.abs(values), out=logs, where=values != 0.0)


def _emit(out_path: str | None, text: str) -> None:  # atomically to out_path, or to stdout without one
    if out_path:
        write_atomic(out_path, [text])
    else:
        sys.stdout.write(text)


def cmd_eval(cfg: JobConfig, out_path: str | None) -> int:
    n, S = cfg.quadric.n, cfg.spectral
    P = _parse_points(cfg.raw.get("points"), n, "points")
    zt = _parse_complex_vector(cfg.raw["point_tilde"], n, "point_tilde") if "point_tilde" in cfg.raw else None
    eps = epsilon(cfg.L, S)
    # Each line is json.dumps(record, allow_nan=False) of the record dict {s, point,
    # lambda, L, mu, nu, eps, value, log10_abs[, point_tilde]}; fields that do not
    # change within the job, or within a point, are encoded once.
    job = ", ".join(_json_field(k, v) for k, v in (
        ("lambda", [float(x) for x in cfg.lam]), ("L", list(cfg.L.L)),
        ("mu", [float(x) for x in S.mu]), ("nu", S.nu), ("eps", [int(e) for e in eps])))
    heads = [f'{_json_field("point", _pairs(z))}, {job}, "value": [' for z in P]
    tail = "}" if zt is None else f', {_json_field("point_tilde", _pairs(zt))}}}'
    lines = []
    with np.errstate(all="ignore"):  # a non-finite value is reported below
        c = _matmul_rows(P if zt is None else P - zt, np.conj(S.V))
        sq = c.real**2 + c.imag**2
        # the two-point kernel (2 pi)^{m/2} rho_hat(z - zt) times weighted_heat_kernel_batch's phase
        m, phase = (0, 1.0) if zt is None else (S.m, weighted_phase(P, zt, cfg.quadric, S))
        for s in cfg.s_values:
            vals, logs = _values_and_logs(log_rho_hat(s, sq, S, cfg.L), m, phase)
            if not np.isfinite(vals).all():
                i = int(np.argmin(np.isfinite(vals)))
                raise NumericsError(f"kernel value {complex(vals[i])} at s={s!r}, points[{i}] is not finite")
            for head, v, lg in zip(heads, vals.tolist(), logs.tolist()):
                log = "null" if lg == -np.inf else repr(lg)  # only when |c|^2 overflowed
                lines.append(f'{{"s": {s!r}, {head}{v.real!r}, {v.imag!r}], '
                             f'"log10_abs": {log}{tail}\n')
    _emit(out_path, "".join(lines))  # no points: no records, empty output
    return EXIT_OK


def _grid_from_config(cfg: JobConfig) -> GridSpec:
    gspec = cfg.raw.get("grid")
    if not isinstance(gspec, dict):
        what = "missing" if gspec is None else f"expected an object, got {gspec!r}"
        raise ValueError(f"config field 'grid': {what}")
    if unknown := _unknown(gspec, "grid.", GRID_FIELDS):
        raise ValueError("; ".join(unknown))
    points = gspec.get("points")
    if isinstance(points, bool) or not isinstance(points, (int, float)) or points % 1:
        raise ValueError(f"config field 'grid.points': expected an integer, got {points!r}")
    if "half_widths" not in gspec:
        raise ValueError("config field 'grid.half_widths': missing")
    try:
        spec = GridSpec(gspec["half_widths"], int(points))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config field 'grid': {exc}") from exc
    # GridSpec has refused non-finite widths; this refuses strings and booleans.
    _finite_array(gspec["half_widths"], "grid.half_widths", (2 * cfg.quadric.n,))
    return spec


def cmd_scan(cfg: JobConfig, out_path: str) -> int:
    if len(cfg.s_values) != 1:
        raise ValueError("config field 's': scan expects a single time value")
    spec = _grid_from_config(cfg)
    s = cfg.s_values[0]
    S = cfg.spectral
    eps = epsilon(cfg.L, S)
    # The kernel depends on a node only through |c_j|^2 = x_j^2 + y_j^2: it is evaluated and formatted
    # once per tuple of their distinct bit patterns (a row of ``table``), keyed by mixed radix.
    radii, key = [], 0
    for sq in spec.squared_radii():
        bits, inverse = np.unique(sq.view(np.uint64), return_inverse=True)
        radii.append(bits.view(float))
        key = key * bits.size + inverse.reshape(sq.shape)
    table = np.stack(np.meshgrid(*radii, indexing="ij"), axis=-1).reshape(-1, S.n)
    with np.errstate(all="ignore"):  # a non-finite cell is reported below
        values, logs = _values_and_logs(log_rho_hat(s, table, S, cfg.L))
    bad = ~(np.isfinite(values) & np.isfinite(logs))
    if bad.any():
        i = np.unravel_index(int(np.argmax(bad[key])), key.shape)
        cells = f"re {float(values[key[i]])!r}, log10_abs {float(logs[key[i]])!r}"
        raise NumericsError(f"kernel {cells} at s={s!r}, grid node "
                            f"{[float(a[j]) for a, j in zip(spec.axes(), i)]} is not finite")
    comments = [
        f"# config_sha256={config_digest(cfg.raw)}",
        f"# lambda={[float(x) for x in cfg.lam]}",
        f"# mu={[float(x) for x in S.mu]}",
        f"# nu={S.nu}",
        f"# eps={[int(e) for e in eps]}",
        f"# s={repr(s)}",
    ]
    re, lg = (repr(c.tolist())[1:-1].split(", ") for c in (values, logs))
    tails = [f"{v},0.0,{g}" for v, g in zip(re, lg)]  # the kernel is real: im is 0.0
    write_grid_csv(out_path, spec, ["re", "im", "log10_abs"], tails, key, comments)
    return EXIT_OK


def cmd_evolve(cfg: JobConfig, out_path: str) -> int:
    n = cfg.quadric.n
    spec = _grid_from_config(cfg)
    expr, csv_path = cfg.raw.get("initial"), cfg.raw.get("initial_csv")
    if (expr is None) == (csv_path is None):
        raise ValueError("config field 'initial': evolve needs exactly one of "
                         "'initial' (expression) or 'initial_csv' (grid CSV)")
    out_points = _parse_points(cfg.raw.get("out_points"), n, "out_points")
    source = "initial" if expr is not None else "initial_csv"
    if not isinstance(cfg.raw[source], str):
        raise ValueError(f"config field '{source}': expected a string, got {cfg.raw[source]!r}")
    times, pairs = np.repeat(cfg.s_values, len(out_points)), np.tile(out_points, (len(cfg.s_values), 1))
    try:  # each names the initial data: a parse error, an unreadable CSV, non-finite nodes
        field = (SampledField(spec, parse_initial_expression(expr, n), cfg.spectral) if expr is not None
                 else GridFunction.load_csv(_config_relative(cfg.path, csv_path), spec))
        with np.errstate(all="ignore"):  # overflow and division by zero: non-finite nodes or values
            values = heat_apply(field, times, cfg.spectral, cfg.L, out_points=pairs)
    except (OSError, ValueError) as exc:
        raise ValueError(f"config field '{source}': {exc}") from exc
    lines = [f"# config_sha256={config_digest(cfg.raw)}", "s,point_index,re,im"]
    for k, (s, v) in enumerate(zip(times.tolist(), values)):
        i = k % len(out_points)  # the (time, point) pairs are time-major
        if not np.isfinite(v):
            raise NumericsError(f"evolved value {v} at s={s!r}, out_points[{i}] is not finite")
        lines.append(f"{s!r},{i},{v.real!r},{v.imag!r}")
    write_atomic(out_path, ["\n".join(lines) + "\n"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification checks: each returns (error, message), the message naming its error budget


def _check_mehler(cfg: JobConfig, tol: float) -> tuple:
    S = cfg.spectral
    if S.nu < 1:
        raise NumericsError("mehler check needs at least one nonzero eigenvalue")
    terms = {s: default_series_terms(s, S.mu[:S.nu]) + SERIES_MARGIN for s in (0.1, 1.0)}
    worst = 0.0
    grid = np.linspace(-4.0, 4.0, 5)
    a = np.repeat(grid[:, None, None], S.nu, axis=-1)  # a_j = grid[k] on axis 0
    b = a.reshape(1, 5, S.nu)  # b_j = grid[l] on axis 1
    eps_mu = float(np.sum(epsilon(cfg.L, S) * np.abs(S.mu[:S.nu])))
    for s in terms:  # s = 0.1 first, so a series over PSI_MAX_ORDER raises before any runs
        p = UTildeParams(s, a, b, S, cfg.L)
        err = float(np.max(np.abs(u_tilde_closed(p) - u_tilde_series(p, terms[s]))))
        # L's complement flips every eps_j, scaling both sides by prod_j exp(-2 s |mu_j|)^eps_j
        worst = max(worst, err, err * np.exp(-2.0 * s * eps_mu))
    used = ", ".join(f"{N} terms at s={s}" for s, N in terms.items())
    needed = ", ".join(f"{N - SERIES_MARGIN} at s={s}" for s, N in terms.items())
    return worst, f"series truncated at {used}; a 1e-12 tail needs {needed} (margin {SERIES_MARGIN})"


def _check_inversion(cfg: JobConfig, tol: float) -> tuple:
    S = cfg.spectral
    if S.nu < 1:
        raise NumericsError("inversion check needs nu >= 1")
    worst, notes = 0.0, []
    samples = np.array([(0.3, -0.2), (0.0, 0.0), (-0.7, 0.5)])
    xp, yp = (np.repeat(samples[:, k : k + 1], S.nu, axis=1) for k in (0, 1))
    for s in (0.3, 0.7):
        want = rho_hat_eta(s, xp, yp, S, cfg.L)
        got, (specs, tails, aliasing, budget) = rho_via_inversion(s, xp, yp, S, cfg.L, tol=tol)
        worst = max(worst, float(np.max(np.abs(got - want))), float(np.max(np.abs(got.imag))))
        notes.append(f"s={s}: nodes {', '.join(f'{q.points}x{q.points}' for q in specs)}, aliasing "
                     f"{', '.join(f'{a:.1e}' for a in aliasing)}, tails {', '.join(f'{t:.1e}' for t in tails)}"
                     f", budget {budget:.1e}")
    return worst, "per-direction nodes, aliasing bounds, tails and product budget: " + "; ".join(notes)


def _check_pde_residual(cfg: JobConfig, tol: float) -> tuple:
    n = cfg.quadric.n
    if n > 3:  # the smallest grid whose every-other-node subgrid has 8 points per axis
        raise NumericsError(f"pde_residual check needs n <= 3: its 15^{2 * n}-node grid "
                            f"exceeds the node budget {NODE_BUDGET}")
    k = max(1.0, float(np.abs(cfg.spectral.mu).max()))  # rho_hat(s/k, z/k^0.5, mu) = k^n rho_hat(s, z, mu/k)
    grid, hs = GridSpec.cube((2.0 if n == 1 else 0.06) / np.sqrt(k), 2 * n, {1: 401, 2: 25, 3: 15}[n]), 1e-4 / k
    r, floor = pde_residual_richardson(0.7 / k, cfg.spectral, cfg.L, grid, hs)
    return r, (f"Richardson on {grid.points}^{2 * n} and {(grid.points + 1) // 2}^{2 * n} nodes, "
               f"hs={hs:g}; second-order floor {floor:.1e}")


def _check_semigroup(cfg: JobConfig, tol: float) -> tuple:
    n = cfg.quadric.n
    if n > 2:
        raise NumericsError(f"semigroup check needs n <= 2: its grid over C^{n} has P^{2 * n} nodes")
    phase_sign = float(cfg.raw.get("debug", {}).get("phase_sign", -1.0))  # checked up front
    z, zt = np.array([0.3 + 0.1j, -0.1 + 0.2j])[:n], np.array([-0.2 + 0.5j, 0.4 - 0.1j])[:n]
    return semigroup_check(0.4, 0.4, z, zt, cfg.quadric, cfg.spectral, cfg.L, phase_sign=phase_sign), ""


def _check_euclidean(cfg: JobConfig, tol: float) -> tuple:
    rng = np.random.default_rng(20240811)
    n, m = cfg.quadric.n, cfg.quadric.m
    S0 = decompose_form(cfg.quadric, np.zeros(m))
    s = rng.uniform(0.3, 3.0, 200)
    z = rng.normal(size=(200, n)) + 1j * rng.normal(size=(200, n))
    got = rho_hat_adapted(s, z @ np.conj(S0.V), S0, cfg.L)
    want = 2.0**n * (2.0 * np.pi) ** (-(0.5 * m + n)) * s ** (-n) * np.exp(-np.sum(np.abs(z) ** 2, axis=1) / s)
    # the two-point kernel at lambda = 0 is (2 pi)^{m/2} rho_hat: eight draws referee its factor
    two_point = weighted_heat_kernel_batch(s[:8], z[:8], np.zeros(n), cfg.quadric, S0, cfg.L)
    err = max(np.max(np.abs(got - want) / want),
              np.max(np.abs(two_point / (2.0 * np.pi) ** (0.5 * m) - want[:8]) / want[:8]))
    return float(err), ""


def _check_evenness(cfg: JobConfig, tol: float) -> tuple:
    rng = np.random.default_rng(20240812)
    S, j = cfg.spectral, np.arange(cfg.spectral.n)
    s = rng.uniform(0.2, 2.0, 100)
    z = rng.normal(size=(100, S.n)) + 1j * rng.normal(size=(100, S.n))
    c = z @ np.conj(S.V)
    # per draw: z, its 2n sign flips x_j -> -x_j and y_j -> -y_j in adapted coordinates, and -z
    flips = np.repeat(c[:, None], 2 * S.n, axis=1)
    flips[:, 2 * j, j], flips[:, 2 * j + 1, j] = -np.conj(c), np.conj(c)
    Z = np.concatenate([z[:, None], flips @ S.V.T, -z[:, None]], axis=1)
    vals = rho_hat_adapted(s[:, None], Z @ np.conj(S.V), S, cfg.L)
    return float(np.max(np.abs(vals[:, 1:] - vals[:, :1]) / vals[:, :1])), ""


CHECK_FUNCTIONS = {
    "mehler": _check_mehler,
    "inversion": _check_inversion,
    "pde_residual": _check_pde_residual,
    "semigroup": _check_semigroup,
    "euclidean": _check_euclidean,
    "evenness": _check_evenness,
}


def run_verification(cfg: JobConfig) -> dict:
    """Run the configured checks and assemble the report dict; a check that
    cannot run (NumericsError or ValueError) is a failed entry with error null."""
    names = cfg.raw.get("checks", list(DEFAULT_TOLERANCES))
    if not isinstance(names, list) or not all(isinstance(c, str) for c in names):
        raise ValueError(f"config field 'checks': expected a list of check names, got {names!r}")
    overrides = cfg.raw.get("tolerances", {})
    if not isinstance(overrides, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in overrides.values()):
        raise ValueError("config field 'tolerances': expected an object mapping check names "
                         f"to numbers, got {overrides!r}")
    for key, given in (("checks", names), ("tolerances", overrides)):
        unknown = [c for c in given if c not in DEFAULT_TOLERANCES]
        if unknown:
            raise ValueError(f"config field '{key}': unknown check names {unknown}")
    debug = cfg.raw.get("debug", {})
    if not isinstance(debug, dict):
        raise ValueError(f"config field 'debug': expected an object, got {debug!r}")
    if unknown := _unknown(debug, "debug.", DEBUG_FIELDS):
        raise ValueError("; ".join(unknown))
    _finite_array(debug.get("phase_sign", -1.0), "debug.phase_sign", ())
    tols = [float(overrides.get(name, DEFAULT_TOLERANCES[name])) for name in names]
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
        entry.update({"runtime_s": round(time.perf_counter() - t0, 6), "message": message})
        entries.append(entry)
    return {
        "config_sha256": config_digest(cfg.raw),
        "checks": entries,
        "all_pass": all(e["pass"] for e in entries),
    }


def cmd_verify(cfg: JobConfig, out_path: str | None) -> int:
    report = run_verification(cfg)
    _emit(out_path, json.dumps(report, indent=2, allow_nan=False) + "\n")
    return EXIT_OK if report["all_pass"] else EXIT_NUMERIC


# ---------------------------------------------------------------------------


@functools.cache  # built on the first main call, then reused: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadheat",
        description="Evaluate and verify heat kernels on quadric geometries.",
    )
    parser.add_argument("command", choices=["eval", "scan", "verify", "evolve"])
    parser.add_argument("--config", required=True, help="path to the JSON job config")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and checked to be at least 1; has no effect")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        sys.stderr.write("error: --threads must be at least 1\n")
        return EXIT_INVALID
    try:
        cfg = load_config(args.config)
        if not args.out and args.command in ("scan", "evolve"):  # "" too: it names no file
            raise ValueError(f"{args.command} requires --out PATH for its CSV output")
        if args.out:  # a missing directory, or a directory as the target, is refused before the job
            os.stat(os.path.dirname(args.out) or ".")
            if os.path.isdir(args.out):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        command = {"eval": cmd_eval, "scan": cmd_scan, "evolve": cmd_evolve, "verify": cmd_verify}[args.command]
        return command(cfg, args.out)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except OSError as exc:  # every read above raises ValueError: this is the output's path
        sys.stderr.write(f"error: cannot write {args.out or 'stdout'}: {exc.strerror or exc}\n")
        return EXIT_INVALID
    except NumericsError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
