"""Seeded inputs, job cycles and output checks for the benchmark workloads.

Every workload is a cycle of jobs called a *round*.  A job is one
``quadheat.cli.main(argv)`` call on a config file this module writes; the
program sees nothing but that file.  Runs stop only at round boundaries, so
each run times the same mix of job kinds and its medians stay comparable
between runs of different lengths.

Each job carries a check that reads the job's output and returns a
``Result``.  A result's status is ``ok``, ``known_defect`` (the outcome of
a defect the program had when this benchmark was written, pinned by its
message so that it shows in ``failed_frac`` instead of being hidden), or
``failed`` (anything else: a wrong value, a traceback, an unexpected exit
code).  Only ``failed`` makes a run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# Scan times are drawn from this fixed list so every scan output has a hash
# recorded in reference.json (see record.py).
SCAN_TIMES = tuple(round(0.3 + 0.1 * k, 2) for k in range(16))

# Full-rank n = 2, m = 2 geometry: B1 + B2 = diag(1, -0.5), so lambda = (1, 1)
# gives mu = (1, -0.5) whatever unitary the seed rotates it by.  B1 and B2 do
# not commute.  mu was chosen so that the mehler series (300 terms) and the
# pinned pde_residual grid both pass with margin.
_B2 = np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.1]])
_B1 = np.diag([1.0, -0.5]).astype(complex) - _B2
FULL_RANK_LAMBDA = [1.0, 1.0]
HEISENBERG1 = {"n": 1, "m": 1, "A": [[[1.0, 0.0]]]}

FIVE_CHECKS = ["mehler", "inversion", "pde_residual", "euclidean", "evenness"]
KNOWN_INVERSION_DEFECT = "exceeds the budget"

EVAL_N, EVAL_M, EVAL_POINTS = 12, 3, 40
EVOLVE_GRID = {"half_widths": [5.0] * 4, "points": 33}
EVOLVE_INITIAL = "exp(-(x1^2+y1^2+x2^2+y2^2))"
EVOLVE_TOL = 1e-6  # heat_apply's default boundary-tail tolerance
SCAN_SAMPLE_ROWS = 64
SCAN_REL_TOL = 1e-13
EVAL_REL_TOL = 1e-12


@dataclass
class Result:
    status: str  # "ok", "known_defect" or "failed"
    items: int = 0
    message: str = ""
    out_bytes: int = 0
    nonfinite_cells: int = 0
    checks: list = field(default_factory=list)  # verify report entries


@dataclass
class Job:
    kind: str
    argv: list
    out: Path
    check: Callable[[int, str], Result]


# ---------------------------------------------------------------------------
# inputs


def _unitary(rng, n: int) -> np.ndarray:
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(X)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _quadric_json(mats) -> dict:
    n = mats[0].shape[0]
    return {
        "n": n,
        "m": len(mats),
        "A": [[[float(x.real), float(x.imag)] for x in a.ravel()] for a in mats],
    }


def _vec_json(z) -> list:
    return [[float(c.real), float(c.imag)] for c in z]


def _full_rank(U=None) -> dict:
    mats = [_B1, _B2] if U is None else [U @ B @ U.conj().T for B in (_B1, _B2)]
    return _quadric_json(mats)


def scan_config(kind: str, s: float) -> dict:
    """Config of one scan job; ``kind`` is n1, n2 or far."""
    if kind == "n1":
        quad, lam, grid = HEISENBERG1, [1.0], {"half_widths": [3.0, 3.0], "points": 301}
    elif kind == "n2":
        quad, lam, grid = _full_rank(), FULL_RANK_LAMBDA, {"half_widths": [3.0] * 4, "points": 17}
    elif kind == "far":
        quad, lam, grid = HEISENBERG1, [1.0], {"half_widths": [40.0, 40.0], "points": 101}
    else:
        raise ValueError(f"unknown scan kind {kind!r}")
    return {"quadric": quad, "lambda": lam, "L": [1], "s": s, "grid": grid}


def scan_stripped_digest(data: bytes) -> str:
    """sha256 of a scan CSV with the last column (log10_abs) cut from each row.

    log10_abs is checked by value instead, so that computing it in log space
    (finite far-field values instead of -inf, last-digit changes) stays
    correct while every other byte must match the recorded output.
    """
    h = hashlib.sha256()
    for line in data.split(b"\n"):
        if not line.startswith(b"#"):
            line = line[: line.rfind(b",")]
        h.update(line + b"\n")
    return h.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks


def _expect_exit0(rc: int, err: str):
    if rc != 0:
        return Result("failed", message=f"exit {rc}: {err.strip()[-500:]}")
    return None


def _check_scan(cfg: dict, out: Path, expected_digest: str, rng):
    from quadheat import FormIndex, KernelQuery, QuadricForm, decompose_form, rho_hat

    def check(rc: int, err: str) -> Result:
        bad = _expect_exit0(rc, err)
        if bad:
            return bad
        data = out.read_bytes()
        digest = scan_stripped_digest(data)
        if digest != expected_digest:
            return Result("failed", message=f"scan bytes differ from reference ({digest})")
        text = data.decode("ascii")
        rows = [r for r in text.split("\n")[:-1] if not r.startswith("#")][1:]
        nonfinite = sum(text.count(tok) for tok in ("inf", "nan"))
        Q = QuadricForm.from_json(cfg["quadric"])
        S = decompose_form(Q, cfg["lambda"])
        L = FormIndex(cfg["L"])
        n = Q.n
        for i in rng.choice(len(rows), size=min(SCAN_SAMPLE_ROWS, len(rows)), replace=False):
            cells = [float(x) for x in rows[i].split(",")]
            coords, re_, im_, log10_abs = cells[: 2 * n], cells[-3], cells[-2], cells[-1]
            c = np.array(coords[0::2]) + 1j * np.array(coords[1::2])
            want = rho_hat(KernelQuery(cfg["s"], S.V @ c, S, L))
            if not _close(re_, want, SCAN_REL_TOL) or im_ != 0.0:
                return Result("failed", message=f"row {i}: {re_!r} != rho_hat {want!r}")
            if not _log10_consistent(re_, log10_abs):
                return Result("failed", message=f"row {i}: log10_abs {log10_abs!r} for {re_!r}")
        return Result("ok", items=len(rows), out_bytes=len(data), nonfinite_cells=nonfinite)

    return check


def _close(got: float, want: float, rel: float) -> bool:
    # Values below the normal range carry no relative precision.
    return abs(got - want) <= rel * abs(want) or abs(got - want) <= 1e-300


def _log10_consistent(value: float, log10_abs: float) -> bool:
    if value == 0.0:
        # Underflowed: today -inf; a log-space value must be below the
        # smallest normal double's log10.
        return log10_abs == -math.inf or log10_abs < -307.0
    if value < 2.3e-308:
        return math.isfinite(log10_abs) and log10_abs < -307.0
    return abs(log10_abs - math.log10(value)) <= 1e-12 * max(1.0, abs(log10_abs))


def _strict_json(line: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(line, parse_constant=reject)


def _check_eval(cfg: dict, out: Path):
    from quadheat import FormIndex, QuadricForm, decompose_form
    from quadheat import rho_hat_adapted, weighted_heat_kernel_batch

    def check(rc: int, err: str) -> Result:
        bad = _expect_exit0(rc, err)
        if bad:
            return bad
        data = out.read_bytes()
        lines = data.decode("ascii").splitlines()
        want_records = len(cfg["s"]) * len(cfg["points"])
        if len(lines) != want_records:
            return Result("failed", message=f"{len(lines)} records, expected {want_records}")
        try:
            recs = [_strict_json(line) for line in lines]
        except ValueError as exc:
            return Result("failed", message=f"record is not strict JSON: {exc}")
        Q = QuadricForm.from_json(cfg["quadric"])
        S = decompose_form(Q, cfg["lambda"])
        L = FormIndex(cfg["L"])
        zt = np.array([complex(*p) for p in cfg["point_tilde"]])
        for s in cfg["s"]:
            mine = [r for r in recs if r["s"] == s]
            Z = np.array([[complex(*p) for p in r["point"]] for r in mine])
            vals = np.array([complex(*r["value"]) for r in mine])
            # Batch paths as the reference for the scalar path the CLI takes.
            mod = (2.0 * np.pi) ** (0.5 * Q.m) * rho_hat_adapted(s, (Z - zt) @ np.conj(S.V), S, L)
            swapped = weighted_heat_kernel_batch(s, zt, Z, Q, S, L)
            if len(mine) != len(cfg["points"]) or not np.all(np.isfinite(vals)):
                return Result("failed", message=f"s={s}: missing or non-finite records")
            if np.any(np.abs(np.abs(vals) - mod) > EVAL_REL_TOL * mod):
                return Result("failed", message=f"s={s}: |value| differs from (2 pi)^(m/2) rho_hat")
            if np.any(np.abs(swapped - np.conj(vals)) > EVAL_REL_TOL * np.abs(vals)):
                return Result("failed", message=f"s={s}: values not conjugate-symmetric")
        return Result("ok", items=len(lines), out_bytes=len(data))

    return check


def evolve_closed_form(cfg: dict, s: float, z) -> float:
    """H{exp(-|w|^2)}(s, z) in closed form.

    In the eigenbasis the weighted kernel is a product over directions j of
    exp(-a_j |c_j - w_j|^2) with phase exp(-2i mu_j Im(conj(w_j) c_j)), and
    exp(-|w|^2) factorises too, so each direction is a Gaussian integral:
    pi/(a+1) exp(-a |c|^2 + (a^2 - mu^2) |c|^2 / (a+1)).  It is real.
    """
    from quadheat import FormIndex, QuadricForm, decompose_form, epsilon
    from quadheat import log_mu_sinh_factor, mu_coth

    Q = QuadricForm.from_json(cfg["quadric"])
    S = decompose_form(Q, cfg["lambda"])
    eps = epsilon(FormIndex(cfg["L"]), S)
    n, nu = S.n, S.nu
    c = S.V.conj().T @ np.asarray(z, dtype=complex)
    log_val = (n - nu) * (math.log(2.0) - math.log(s)) - n * math.log(2.0 * math.pi)
    for j in range(n):
        mu = float(S.mu[j]) if j < nu else 0.0
        a = mu_coth(s, mu) if j < nu else 1.0 / s
        if j < nu:
            log_val += log_mu_sinh_factor(s, mu, eps[j])
        c2 = abs(c[j]) ** 2
        log_val += math.log(math.pi / (a + 1.0)) - a * c2 + (a * a - mu * mu) * c2 / (a + 1.0)
    return math.exp(log_val)


def _check_evolve(cfg: dict, out: Path):
    def check(rc: int, err: str) -> Result:
        bad = _expect_exit0(rc, err)
        if bad:
            return bad
        data = out.read_bytes()
        rows = [r.split(",") for r in data.decode("ascii").splitlines()[2:]]
        points = [np.array([complex(*p) for p in op]) for op in cfg["out_points"]]
        if len(rows) != len(cfg["s"]) * len(points):
            return Result("failed", message=f"{len(rows)} rows in evolve output")
        for s_txt, idx, re_, im_ in rows:
            s = float(s_txt)
            want = evolve_closed_form(cfg, s, points[int(idx)])
            got = complex(float(re_), float(im_))
            if not abs(got - want) <= EVOLVE_TOL:
                return Result("failed", message=f"s={s} point {idx}: {got!r} != {want!r}")
        nodes = EVOLVE_GRID["points"] ** 4
        return Result("ok", items=nodes * len(rows), out_bytes=len(data))

    return check


def _check_verify(out: Path, expect_known_defect: bool):
    def check(rc: int, err: str) -> Result:
        if expect_known_defect and rc == 2 and KNOWN_INVERSION_DEFECT in err:
            return Result("known_defect", message=err.strip())
        if rc not in (0, 1) or not out.exists():
            return Result("failed", message=f"exit {rc}: {err.strip()[-500:]}")
        data = out.read_bytes()
        try:
            report = _strict_json(data.decode("ascii"))
        except ValueError as exc:
            return Result("failed", message=f"report is not strict JSON: {exc}")
        if rc != 0 or not report["all_pass"]:
            bad = [c["name"] for c in report["checks"] if not c["pass"]]
            return Result("failed", message=f"exit {rc}, failing checks {bad}")
        done = sum(1 for c in report["checks"] if c["error"] is not None)
        return Result("ok", items=done, out_bytes=len(data), checks=report["checks"])

    return check


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A seeded cycle of jobs writing configs and outputs under ``workdir``."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.counter = 0
        self.sizes = {}

    def _job(self, kind: str, command: str, cfg: dict, check_factory):
        self.counter += 1
        cfg_path = self.workdir / f"job{self.counter}.json"
        out = self.workdir / f"job{self.counter}.out"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        argv = [command, "--config", str(cfg_path), "--out", str(out), "--threads", "1"]
        return Job(kind, argv, out, check_factory(out))

    def next_round(self) -> list:
        raise NotImplementedError


class VerifySuite(Workload):
    name = "verify-suite"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sizes = {
            "jobs_per_round": 4,
            "heisenberg_n1_checks": 7,
            "rank1_n2_checks": FIVE_CHECKS,
            "full_rank_n2_m2_checks": [c for c in FIVE_CHECKS if c != "inversion"],
            "full_rank_n2_m2_inversion_job": "known defect: 512^4 quadrature nodes over budget, exit 2",
            "mu_rank1": [1.0],
            "mu_full_rank": [1.0, -0.5],
        }

    def next_round(self):
        U = _unitary(self.rng, 2)
        v = U[:, 0]
        rank1 = _quadric_json([np.outer(v, v.conj())])
        full = _full_rank(U)
        jobs = []
        for kind, cfg, known in (
            ("heisenberg_n1", {"quadric": HEISENBERG1, "lambda": [1.0], "L": [1]}, False),
            ("rank1_n2", {"quadric": rank1, "lambda": [1.0], "L": [1], "checks": FIVE_CHECKS}, False),
            ("full_rank_n2", {"quadric": full, "lambda": FULL_RANK_LAMBDA, "L": [1, 2],
                              "checks": [c for c in FIVE_CHECKS if c != "inversion"]}, False),
            ("full_rank_n2_inversion", {"quadric": full, "lambda": FULL_RANK_LAMBDA, "L": [1, 2],
                                        "checks": ["inversion"]}, True),
        ):
            jobs.append(self._job(kind, "verify", cfg, lambda out, k=known: _check_verify(out, k)))
        return jobs


class ScanGrid(Workload):
    name = "scan-grid"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.reference = load_reference()
        self.sizes = {
            "n1_rows": 301**2,
            "n2_rows": 17**4,
            "far_field_rows": 101**2,
            "far_field_half_width": 40.0,
            "s_choices": list(SCAN_TIMES),
        }

    def scan_job(self, kind: str) -> Job:
        s = float(self.rng.choice(SCAN_TIMES))
        cfg = scan_config(kind, s)
        digest = self.reference[f"{kind}:{s!r}"]
        check_rng = np.random.default_rng(self.rng.integers(2**32))
        return self._job(f"scan_{kind}", "scan", cfg,
                         lambda out: _check_scan(cfg, out, digest, check_rng))

    def next_round(self):
        return [self.scan_job(kind) for kind in ("n1", "n2", "far")]


class EvolveN2(Workload):
    name = "evolve-n2"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sizes = {
            "grid_nodes": EVOLVE_GRID["points"] ** 4,
            "grid": EVOLVE_GRID,
            "times_per_job": 1,
            "out_points_per_time": 2,
        }

    def evolve_job(self, times: int = 1) -> Job:
        U = _unitary(self.rng, 2)
        s = sorted(float(x) for x in self.rng.uniform(0.3, 1.0, size=times))
        out_points = []
        for _ in range(2):
            r = 0.5 * np.sqrt(self.rng.uniform(size=2))
            z = r * np.exp(2j * np.pi * self.rng.uniform(size=2))
            out_points.append(_vec_json(z))
        cfg = {"quadric": _full_rank(U), "lambda": FULL_RANK_LAMBDA, "L": [1], "s": s,
               "grid": EVOLVE_GRID, "initial": EVOLVE_INITIAL, "out_points": out_points}
        return self._job("evolve_n2", "evolve", cfg, lambda out: _check_evolve(cfg, out))

    def next_round(self):
        return [self.evolve_job()]


class EvalSweep(Workload):
    name = "eval-sweep"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        mats = []
        for _ in range(EVAL_M):
            X = self.rng.normal(size=(EVAL_N, EVAL_N)) + 1j * self.rng.normal(size=(EVAL_N, EVAL_N))
            mats.append((X + X.conj().T) / (2.0 * np.sqrt(2.0 * EVAL_N)))
        self.quadric = _quadric_json(mats)
        self.sizes = {"n": EVAL_N, "m": EVAL_M, "L": [1, 3], "points": EVAL_POINTS,
                      "times": 2, "records_per_job": 2 * EVAL_POINTS}

    def next_round(self):
        def cvec():
            return 0.25 * (self.rng.normal(size=EVAL_N) + 1j * self.rng.normal(size=EVAL_N))

        cfg = {
            "quadric": self.quadric,
            "lambda": [float(x) for x in self.rng.uniform(-1.0, 1.0, size=EVAL_M)],
            "L": [1, 3],
            "s": sorted(float(x) for x in self.rng.uniform(0.3, 1.5, size=2)),
            "points": [_vec_json(cvec()) for _ in range(EVAL_POINTS)],
            "point_tilde": _vec_json(cvec()),
        }
        return [self._job("eval_n12", "eval", cfg, lambda out: _check_eval(cfg, out))]


WORKLOADS = {w.name: w for w in (VerifySuite, ScanGrid, EvolveN2, EvalSweep)}
