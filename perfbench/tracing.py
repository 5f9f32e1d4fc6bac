"""In-memory spans and counters around the public functions of each layer.

Tracing rebinds the module attributes that callers look up (for example
``quadheat.cli.decompose_form`` or ``quadheat.boxop.weighted_heat_kernel_batch``)
to wrappers that record a span and bump counters, and restores them after
each traced job.  The program's own files are not touched.

A span is (name, start, end, parent index, job id).  A layer's self time is
the sum over its spans of duration minus the duration of direct child
spans.  Spans nest strictly because traced jobs run on one thread, so the
self times of all spans of a job add up to the duration of its root span.

Which function belongs to which span name:

    cli.main                 quadheat.cli.main (the job's root span)
    cli.config               cli.load_config (JSON parse and validation)
    cli.emit                 cli.cmd_eval / cmd_scan / cmd_evolve / cmd_verify:
                             row formatting, initial-data sampling, atomic write
    cli.check                the verify check drivers in cli.CHECK_FUNCTIONS
    spectral.decompose       decompose_form (Jacobi, incl. phi_lambda_matrix)
    kernel.batch             rho_hat_adapted called from cli (scan) and boxop
    kernel.scalar            rho_hat, rho_hat_eta, weighted_heat_kernel
    kernel.weighted_batch    boxop.weighted_heat_kernel_batch (incl. _phase_arg)
    kernel.inversion         rho_via_inversion and the integrand it passes on
    quadrature               integrate_with_estimate minus its integrand,
                             and tensor_nodes called from boxop
    hermite.series           u_tilde_series
    hermite.closed           u_tilde_closed
    boxop.sample             sample_rho_hat
    boxop.stencil            apply_box_ll_lambda
    boxop.pde_residual       pde_residual (time difference and norms)
    boxop.heat_apply         heat_apply (weights, masks, contraction)
    boxop.semigroup          semigroup_check
    boxop.initial_condition  initial_condition_check
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

SPAN_NAMES = (
    "cli.main", "cli.config", "cli.emit", "cli.check", "spectral.decompose",
    "kernel.batch", "kernel.scalar", "kernel.weighted_batch", "kernel.inversion",
    "quadrature", "hermite.series", "hermite.closed", "boxop.sample",
    "boxop.stencil", "boxop.pde_residual", "boxop.heat_apply", "boxop.semigroup",
    "boxop.initial_condition",
)


def _nodes(spec) -> int:
    return spec.points ** len(spec.half_widths)


def _leading(a) -> int:
    return int(np.prod(np.shape(a)[:-1], dtype=np.int64))


# Counters: fn(counts, args, kwargs) runs after a call that returned.

def _count_decompose(c, a, k):
    c["spectral.decompose.calls"] += 1
    c["spectral.decompose.n"] = max(c["spectral.decompose.n"], a[0].n)


def _count_batch(c, a, k):
    c["kernel.batch.points"] += _leading(a[1])


def _count_scalar(c, a, k):
    c["kernel.scalar.calls"] += 1


def _count_weighted(c, a, k):
    # Bytes computed from the sizes of the arrays the function materialises
    # per node (not measured traffic): diff and adapted coordinates (2 x 16n),
    # squared magnitudes (8n), log_rho and magnitude (2 x 8), per nonzero
    # lambda_k one product (16n) and its row sum (16), the phase and the
    # result (2 x 16).
    S = a[4]
    nodes = _leading(a[2])
    m_active = int(np.count_nonzero(S.lam))
    per_node = 40 * S.n + 16 + m_active * (16 * S.n + 16) + 32
    c["kernel.weighted_batch.nodes"] += nodes
    c["kernel.weighted_batch.bytes_computed"] += nodes * per_node


def _count_inversion(c, a, k):
    c["kernel.inversion.calls"] += 1


def _count_integrate(c, a, k):
    c["quadrature.nodes"] += a[1].points ** a[2]


def _count_tensor_nodes(c, a, k):
    c["quadrature.nodes"] += a[0].points ** a[1]


def _count_series(c, a, k):
    from quadheat.hermite import default_series_terms

    p = a[0]
    useful = default_series_terms(p.s, p.spectral.mu[: p.spectral.nu])
    N = a[1] if len(a) > 1 else k.get("N")
    c["hermite.series.calls"] += 1
    c["hermite.series.terms"] += useful if N is None else N
    c["hermite.series.useful_terms"] += useful


def _count_sample(c, a, k):
    c["boxop.sample.nodes"] += _nodes(a[1])


def _count_stencil(c, a, k):
    c["boxop.stencil.nodes"] += _nodes(a[0].spec)


def _count_heat_apply(c, a, k):
    outs = len(a[5] if len(a) > 5 else k["out_points"])
    c["boxop.heat_apply.out_points"] += outs
    c["boxop.heat_apply.nodes"] += _nodes(a[0].spec) * outs


# (module, attribute, span name, counter)
TARGETS = (
    ("cli", "load_config", "cli.config", None),
    ("cli", "cmd_eval", "cli.emit", None),
    ("cli", "cmd_scan", "cli.emit", None),
    ("cli", "cmd_evolve", "cli.emit", None),
    ("cli", "cmd_verify", "cli.emit", None),
    ("cli", "decompose_form", "spectral.decompose", _count_decompose),
    ("cli", "rho_hat_adapted", "kernel.batch", _count_batch),
    ("boxop", "rho_hat_adapted", "kernel.batch", _count_batch),
    ("cli", "rho_hat", "kernel.scalar", _count_scalar),
    ("cli", "rho_hat_eta", "kernel.scalar", _count_scalar),
    ("cli", "weighted_heat_kernel", "kernel.scalar", _count_scalar),
    ("boxop", "weighted_heat_kernel", "kernel.scalar", _count_scalar),
    ("boxop", "weighted_heat_kernel_batch", "kernel.weighted_batch", _count_weighted),
    ("cli", "rho_via_inversion", "kernel.inversion", _count_inversion),
    ("kernel", "integrate_with_estimate", "quadrature", _count_integrate),
    ("boxop", "tensor_nodes", "quadrature", _count_tensor_nodes),
    ("cli", "u_tilde_series", "hermite.series", _count_series),
    ("cli", "u_tilde_closed", "hermite.closed", None),
    ("boxop", "sample_rho_hat", "boxop.sample", _count_sample),
    ("boxop", "apply_box_ll_lambda", "boxop.stencil", _count_stencil),
    ("cli", "pde_residual", "boxop.pde_residual", None),
    ("cli", "heat_apply", "boxop.heat_apply", _count_heat_apply),
    ("boxop", "heat_apply", "boxop.heat_apply", _count_heat_apply),
    ("cli", "semigroup_check", "boxop.semigroup", None),
    ("cli", "initial_condition_check", "boxop.initial_condition", None),
)


class Tracer:
    """Records spans and counters for the jobs run between install and uninstall."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.counts = defaultdict(float)
        self._stack = []
        self._job = None
        self._saved = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "quadrature" and args and callable(args[0]):
                # Attribute the integrand to the kernel layer that built it.
                args = (self.wrap("kernel.inversion", args[0]),) + args[1:]
            rec = [name, clock(), 0.0, stack[-1] if stack else None, self._job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:  # count work that completed
                counter(counts, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, job_id: int):
        """Rebind every target for job ``job_id``; returns the traced ``cli.main``."""
        import importlib

        self._job = job_id
        for mod_name, attr, name, counter in TARGETS:
            mod = importlib.import_module(f"quadheat.{mod_name}")
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(name, orig, counter))
        from quadheat import cli

        checks = dict(cli.CHECK_FUNCTIONS)
        self._saved.append((cli, "CHECK_FUNCTIONS", cli.CHECK_FUNCTIONS))
        cli.CHECK_FUNCTIONS = {k: self.wrap("cli.check", f) for k, f in checks.items()}
        return self.wrap("cli.main", cli.main)

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        self._job = None

    def self_times(self, job_scale=None) -> dict:
        """Total self time per span name, each job's spans times job_scale[job]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _, job), c in zip(self.spans, child):
            out[name] += ((end - start) - c) * (job_scale[job] if job_scale else 1.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
