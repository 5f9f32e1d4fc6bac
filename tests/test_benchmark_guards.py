"""The benchmark's scan digests and traced counters hold on the current program.

The perfbench sources are executed rather than imported, so no bytecode cache
is written into perfbench/.
"""

import json
import sys
import types
from pathlib import Path

import pytest

from quadheat.cli import SERIES_MARGIN, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCAN_DIGESTS = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def load_perfbench(name: str) -> dict:
    """Namespace of perfbench/<name>.py, registered as a module for its dataclasses."""
    path = PERFBENCH / f"{name}.py"
    module = sys.modules.setdefault(f"perfbench_{name}", types.ModuleType(f"perfbench_{name}"))
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module.__dict__


@pytest.fixture(scope="module")
def workloads() -> dict:
    return load_perfbench("workloads")


@pytest.mark.parametrize("kind,s", [(k, float(s)) for k, s in (key.split(":") for key in SCAN_DIGESTS)])
def test_scan_bytes_match_recorded_digest(tmp_path, workloads, kind, s):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps(workloads["scan_config"](kind, s)))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    digest = workloads["scan_stripped_digest"](out.read_bytes())
    assert digest == SCAN_DIGESTS[f"{kind}:{s!r}"]


def test_traced_heat_apply_counts_every_output_point(tmp_path):
    tracer = load_perfbench("tracing")["Tracer"]()
    heis = {"n": 1, "m": 1, "A": [[[1.0, 0.0]]]}
    evolve = tmp_path / "evolve.json"
    evolve.write_text(json.dumps({
        "quadric": heis, "lambda": [1.0], "L": [1], "s": [0.3, 0.5],
        "grid": {"half_widths": [4.0, 4.0], "points": 41}, "initial": "exp(-(x1^2+y1^2))",
        "out_points": [[[0.0, 0.0]], [[0.2, -0.1]]]}))
    verify = tmp_path / "verify.json"
    verify.write_text(json.dumps({"quadric": heis, "lambda": [1.0], "L": [1],
                                  "checks": ["semigroup"]}))
    traced_main = tracer.install(0)
    try:
        assert traced_main(["evolve", "--config", str(evolve), "--out", str(tmp_path / "e.csv")]) == 0
        assert traced_main(["verify", "--config", str(verify), "--out", str(tmp_path / "v.json")]) == 0
    finally:
        tracer.uninstall()
    # evolve: 2 times x 2 points; the semigroup check: one point, on its sized 25 x 25 box
    assert tracer.counts["boxop.heat_apply.out_points"] == 2 * 2 + 1
    assert tracer.counts["boxop.heat_apply.nodes"] == 2 * 2 * 41**2 + 25**2


def test_traced_verify_counts_series_and_inversion_calls(tmp_path):
    tracer = load_perfbench("tracing")["Tracer"]()
    verify = tmp_path / "verify.json"
    verify.write_text(json.dumps({"quadric": {"n": 1, "m": 1, "A": [[[1.0, 0.0]]]},
                                  "lambda": [1.0], "L": [1], "checks": ["mehler", "inversion"]}))
    traced_main = tracer.install(0)
    try:
        assert traced_main(["verify", "--config", str(verify), "--out", str(tmp_path / "v.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["hermite.series.calls"] > 0
    assert tracer.counts["hermite.series.terms"] > 0
    assert tracer.counts["kernel.inversion.calls"] > 0


def test_traced_euclidean_and_evenness_make_one_kernel_call_each(tmp_path, workloads):
    # Each check evaluates all its draws in one rho_hat_adapted call: 200 points for
    # euclidean, and 100 draws x (the point, its 2n sign flips and -z) for evenness.
    tracer = load_perfbench("tracing")["Tracer"]()
    verify = tmp_path / "verify.json"
    verify.write_text(json.dumps({"quadric": workloads["_full_rank"](), "L": [1, 2],
                                  "lambda": workloads["FULL_RANK_LAMBDA"], "checks": ["euclidean", "evenness"]}))
    traced_main = tracer.install(0)
    try:
        assert traced_main(["verify", "--config", str(verify), "--out", str(tmp_path / "v.json")]) == 0
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans].count("kernel.batch") == 2
    assert tracer.counts["kernel.batch.points"] == 200 + 100 * (2 * 2 + 2)


def test_traced_mehler_sums_few_terms_past_the_useful_ones(tmp_path):
    # The check's two series (one per time; L's complement is an exact factor)
    # each stop SERIES_MARGIN terms past default_series_terms.  A fixed 300 terms
    # summed 1200 against 378 useful here (useful_terms_frac 0.39 on verify-suite).
    tracer = load_perfbench("tracing")["Tracer"]()
    verify = tmp_path / "verify.json"
    verify.write_text(json.dumps({"quadric": {"n": 1, "m": 1, "A": [[[1.0, 0.0]]]},
                                  "lambda": [1.0], "L": [1], "checks": ["mehler"]}))
    traced_main = tracer.install(0)
    try:
        assert traced_main(["verify", "--config", str(verify), "--out", str(tmp_path / "v.json")]) == 0
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["hermite.series.calls"] == 2
    assert counts["hermite.series.terms"] <= counts["hermite.series.useful_terms"] + 2 * SERIES_MARGIN


def test_evolve_n2_job_passes_its_closed_form_check(tmp_path, capsys):
    # The benchmark's evolve-n2 job (33^4 nodes, two times x two points),
    # checked against its closed form, so a sampling or contraction fault
    # fails here too.
    job = load_perfbench("workloads")["EvolveN2"](20261018, tmp_path).evolve_job(times=2)
    rc = main(job.argv)
    result = job.check(rc, capsys.readouterr().err)
    assert result.status == "ok", result.message


def test_verify_suite_round_passes_every_check(tmp_path, capsys):
    # One round of the benchmark's verify-suite (four verify jobs on three
    # geometries), so a referee that stops passing fails here too.
    for job in load_perfbench("workloads")["VerifySuite"](20261018, tmp_path).next_round():
        rc = main(job.argv)
        result = job.check(rc, capsys.readouterr().err)
        assert result.status == "ok", (job.kind, result.message)


@pytest.mark.parametrize("workload", ["ScanGrid", "EvalSweep"])
def test_scan_and_eval_rounds_pass_their_output_checks(tmp_path, capsys, workload):
    # scan-grid's check calls rho_hat(KernelQuery(...)) on sampled rows and eval-sweep's
    # recomputes its records, so a signature or value change there fails here too.
    for job in load_perfbench("workloads")[workload](20261018, tmp_path).next_round():
        rc = main(job.argv)
        result = job.check(rc, capsys.readouterr().err)
        assert result.status == "ok", (job.kind, result.message)
