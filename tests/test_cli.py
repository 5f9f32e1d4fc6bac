import json

import numpy as np
import pytest

from quadheat.cli import ExprError, main, parse_initial_expression

HEIS = {"n": 1, "m": 1, "A": [[[1.0, 0.0]]]}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "quadric": HEIS,
        "lambda": [1.0],
        "L": [1],
        "s": 1.0,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path), cfg


class TestExpressionGrammar:
    def test_basic_arithmetic(self):
        f = parse_initial_expression("2*x1^2 - y1/4 + 1", 1)
        Z = np.array([[1.5 + 2.0j]])
        assert f(Z)[0] == pytest.approx(2 * 1.5**2 - 2.0 / 4 + 1)

    def test_exp_and_nesting(self):
        f = parse_initial_expression("exp(-(x1^2 + y1^2))", 1)
        Z = np.array([[0.3 - 0.4j]])
        assert f(Z)[0] == pytest.approx(np.exp(-0.25))

    def test_unary_minus_binds_outside_power(self):
        f = parse_initial_expression("-x1^2", 1)
        assert f(np.array([[2.0 + 0j]]))[0] == -4.0

    def test_right_associative_power(self):
        f = parse_initial_expression("x1^3^2", 1)
        assert f(np.array([[2.0 + 0j]]))[0] == 2.0**9

    def test_constant_expression_broadcasts(self):
        f = parse_initial_expression("3.5", 2)
        assert list(f(np.zeros((4, 2), dtype=complex))) == [3.5] * 4

    def test_unknown_identifier_position(self):
        with pytest.raises(ExprError) as err:
            parse_initial_expression("exp(-(x1^2+q^2))", 1)
        assert err.value.pos == 11

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ExprError):
            parse_initial_expression("exp(", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ExprError):
            parse_initial_expression("x1 )", 1)

    def test_bad_character(self):
        with pytest.raises(ExprError):
            parse_initial_expression("x1 & y1", 1)

    def test_second_dimension_variables(self):
        f = parse_initial_expression("x2*y1", 2)
        Z = np.array([[1.0 + 2.0j, 3.0 + 4.0j]])
        assert f(Z)[0] == pytest.approx(3.0 * 2.0)


class TestEval:
    def test_lambda_zero_value(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, **{"lambda": [0.0], "points": [[[0.0, 0.0]]]})
        assert main(["eval", "--config", path]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["value"][0] == pytest.approx(2 * (2 * np.pi) ** -1.5, rel=1e-14)
        assert record["nu"] == 0

    def test_heisenberg_value_and_echo(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, points=[[[0.0, 0.0]]])
        assert main(["eval", "--config", path]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        want = (2 * np.pi) ** -1.5 * 2 * np.e / np.sinh(1.0)
        assert record["value"][0] == pytest.approx(want, rel=1e-14)
        assert record["mu"] == [1.0] and record["nu"] == 1 and record["eps"] == [1]

    def test_two_point_kernel(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, points=[[[0.4, 0.1]]], point_tilde=[[0.1, -0.2]]
        )
        assert main(["eval", "--config", path]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["value"][1] != 0.0

    def test_repeated_form_index_rejected(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, L=[1, 1], points=[[[0.0, 0.0]]])
        assert main(["eval", "--config", path]) == 2
        assert "'L'" in capsys.readouterr().err

    def test_missing_points(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["eval", "--config", path]) == 2
        assert "points" in capsys.readouterr().err

    def test_bad_lambda_length(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, **{"lambda": [1.0, 2.0]})
        assert main(["eval", "--config", path]) == 2
        assert "lambda" in capsys.readouterr().err


class TestScan:
    def grid_config(self, tmp_path, **overrides):
        return write_config(
            tmp_path,
            s=0.5,
            grid={"half_widths": [1.0, 1.0], "points": 11},
            **overrides,
        )

    def test_row_count_and_determinism(self, tmp_path):
        path, _ = self.grid_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["scan", "--config", path, "--out", str(out1)]) == 0
        assert main(["scan", "--config", path, "--out", str(out2)]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        data_rows = [l for l in b1.decode().splitlines() if not l.startswith("#")]
        assert len(data_rows) == 1 + 121  # header row + 11 x 11 nodes

    def test_roundtrip_exact(self, tmp_path):
        path, _ = self.grid_config(tmp_path)
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", path, "--out", str(out)]) == 0
        from quadheat import FormIndex, KernelQuery, decompose_form, heisenberg, rho_hat

        S = decompose_form(heisenberg(1), [1.0])
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        for line in lines[::13]:
            x, y, re, im, _ = (float(v) for v in line.split(","))
            want = rho_hat(KernelQuery(0.5, [x + 1j * y], S, FormIndex([1])))
            assert re == want  # exact round-trip through repr
            assert im == 0.0

    def test_threads_do_not_change_bytes(self, tmp_path):
        path, _ = self.grid_config(tmp_path)
        out1 = tmp_path / "t1.csv"
        out4 = tmp_path / "t4.csv"
        assert main(["scan", "--config", path, "--out", str(out1)]) == 0
        assert main(["scan", "--config", path, "--out", str(out4), "--threads", "4"]) == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_lambda_zero_matches_gaussian(self, tmp_path):
        path, _ = self.grid_config(tmp_path, **{"lambda": [0.0]})
        out = tmp_path / "scan0.csv"
        assert main(["scan", "--config", path, "--out", str(out)]) == 0
        s = 0.5
        for line in [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]:
            x, y, re, _, _ = (float(v) for v in line.split(","))
            want = 2 * (2 * np.pi) ** -1.5 / s * np.exp(-(x * x + y * y) / s)
            assert abs(re - want) <= 1e-14 * want

    def test_requires_out(self, tmp_path, capsys):
        path, _ = self.grid_config(tmp_path)
        assert main(["scan", "--config", path]) == 2

    def test_grid_axis_count_checked(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, s=0.5, grid={"half_widths": [1.0], "points": 11}
        )
        assert main(["scan", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        assert "half_widths" in capsys.readouterr().err


class TestVerify:
    def test_empty_check_list(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, checks=[])
        assert main(["verify", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"] == [] and report["all_pass"] is True

    def test_fast_subset_passes(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, checks=["mehler", "euclidean", "evenness", "semigroup"]
        )
        assert main(["verify", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"] is True
        assert [c["name"] for c in report["checks"]] == [
            "mehler", "euclidean", "evenness", "semigroup",
        ]
        for c in report["checks"]:
            assert c["pass"] and c["error"] <= c["tolerance"]

    def test_phase_ablation_fails_semigroup(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, checks=["semigroup"], debug={"phase_sign": 1.0}
        )
        assert main(["verify", "--config", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"] is False
        assert report["checks"][0]["error"] >= 1e-2

    def test_unknown_check_rejected(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, checks=["nonsense"])
        assert main(["verify", "--config", path]) == 2

    def test_report_written_to_file(self, tmp_path):
        path, _ = write_config(tmp_path, checks=["evenness"])
        out = tmp_path / "report.json"
        assert main(["verify", "--config", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["checks"][0]["name"] == "evenness"


class TestEvolve:
    def evolve_config(self, tmp_path, **overrides):
        base = {
            "L": [],
            "s": [0.1, 0.01],
            "initial": "exp(-(x1^2+y1^2))",
            "grid": {"half_widths": [3.0, 3.0], "points": 121},
            "out_points": [[[0.0, 0.0]], [[0.5, 0.0]]],
        }
        base.update(overrides)
        name = base.pop("name", "cfg.json")
        return write_config(tmp_path, name=name, **base)

    def test_values_approach_initial_data(self, tmp_path):
        path, _ = self.evolve_config(tmp_path)
        out = tmp_path / "evo.csv"
        assert main(["evolve", "--config", path, "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        vals = {}
        for row in rows:
            s, idx, re, im = row.split(",")
            vals[(float(s), int(idx))] = float(re)
        # analytic: H{f}(s, 0) = exp(-2s) for eps = -1, so smaller s is closer
        assert abs(vals[(0.01, 0)] - 1.0) < abs(vals[(0.1, 0)] - 1.0)
        assert vals[(0.1, 0)] == pytest.approx(np.exp(-0.2), abs=1e-9)
        f_half = np.exp(-0.25)
        assert abs(vals[(0.01, 1)] - f_half) < abs(vals[(0.1, 1)] - f_half)

    def test_zero_initial_data(self, tmp_path):
        path, _ = self.evolve_config(tmp_path, initial="0")
        out = tmp_path / "zero.csv"
        assert main(["evolve", "--config", path, "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert all(float(r.split(",")[2]) == 0.0 for r in rows)

    def test_linearity_of_runs(self, tmp_path):
        out = {}
        for name, expr in (
            ("f", "exp(-(x1^2+y1^2))"),
            ("g", "exp(-2*(x1^2+y1^2))"),
            ("sum", "exp(-(x1^2+y1^2)) + exp(-2*(x1^2+y1^2))"),
        ):
            path, _ = self.evolve_config(tmp_path, name=f"{name}.json", initial=expr)
            dest = tmp_path / f"{name}.csv"
            assert main(["evolve", "--config", path, "--out", str(dest)]) == 0
            rows = [l for l in dest.read_text().splitlines() if not l.startswith("#")][1:]
            out[name] = [float(r.split(",")[2]) for r in rows]
        for a, b, c in zip(out["f"], out["g"], out["sum"]):
            assert c == pytest.approx(a + b, abs=1e-12)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path, _ = self.evolve_config(tmp_path, initial="exp(-(x1^2+q^2))")
        assert main(["evolve", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        assert "position" in capsys.readouterr().err

    def test_initial_data_from_grid_csv(self, tmp_path):
        # sampled CSV initial data matches the expression route exactly
        from quadheat import GridFunction, GridSpec

        spec = GridSpec([3.0, 3.0], 121)
        nodes = spec.flat_points()
        vals = np.exp(-(nodes[:, 0] ** 2 + nodes[:, 1] ** 2)).reshape(spec.shape())
        data_csv = tmp_path / "initial.csv"
        GridFunction(spec, vals).save_csv(str(data_csv))
        base = {"initial_csv": str(data_csv)}
        path, cfg = self.evolve_config(tmp_path, name="csv.json", **base)
        cfg.pop("initial")
        (tmp_path / "csv.json").write_text(json.dumps(cfg))
        out_csv = tmp_path / "from_csv.csv"
        assert main(["evolve", "--config", str(tmp_path / "csv.json"),
                     "--out", str(out_csv)]) == 0
        path2, _ = self.evolve_config(tmp_path, name="expr.json")
        out_expr = tmp_path / "from_expr.csv"
        assert main(["evolve", "--config", path2, "--out", str(out_expr)]) == 0
        rows_csv = [l for l in out_csv.read_text().splitlines()
                    if not l.startswith("#")]
        rows_expr = [l for l in out_expr.read_text().splitlines()
                     if not l.startswith("#")]
        assert rows_csv == rows_expr

    @pytest.mark.parametrize("expr,bad", [
        ("1/(x1^2+y1^2)", 1),   # the origin node
        ("1/(x1)", 21),         # the x1 = 0 column
        ("1/0", 441),           # a literal division by zero
    ])
    def test_nonfinite_initial_data_rejected(self, tmp_path, capsys, expr, bad):
        grid = {"half_widths": [2.0, 2.0], "points": 21}
        path, _ = self.evolve_config(tmp_path, initial=expr, grid=grid)
        out = tmp_path / "x.csv"
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config field 'initial'" in err
        assert f"not finite at {bad} of 441 grid nodes" in err
        assert "Traceback" not in err and not out.exists()

    def test_nonfinite_initial_csv_rejected(self, tmp_path, capsys):
        from quadheat import GridFunction, GridSpec

        spec = GridSpec([2.0, 2.0], 21)
        vals = np.ones(spec.shape())
        vals[3, 4] = np.nan
        data_csv = tmp_path / "initial.csv"
        GridFunction(spec, vals).save_csv(str(data_csv))
        path, cfg = self.evolve_config(tmp_path, name="csv.json",
                                       initial_csv=str(data_csv),
                                       grid={"half_widths": [2.0, 2.0], "points": 21})
        cfg.pop("initial")
        (tmp_path / "csv.json").write_text(json.dumps(cfg))
        assert main(["evolve", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "config field 'initial_csv'" in err and "at 1 of 441" in err

    def test_both_initial_sources_rejected(self, tmp_path, capsys):
        path, _ = self.evolve_config(tmp_path, initial_csv="whatever.csv")
        assert main(["evolve", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_out_rejected(self, tmp_path):
        path, _ = self.evolve_config(tmp_path)
        assert main(["evolve", "--config", path]) == 2


class TestConfigEdgeCases:
    def test_quadric_from_file(self, tmp_path, capsys):
        qpath = tmp_path / "quadric.json"
        qpath.write_text(json.dumps(HEIS))
        path, _ = write_config(tmp_path, quadric="quadric.json", points=[[[0.0, 0.0]]])
        assert main(["eval", "--config", path]) == 0

    def test_nonexistent_config(self, capsys):
        assert main(["eval", "--config", "/nonexistent/cfg.json"]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["eval", "--config", str(path)]) == 2

    def test_negative_time_rejected(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, s=-1.0, points=[[[0.0, 0.0]]])
        assert main(["eval", "--config", path]) == 2
        assert "'s'" in capsys.readouterr().err

    def test_bad_threads(self, tmp_path):
        path, _ = write_config(tmp_path, points=[[[0.0, 0.0]]])
        assert main(["eval", "--config", path, "--threads", "0"]) == 2
