import contextlib
import hashlib
import io
import json
import math
import operator
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadheat import (
    FormIndex,
    GridFunction,
    GridSpec,
    KernelQuery,
    NumericsError,
    QuadricForm,
    rho_hat,
    rho_hat_adapted,
    weighted_heat_kernel,
)
from quadheat import boxop, cli, hermite, kernel
from quadheat.cli import ExprError, load_config, main, parse_initial_expression

HEIS = {"n": 1, "m": 1, "A": [[[1.0, 0.0]]]}
# Non-commuting n = 2, m = 2 form; lambda = [1, 1] gives mu = (1, -0.5), full rank.
FULL_RANK_N2 = {"n": 2, "m": 2, "A": [
    [[0.7, 0.0], [-0.4, 0.2], [-0.4, -0.2], [-0.4, 0.0]],
    [[0.3, 0.0], [0.4, -0.2], [0.4, 0.2], [-0.1, 0.0]],
]}


def data_rows(path):
    """CSV lines after the comment lines and the column header."""
    return [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]


def per_row_cells(coords, *values):
    """One CSV row built cell by cell with repr(float(.)), the reference format."""
    return ",".join([repr(float(x)) for x in coords] + [repr(float(v)) for v in values])


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


def rotated_form_json(mu, seed):
    """n = len(mu), m = 1 form U diag(mu) U^H with a seeded unitary U."""
    rng = np.random.default_rng(seed)
    n = len(mu)
    U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    A = U @ np.diag(mu).astype(complex) @ U.conj().T
    return {"n": n, "m": 1, "A": [[[float(x.real), float(x.imag)] for x in A.ravel()]]}


# Expression trees over the n = 2 variables: a leaf is a variable or a literal,
# a node is (op, child) for "neg" and "exp" or (op, left, right) for + - * / ^.
_VARIABLES = ["x1", "y1", "x2", "y2"]
_LITERALS = ["2", ".5", "1.", "2.5e-3", "1E+2", "3", "0.75"]
_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
               "^": operator.pow, "neg": operator.neg, "exp": np.exp}
# x, y at six nodes, zero and negative values among them
_ENV = dict(zip(_VARIABLES, np.random.default_rng(20240813).normal(scale=2.0, size=(4, 6))))
_ENV["x1"][0] = 0.0


@st.composite
def _expression_trees(draw, depth=6):
    if depth == 1 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(_VARIABLES + _LITERALS))
    op = draw(st.sampled_from(list(_OPERATIONS)))
    return (op, *(draw(_expression_trees(depth - 1)) for _ in range(1 if op in ("neg", "exp") else 2)))


def _print_tree(tree):
    """Tokens of ``tree`` with the fewest parentheses the grammar allows, and its
    binding power: 1 sum, 2 product, 3 unary minus, 4 power, 5 atom.  Unary minus
    binds outside ``^``, ``^`` is right-associative, ``* /`` and ``+ -`` left-associative."""
    if isinstance(tree, str):
        return [tree], 5
    op, *args = tree
    if op == "exp":
        return ["exp", "(", *_print_tree(args[0])[0], ")"], 5
    if op == "neg":
        return ["-", *_print_wrapped(args[0], 3)], 3
    if op == "^":
        return [*_print_wrapped(args[0], 5), "^", *_print_wrapped(args[1], 3)], 4
    power = 1 if op in "+-" else 2
    return [*_print_wrapped(args[0], power), op, *_print_wrapped(args[1], power + 1)], power


def _print_wrapped(tree, power):
    tokens, own = _print_tree(tree)
    return tokens if own >= power else ["(", *tokens, ")"]


def _evaluate_tree(tree):
    """``tree`` evaluated with the numpy operations the grammar documents."""
    if isinstance(tree, str):
        return _ENV[tree] if tree in _ENV else np.float64(float(tree))
    op, *args = tree
    return _OPERATIONS[op](*(_evaluate_tree(a) for a in args))


@st.composite
def _printed_trees(draw):
    """A tree and its text, with random whitespace, newlines included, around every token."""
    tree = draw(_expression_trees())
    tokens = _print_tree(tree)[0]
    space = st.sampled_from(["", " ", "\t", "\n", " \n  "])
    return tree, "".join(draw(space) + token for token in tokens) + draw(space)


# grammar tokens mixed with tokens only Python's own grammar knows
_FUZZ_TOKENS = ["x1", "y2", "x3", "exp", "2", ".5", "1.", "e", "E", "0", "+", "-", "*", "/",
                "^", "(", ")", " ", "\n", "**", ",", "[", "]", ":", "'", "_", "j", "0x"]


class TestExpressionGrammar:
    def test_basic_arithmetic(self):
        f = parse_initial_expression("2*x1^2 - y1/4 + 1", 1)
        assert f(np.array([1.5]), np.array([2.0]))[0] == pytest.approx(2 * 1.5**2 - 2.0 / 4 + 1)

    def test_exp_and_nesting(self):
        f = parse_initial_expression("exp(-(x1^2 + y1^2))", 1)
        assert f(np.array([0.3]), np.array([-0.4]))[0] == pytest.approx(np.exp(-0.25))

    def test_unary_minus_binds_outside_power(self):
        f = parse_initial_expression("-x1^2", 1)
        assert f(np.array([2.0]), np.array([0.0]))[0] == -4.0

    def test_right_associative_power(self):
        f = parse_initial_expression("x1^3^2", 1)
        assert f(np.array([2.0]), np.array([0.0]))[0] == 2.0**9

    def test_constant_expression_broadcasts(self):
        # The parser returns the scalar; sample_on_grid broadcasts it to the grid
        # (tests/test_boxop.py::TestSampleOnGrid::test_constant_fills_the_grid).
        f = parse_initial_expression("3.5", 2)
        assert f(*np.zeros((4, 4))) == 3.5

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
        assert f(*np.array([[1.0], [2.0], [3.0], [4.0]]))[0] == pytest.approx(3.0 * 2.0)

    @settings(max_examples=150, deadline=None)
    @given(case=_printed_trees())
    def test_printed_tree_evaluates_bitwise(self, case):
        tree, text = case
        with np.errstate(all="ignore"):
            got = parse_initial_expression(text, 2)(*_ENV.values())
            want = _evaluate_tree(tree)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True), text

    @pytest.mark.parametrize("text,want", [
        ("x1 +\n y1", _ENV["x1"] + _ENV["y1"]),
        ("\tx1", _ENV["x1"]),
        ("2^-1", 0.5),
        ("-2^2", -4.0),
        ("x1 / - - 2", _ENV["x1"] / 2.0),
        ("exp (x1)", np.exp(_ENV["x1"])),
    ])
    def test_accepted(self, text, want):
        assert np.array_equal(parse_initial_expression(text, 2)(*_ENV.values()), want)

    @pytest.mark.parametrize("text", [
        "x1**2", "0x1F", "1_0", "1j", "x1 if y1 else 1", "True", "exp", "exp(x1, y1)",
        "x1.real", "x1(2)", "(x1)(y1)", "x1 x1", "1e", "1.5.2", "x1 // 2", "",
    ])
    def test_refused(self, text):
        with pytest.raises(ExprError) as err:
            parse_initial_expression(text, 2)(*_ENV.values())
        assert 0 <= err.value.pos <= len(text)

    @pytest.mark.parametrize("text", ["١", "01", "x1^02"])
    def test_non_ascii_digit_and_leading_zero_refused(self, text):
        # Python's parser refuses an integer literal with a leading zero
        with pytest.raises(ExprError):
            parse_initial_expression(text, 2)

    @settings(max_examples=150, deadline=None)
    @given(text=st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=12).map("".join))
    def test_any_text_parses_or_raises_expr_error(self, text):
        try:
            with np.errstate(all="ignore"):
                parse_initial_expression(text, 2)(*_ENV.values())
        except ExprError as exc:
            assert 0 <= exc.pos <= len(text)


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
        err = capsys.readouterr().err  # FormIndex's own refusal, under the field's name
        assert "'L'" in err and "strictly increasing" in err

    def test_no_points_give_empty_output(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, points=[])
        out = tmp_path / "eval.jsonl"
        assert main(["eval", "--config", path]) == 0
        assert capsys.readouterr().out == ""
        assert main(["eval", "--config", path, "--out", str(out)]) == 0
        assert out.read_text() == ""

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

    @pytest.mark.parametrize("command, overrides", [
        ("scan", {"s": 0.5, "grid": {"half_widths": [1.0, 1.0], "points": 11}}),
        ("evolve", {"s": [0.1, 0.2, 0.3], "L": [], "initial": "exp(-(x1^2+y1^2))",
                    "grid": {"half_widths": [3.0, 3.0], "points": 41},
                    "out_points": [[[0.0, 0.0]], [[0.5, 0.0]]]}),
    ], ids=["scan", "evolve"])
    def test_threads_do_not_change_bytes(self, tmp_path, command, overrides):
        path, _ = write_config(tmp_path, **overrides)
        out1 = tmp_path / "t1.csv"
        out4 = tmp_path / "t4.csv"
        assert main([command, "--config", path, "--out", str(out1)]) == 0
        assert main([command, "--config", path, "--out", str(out4), "--threads", "4"]) == 0
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

    @pytest.mark.parametrize("quadric,lam,L,half_widths,points", [
        pytest.param(FULL_RANK_N2, [1.0, 1.0], [1], [1.0, 2.0, 0.5, 3.0], 9,
                     id="quadric0-lam0-half_widths0-9"),
        pytest.param(HEIS, [1.0], [1], [1.0, 1.0], 11, id="quadric1-lam1-half_widths1-11"),
        # an even point count, where linspace is not bitwise symmetric
        pytest.param(rotated_form_json([1.0, -0.5, 0.75], 5), [1.0], [2], [1.0, 0.7, 1.3, 0.9, 1.1, 0.6], 8,
                     id="n3_unequal_widths_even_points"),
        pytest.param(rotated_form_json([1.0, 0.0], 3), [1.0], [1], [1.0, 2.0, 0.5, 3.0], 9,
                     id="rank1_n2"),  # nu < n: the kernel block takes 1/s
        pytest.param(FULL_RANK_N2, [1.0, 1.0], [], [1.0, 2.0, 0.5, 3.0], 9, id="L_empty"),
        pytest.param(FULL_RANK_N2, [1.0, 1.0], [1, 2], [1.0, 2.0, 0.5, 3.0], 9, id="L_full"),
        pytest.param(HEIS, [1.0], [1], [40.0, 40.0], 41, id="far_field_underflow"),
    ])
    def test_bytes_match_per_row_repr(self, tmp_path, quadric, lam, L, half_widths, points):
        path, _ = write_config(tmp_path, quadric=quadric, **{"lambda": lam}, L=L, s=0.5,
                               grid={"half_widths": half_widths, "points": points})
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", path, "--out", str(out)]) == 0
        cfg = load_config(path)
        pts = GridSpec(half_widths, points).flat_points()
        # every row of the small grids; 20000 seeded rows of the n = 3 one (8^6 nodes)
        rows = np.arange(len(pts)) if len(pts) <= 20000 else np.sort(
            np.random.default_rng(11).choice(len(pts), 20000, replace=False))
        c = pts[rows, 0::2] + 1j * pts[rows, 1::2]
        log_rho = kernel.log_rho_hat(0.5, c.real**2 + c.imag**2, cfg.spectral, cfg.L)
        vals = rho_hat_adapted(0.5, c, cfg.spectral, cfg.L)
        names = ["x1", "y1", "x2", "y2", "x3", "y3"][: len(half_widths)]
        want = [per_row_cells(p, v, 0.0, np.log10(v) if v > 0.0 else lg / np.log(10.0))
                for p, v, lg in zip(pts[rows], vals, log_rho)]
        lines = out.read_text().split("\n")
        assert [l[:2] for l in lines[:6]] == ["# "] * 6
        assert lines[6] == ",".join(names + ["re", "im", "log10_abs"])
        assert len(lines) == 7 + len(pts) + 1 and lines[-1] == ""
        assert [lines[7 + i] for i in rows] == want
        if half_widths[0] == 40.0:
            assert 0 < sum(v == 0.0 for v in vals) < len(vals)

    def test_kernel_runs_once_per_tuple_of_distinct_radii(self, tmp_path, monkeypatch):
        calls = []

        def spy(s, sq, S, L):
            calls.append(np.shape(sq))
            return kernel.log_rho_hat(s, sq, S, L)

        monkeypatch.setattr(cli, "log_rho_hat", spy)
        for quadric, lam, half_widths, points in [
            (FULL_RANK_N2, [1.0, 1.0], [1.0, 2.0, 0.5, 3.0], 9),
            (rotated_form_json([1.0, -0.5, 0.75], 5), [1.0], [1.0, 0.7, 1.3, 0.9, 1.1, 0.6], 8),
        ]:
            path, _ = write_config(tmp_path, quadric=quadric, **{"lambda": lam}, s=0.5,
                                   grid={"half_widths": half_widths, "points": points})
            calls.clear()
            assert main(["scan", "--config", path, "--out", str(tmp_path / "scan.csv")]) == 0
            # K_j: distinct bit patterns of x_j^2 + y_j^2 on direction j's own plane
            axes = GridSpec(half_widths, points).axes()
            K = [np.unique((x[:, None] ** 2 + y[None, :] ** 2).view(np.uint64)).size
                 for x, y in zip(axes[0::2], axes[1::2])]
            assert calls == [(math.prod(K), len(K))]
            assert math.prod(K) < points ** len(half_widths)

    def test_overflow_exits_1_naming_time_and_node(self, tmp_path, capsys):
        # log rho_hat at the origin is about 2 log(2 / s) = 920 at s = 1e-200: exp overflows there
        path, _ = write_config(tmp_path, quadric=FULL_RANK_N2, **{"lambda": [1.0, 1.0]}, s=1e-200,
                               grid={"half_widths": [3.0] * 4, "points": 17})
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "not finite" in err and "s=1e-200" in err and "grid node [0.0, 0.0, 0.0, 0.0]" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_far_field_writes_finite_log_without_warning(self, tmp_path):
        s = 0.5
        path, _ = write_config(tmp_path, s=s, grid={"half_widths": [40.0, 40.0], "points": 41})
        out = tmp_path / "far.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scan", "--config", path, "--out", str(out)]) == 0
        zeros = 0
        for line in data_rows(out):
            x, y, re, im, log10_abs = line.split(",")
            assert im == "0.0"
            if float(re) == 0.0:
                zeros += 1
                # Heisenberg, mu = 1, eps = +1: (2 pi)^{-3/2} 2 e^s / sinh(s) e^{-coth(s)|z|^2}
                log_rho = (-1.5 * math.log(2.0 * math.pi) + math.log(2.0) + s
                           - math.log(math.sinh(s)) - (float(x) ** 2 + float(y) ** 2) / math.tanh(s))
                want = log_rho / math.log(10.0)
                assert abs(float(log10_abs) - want) <= 1e-12 * abs(want)
            else:
                assert abs(float(log10_abs) - math.log10(float(re))) <= 1e-12
        assert 0 < zeros < 41 * 41

    def test_requires_out(self, tmp_path, capsys):
        path, _ = self.grid_config(tmp_path)
        assert main(["scan", "--config", path]) == 2
        assert capsys.readouterr().err == "error: scan requires --out PATH for its CSV output\n"
        path, _ = self.grid_config(tmp_path, L=[1.5])  # the config's own errors come first
        assert main(["scan", "--config", path]) == 2
        assert "config field 'L'" in capsys.readouterr().err

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

    def test_one_parser_serves_calls_with_their_own_arguments(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda cfg, out: seen.append(out) or 0)
        path, _ = write_config(tmp_path)
        out = str(tmp_path / "report.json")
        assert main(["verify", "--config", path, "--out", out]) == 0
        assert main(["verify", "--config", path]) == 0
        assert seen == [out, None]
        assert cli.build_parser() is cli.build_parser()

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

    def test_no_output_points_writes_the_header_alone(self, tmp_path):
        path, _ = self.evolve_config(tmp_path, out_points=[])
        out = tmp_path / "none.csv"
        assert main(["evolve", "--config", path, "--out", str(out)]) == 0
        assert [l for l in out.read_text().splitlines() if not l.startswith("#")] == ["s,point_index,re,im"]

    def test_output_bytes_do_not_depend_on_slabs(self, tmp_path, monkeypatch):
        # sample_on_grid calls the expression once per slab of axis 0; the
        # evolved values are the same bytes for one slab and for several.
        path, _ = self.evolve_config(
            tmp_path, quadric=FULL_RANK_N2, **{"lambda": [1.0, 1.0]}, L=[1], s=[0.5],
            initial="exp(-(x1^2+y1^2+x2^2+y2^2))*(1 + x1*y2 - 0.5*x2^3/4)",
            grid={"half_widths": [5.0] * 4, "points": 13},
            out_points=[[[0.3, 0.2], [-0.25, 0.1]], [[-0.4, 0.05], [0.15, -0.3]]])
        outs = []
        for nodes in (13**4, 2 * 13**3):  # one slab; seven, the last of one row
            monkeypatch.setattr(boxop, "_SLAB_NODES", nodes)
            outs.append(tmp_path / f"evo{nodes}.csv")
            assert main(["evolve", "--config", path, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("fields,cause", [
        # rank-1 n = 2 at s = 1e-300: the kernel peak (2/s)^2 overflows
        ({"quadric": {"n": 2, "m": 1, "A": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]},
          "s": 1e-300, "L": [1], "grid": {"half_widths": [5.0] * 4, "points": 11},
          "out_points": [[[0.1, 0.0], [0.1, 0.0]]]}, "kernel peak inf at s=1e-300 is not finite"),
        # data near the largest double at the origin, 0 on the faces: the sum overflows
        ({"s": 1.0, "initial": "exp(709 - x1^2 - y1^2)", "grid": {"half_widths": [100.0] * 2, "points": 9},
          "out_points": [[[0.0, 0.0]]]}, "at s=1.0, out_points[0] is not finite"),
    ], ids=["peak_overflows", "value_overflows"])
    def test_nonfinite_result_exits_1(self, tmp_path, capsys, fields, cause):
        path, _ = self.evolve_config(tmp_path, **fields)
        out = tmp_path / "x.csv"
        with np.errstate(all="ignore"):
            assert main(["evolve", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert cause in err and "Traceback" not in err and not out.exists()

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

    @pytest.mark.parametrize("fields", [
        # out_points[1] lies outside the box
        {"grid": {"half_widths": [2.0, 2.0], "points": 21}, "out_points": [[[0.0, 0.0]], [[5.0, 0.0]]]},
        # rank-1 n = 2 at s = 1e-300: the kernel peak overflows
        {"quadric": {"n": 2, "m": 1, "A": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}, "L": [1],
         "s": [0.5, 1e-300], "grid": {"half_widths": [5.0] * 4, "points": 11},
         "out_points": [[[0.1, 0.0], [0.1, 0.0]]]},
    ], ids=["outside_the_box", "peak_overflows"])
    def test_nonfinite_initial_data_exits_2_before_numeric_refusals(self, tmp_path, capsys, monkeypatch, fields):
        # inf on the x1 = 0 nodes, counted over slabs of two rows of axis 0
        path, cfg = self.evolve_config(tmp_path, initial="1/x1", **fields)
        points, dim = cfg["grid"]["points"], len(cfg["grid"]["half_widths"])
        monkeypatch.setattr(boxop, "_SLAB_NODES", 2 * points ** (dim - 1))
        out = tmp_path / "x.csv"
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: config field 'initial': initial data is not finite at "
                       f"{points ** (dim - 1)} of {points ** dim} grid nodes\n")
        assert not out.exists()

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

    def csv_config(self, tmp_path, data_csv, half_width):
        path, cfg = self.evolve_config(
            tmp_path, name="csv.json", initial_csv=str(data_csv), s=0.5, L=[1],
            grid={"half_widths": [half_width] * 2, "points": 41},
            out_points=[[[0.0, 0.0]]])
        cfg.pop("initial")
        (tmp_path / "csv.json").write_text(json.dumps(cfg))
        return path

    def test_initial_csv_on_another_grid_rejected(self, tmp_path, capsys):
        # exp(-|z|^2) is stationary for L = [1]; read on [-4, 4]^2 it gave 0.7168.
        spec = GridSpec([6.0, 6.0], 41)
        nodes = spec.flat_points()
        vals = np.exp(-(nodes[:, 0] ** 2 + nodes[:, 1] ** 2)).reshape(spec.shape())
        data_csv = tmp_path / "initial.csv"
        GridFunction(spec, vals).save_csv(str(data_csv))
        out = tmp_path / "x.csv"
        path = self.csv_config(tmp_path, data_csv, 6.0)
        assert main(["evolve", "--config", path, "--out", str(out)]) == 0
        assert float(data_rows(out)[0].split(",")[2]) == pytest.approx(1.0, abs=1e-12)
        out.unlink()
        path = self.csv_config(tmp_path, data_csv, 4.0)
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config field 'initial_csv'" in err and "line 2:" in err
        assert "Traceback" not in err and not out.exists()

    def test_both_initial_sources_rejected(self, tmp_path, capsys):
        path, _ = self.evolve_config(tmp_path, initial_csv="whatever.csv")
        assert main(["evolve", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_out_rejected(self, tmp_path, capsys):
        path, _ = self.evolve_config(tmp_path)
        assert main(["evolve", "--config", path]) == 2
        assert capsys.readouterr().err == "error: evolve requires --out PATH for its CSV output\n"
        path, _ = self.evolve_config(tmp_path, L=[1.5])  # the config's own errors come first
        assert main(["evolve", "--config", path]) == 2
        assert "config field 'L'" in capsys.readouterr().err


# Few values, so most cells repeat: 0.0 and -0.0 compare equal, the two NaNs equal nothing,
# and each has its own bit pattern.
REPEATED = [0.0, -0.0, float("nan"), np.copysign(float("nan"), -1.0),
            float("inf"), -float("inf"), 5e-324, 0.25]


class TestGridCsv:
    @pytest.mark.parametrize("half_widths,points,pool", [
        pytest.param([1.0, 2.0, 0.5, 3.0], 9, None, id="half_widths0-9"),
        pytest.param([1.5], 8, None, id="half_widths1-8"),
        pytest.param([2.0, 1.0, 0.5, 1.5], 8, REPEATED, id="repeated_bit_patterns"),
    ])
    def test_save_csv_bytes_match_per_row_repr(self, tmp_path, half_widths, points, pool):
        spec = GridSpec(half_widths, points)
        rng = np.random.default_rng(7)
        if pool is None:
            vals = rng.normal(size=spec.shape()) + 1j * rng.normal(size=spec.shape())
            vals.flat[:4] = [-0.0, np.inf, complex(np.nan, -np.inf), 1e-300j]
        else:  # set part by part: complex arithmetic would change the signs of zeros and NaNs
            vals = np.empty(spec.shape(), dtype=complex)
            vals.real, vals.imag = rng.choice(pool, spec.shape()), rng.choice(pool, spec.shape())
        path = tmp_path / "field.csv"
        GridFunction(spec, vals).save_csv(str(path))
        names = ["x1", "y1", "x2", "y2"][: spec.dim]
        want = [",".join(names + ["re", "im"])]
        want += [per_row_cells(c, v.real, v.imag)
                 for c, v in zip(spec.flat_points(), vals.ravel())]
        assert path.read_text() == "\n".join(want) + "\n"

    def test_save_load_roundtrip_on_unequal_axes(self, tmp_path):
        spec = GridSpec([1.0, 2.0, 0.5, 3.0], 9)
        vals = np.random.default_rng(8).normal(size=spec.shape()) + 0.5j
        path = str(tmp_path / "field.csv")
        GridFunction(spec, vals).save_csv(path)
        np.testing.assert_array_equal(GridFunction.load_csv(path, spec).values, vals)
        with pytest.raises(ValueError, match="line 2:"):
            GridFunction.load_csv(path, GridSpec([1.0, 2.0, 0.5, 3.5], 9))


class TestConfigEdgeCases:
    def test_quadric_from_file(self, tmp_path, capsys):
        qpath = tmp_path / "quadric.json"
        qpath.write_text(json.dumps(HEIS))
        path, _ = write_config(tmp_path, quadric="quadric.json", points=[[[0.0, 0.0]]])
        assert main(["eval", "--config", path]) == 0

    def test_paths_resolve_beside_the_config(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "q.json").write_text(json.dumps(HEIS))
        spec = GridSpec([3.0, 3.0], 21)
        GridFunction(spec, np.zeros(spec.shape())).save_csv(str(sub / "init.csv"))
        write_config(sub, name="e.json", quadric="q.json", initial_csv="init.csv",
                     grid={"half_widths": [3.0, 3.0], "points": 21}, out_points=[[[0.0, 0.0]]])
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", "--config", "sub/e.json", "--out", "e.csv"]) == 0

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


class TestUnknownFields:
    # one config every command accepts; a misspelt "s" or "point_tilde" must not fall back to a default
    FIELDS = {"points": [[[0.3, 0.1]]], "grid": {"half_widths": [3.0, 3.0], "points": 21},
              "initial": "exp(-(x1^2+y1^2))", "out_points": [[[0.0, 0.0]]], "checks": ["euclidean"]}

    @pytest.mark.parametrize("command", ["eval", "scan", "verify", "evolve"])
    def test_unknown_field_exits_2_naming_it(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        path, _ = write_config(tmp_path, **self.FIELDS)
        assert main([command, "--config", path, "--out", str(out)]) == 0
        out.unlink()
        path, _ = write_config(tmp_path, **self.FIELDS, S=2.0, point_tidle=[[0.1, 0.0]])
        assert main([command, "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "config field 'S': unknown field" in captured.err
        assert "config field 'point_tidle': unknown field" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command,field,key", [("scan", "grid", "point"), ("evolve", "grid", "point"),
                                                   ("verify", "debug", "phase_sgn")])
    def test_unknown_nested_field_exits_2_naming_it(self, tmp_path, capsys, command, field, key):
        # a misspelt debug.phase_sign would run the unfaulted negative control and pass
        out = tmp_path / "out"
        path, _ = write_config(tmp_path, **{**self.FIELDS, field: {**self.FIELDS.get(field, {}), key: 1}})
        assert main([command, "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"config field '{field}.{key}': unknown field" in captured.err
        assert captured.out == "" and not out.exists()


class TestReadme:
    """The README's usage line and config schema name exactly what the CLI accepts."""

    TEXT = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

    def test_usage_line_lists_the_parser_options(self):
        usage = next(line for line in self.TEXT.splitlines() if line.startswith("quadheat COMMAND"))
        options = {o for a in cli.build_parser()._actions for o in a.option_strings}
        assert set(re.findall(r"--[a-z]+", usage)) == options - {"-h", "--help"}

    SCHEMA = json.loads(TEXT.split("### Config schema", 1)[1].split("```json", 1)[1].split("```", 1)[0])

    def test_schema_block_lists_the_config_fields(self):
        assert set(self.SCHEMA) | {"initial_csv"} == set(cli.CONFIG_FIELDS)

    def test_schema_block_lists_the_grid_and_debug_fields(self):
        assert set(self.SCHEMA["grid"]) == set(cli.GRID_FIELDS)
        assert set(self.SCHEMA["debug"]) == set(cli.DEBUG_FIELDS)


NAN, INF = float("nan"), float("inf")


class TestConfigNumbers:
    """Non-finite or ill-typed numbers exit 2 naming their field, before any output."""

    def run_eval(self, tmp_path, capsys, **overrides):
        path, _ = write_config(tmp_path, **{"points": [[[0.3, -0.1]]], **overrides})
        out = tmp_path / "eval.jsonl"
        code = main(["eval", "--config", path, "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err and out.exists() == (code == 0)
        return code, err

    @pytest.mark.parametrize("field,value", [
        ("lambda", [NAN]),
        ("lambda", [INF]),
        ("lambda", [-INF]),
        ("lambda", [None]),
        ("s", NAN),
        ("s", INF),
        ("s", [0.5, NAN]),
        ("s", True),
        ("s", [0.5, False]),
        ("L", [1.5]),
        ("L", [True]),
    ])
    def test_bad_number_names_its_field(self, tmp_path, capsys, field, value):
        code, err = self.run_eval(tmp_path, capsys, **{field: value})
        assert code == 2 and f"config field '{field}'" in err
        assert "exceeds dimension" not in err

    @pytest.mark.parametrize("field,value,name", [
        ("points", [[[0.3, NAN]]], "points[0]"),
        ("points", [[[0.0, 0.0]], [[INF, 0.0]]], "points[1]"),
        ("point_tilde", [[0.1, -INF]], "point_tilde"),
    ])
    def test_nonfinite_eval_point_rejected(self, tmp_path, capsys, field, value, name):
        code, err = self.run_eval(tmp_path, capsys, **{field: value})
        assert code == 2 and f"config field '{name}'" in err and "finite" in err

    def test_nonfinite_out_point_rejected(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, L=[], s=0.5, initial="exp(-(x1^2+y1^2))",
                               grid={"half_widths": [3.0, 3.0], "points": 41},
                               out_points=[[[0.0, 0.0]], [[0.2, NAN]]])
        out = tmp_path / "evo.csv"
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config field 'out_points[1]'" in err and not out.exists()

    @pytest.mark.parametrize("half_widths", [[NAN, 2.0], [2.0, INF]])
    def test_nonfinite_grid_rejected(self, tmp_path, capsys, half_widths):
        path, _ = write_config(tmp_path, grid={"half_widths": half_widths, "points": 11})
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config field 'grid'" in err and "finite" in err and not out.exists()

    def test_valid_config_unchanged(self, tmp_path, capsys):
        code, err = self.run_eval(tmp_path, capsys, L=[1.0], s=[0.5, 1])
        assert code == 0 and err == ""


class TestJsonTypes:
    """Strings, booleans and malformed quadric JSON exit 2 naming their field, not coerced."""

    @pytest.mark.parametrize("field,value,name", [
        ("s", "0.5", "s"),
        ("lambda", ["1.0"], "lambda"),
        ("lambda", [True], "lambda"),
        ("L", "1", "L"),
        ("L", ["1"], "L"),
        ("points", [[["0.1", 0.0]]], "points[0]"),
        ("points", [[[True, 0.0]]], "points[0]"),
        ("points", [[[0.0, 0.0]], [[0.1]]], "points[1]"),
    ])
    def test_string_or_bool_number_names_its_field(self, tmp_path, capsys, field, value, name):
        path, _ = write_config(tmp_path, **{"points": [[[0.3, -0.1]]], field: value})
        out = tmp_path / "eval.jsonl"
        assert main(["eval", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{name}'" in err and "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("half_widths", [["1.0", "1.0"], [True, 1.0]])
    def test_string_or_bool_half_width_names_its_field(self, tmp_path, capsys, half_widths):
        path, _ = write_config(tmp_path, s=0.5, grid={"half_widths": half_widths, "points": 11})
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", path, "--out", str(out)]) == 2
        assert "config field 'grid.half_widths'" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("change", [
        {"A": 5},
        {"n": None},
        {"A": [[["1.0", 0.0]]]},
        {"n": 1.7},
        {"A": [[[NAN, 0.0]]]},
    ], ids=["A_number", "n_null", "A_string_entry", "n_fraction", "A_nan_entry"])
    def test_bad_quadric_json_names_quadric(self, tmp_path, capsys, change):
        path, _ = write_config(tmp_path, quadric={**HEIS, **change}, points=[[[0.3, -0.1]]])
        assert main(["eval", "--config", path]) == 2
        captured = capsys.readouterr()
        assert "config field 'quadric'" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


class TestEvalStrictJson:
    def test_nonfinite_value_exits_1_naming_time_and_point(self, tmp_path, capsys):
        # a finite, positive, subnormal time: the kernel value itself is not finite
        path, _ = write_config(tmp_path, s=[0.5, 1e-320], points=[[[0.0, 0.0]], [[0.1, 0.0]]])
        out = tmp_path / "eval.jsonl"
        assert main(["eval", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "s=1e-320" in err and "points[0]" in err and "not finite" in err
        assert not out.exists()

    def test_records_are_strict_json(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, s=[0.05, 2.0], points=[[[0.0, 0.0]], [[3.0, -1.0]]],
                               point_tilde=[[0.2, 0.1]])
        assert main(["eval", "--config", path]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        for line in lines:
            record = json.loads(line, parse_constant=reject)
            assert all(math.isfinite(x) for x in record["value"])

    @pytest.mark.parametrize("extra", [{}, {"point_tilde": [[0.0, 0.0]]}],
                             ids=["one_point", "point_tilde"])
    def test_underflowed_value_keeps_log_space_log10(self, tmp_path, capsys, extra):
        s = 0.5
        path, _ = write_config(tmp_path, s=s, points=[[[40.0, 0.0]]], **extra)
        assert main(["eval", "--config", path]) == 0
        record = strict_json(capsys.readouterr().out)
        # Heisenberg, lambda = 1, L = [1]: (2 pi)^{-3/2} 2 e^s / sinh(s) exp(-|z|^2 coth(s))
        log_rho = (-1.5 * np.log(2 * np.pi) + np.log(2.0) + s - np.log(np.sinh(s))
                   - 40.0**2 / np.tanh(s))
        if extra:  # the two-point kernel carries (2 pi)^{m/2}
            log_rho += 0.5 * np.log(2 * np.pi)
        assert record["value"] == [0.0, 0.0]
        assert record["log10_abs"] == pytest.approx(log_rho / np.log(10.0), rel=1e-12)


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def n12_form_json():
    rng = np.random.default_rng(9001)
    mats = []
    for _ in range(3):
        X = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        mats.append((X + X.conj().T) / (2.0 * np.sqrt(24.0)))
    return QuadricForm(12, 3, mats).to_json()


def seeded_points(n, count, seed):
    rng = np.random.default_rng(seed)
    return [[[float(x), float(y)] for x, y in 0.4 * rng.normal(size=(n, 2))]
            for _ in range(count)]


class TestEvalBatched:
    """eval makes one batched kernel call per time; records match the per-point scalar path."""

    GEOMETRIES = {
        "heisenberg_n1": (HEIS, [1.0], [1]),
        "rank1_n2": (rotated_form_json([1.0, 0.0], 3), [1.0], [1]),
        "n12_m3": (n12_form_json(), [0.3, -0.7, 0.5], [1, 3]),
    }

    @pytest.mark.parametrize("two_point", [False, True], ids=["one_point", "two_point"])
    @pytest.mark.parametrize("geometry", list(GEOMETRIES))
    def test_records_match_scalar_path(self, tmp_path, geometry, two_point):
        quadric, lam, L = self.GEOMETRIES[geometry]
        n = quadric["n"]
        points = [[[0.0, 0.0]] * n] + seeded_points(n, 6, 11)
        extra = {"point_tilde": points[3]} if two_point else {}
        path, _ = write_config(tmp_path, quadric=quadric, L=L, s=[0.3, 1.2], points=points,
                               **{"lambda": lam}, **extra)
        out = tmp_path / "eval.jsonl"
        assert main(["eval", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 * len(points)
        cfg = load_config(path)
        zs = [np.array([complex(*c) for c in p]) for p in points]
        for k, line in enumerate(lines):
            assert line == json.dumps(json.loads(line), allow_nan=False)
            record = strict_json(line)
            s, z = [0.3, 1.2][k // len(points)], zs[k % len(points)]
            assert record["s"] == s and record["point"] == points[k % len(points)]
            if two_point:
                zt = zs[3]
                want = weighted_heat_kernel(s, z, zt, cfg.quadric, cfg.spectral, cfg.L)
                assert record["point_tilde"] == points[3]
            else:
                want = complex(rho_hat(KernelQuery(s, z, cfg.spectral, cfg.L)))
                assert "point_tilde" not in record
            got = complex(*record["value"])
            assert abs(got - want) <= 1e-13 * abs(want)
            if want.imag == 0.0:
                assert math.copysign(1.0, got.imag) == math.copysign(1.0, want.imag)
            assert record["log10_abs"] == pytest.approx(math.log10(abs(want)), rel=1e-13)

    def test_eigensolver_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        path, _ = write_config(tmp_path, points=[[[0.0, 0.0]]])
        assert main(["eval", "--config", path]) == 1
        captured = capsys.readouterr()
        assert "did not converge" in captured.err and captured.out == ""


N2_CHECKS = ["mehler", "inversion", "pde_residual", "euclidean", "evenness"]


def _table_without_second_term(x, N):
    """hermite._psi_table with its recurrence cut to psi_k = sqrt(2/k) x psi_{k-1}."""
    rows = [np.pi ** -0.25 * np.exp(-0.5 * x * x)]
    for k in range(1, N + 1):
        rows.append(np.sqrt(2.0 / k) * x * rows[-1])
    return np.array(rows)


class TestVerifyEveryGeometry:
    @pytest.mark.parametrize("quadric,lam,L,checks", [
        (HEIS, [1.0], [1], ["mehler", "inversion", "pde_residual", "semigroup", "euclidean", "evenness"]),
        (rotated_form_json([1.0, 0.0], 3), [1.0], [1], N2_CHECKS),
        (FULL_RANK_N2, [1.0, 1.0], [1, 2], N2_CHECKS + ["semigroup"]),
        (rotated_form_json([1.0, -0.5, 0.75], 5), [1.0], [2], N2_CHECKS),
        (rotated_form_json([1.0, 0.0, 0.0], 7), [1.0], [1], N2_CHECKS),
    ], ids=["heisenberg_n1", "rank1_n2", "full_rank_n2", "n3", "rank1_n3"])
    def test_all_applicable_checks_pass(self, tmp_path, capsys, quadric, lam, L, checks):
        path, _ = write_config(tmp_path, quadric=quadric, L=L, checks=checks, **{"lambda": lam})
        assert main(["verify", "--config", path]) == 0
        report = strict_json(capsys.readouterr().out)
        assert [c["name"] for c in report["checks"]] == checks
        assert report["all_pass"] and all(c["error"] <= c["tolerance"] for c in report["checks"])
        # runtime_s has microsecond resolution, so even the one-call checks read above 0
        assert all(c["runtime_s"] > 0.0 for c in report["checks"])

    @pytest.mark.parametrize("quadric,lam,L", [(FULL_RANK_N2, [1.0, 1.0], [1, 2]),
                                               (rotated_form_json([1.0, 0.0], 3), [1.0], [1])],
                             ids=["full_rank_n2", "rank1_n2"])
    def test_default_checks_pass_at_n2(self, tmp_path, capsys, quadric, lam, L):
        # no "checks" field: every default check runs at n = 2, and none refuses
        path, _ = write_config(tmp_path, quadric=quadric, L=L, **{"lambda": lam})
        assert main(["verify", "--config", path]) == 0
        report = strict_json(capsys.readouterr().out)
        assert [c["name"] for c in report["checks"]] == list(cli.DEFAULT_TOLERANCES)
        assert report["all_pass"] and all(c["error"] is not None for c in report["checks"])

    @pytest.mark.parametrize("quadric,lam,L", [(HEIS, [1.0], [1]), (FULL_RANK_N2, [1.0, 1.0], [1, 2])],
                             ids=["heisenberg_n1", "full_rank_n2"])
    def test_semigroup_on_its_sized_grid(self, tmp_path, capsys, quadric, lam, L):
        # The grid is sized for a 1e-12 aliasing and tail bound; a corrupted phase fails.
        for phase_sign, rc in ((-1.0, 0), (1.0, 1)):
            path, _ = write_config(tmp_path, quadric=quadric, L=L, checks=["semigroup"],
                                   debug={"phase_sign": phase_sign}, **{"lambda": lam})
            assert main(["verify", "--config", path]) == rc
            error = strict_json(capsys.readouterr().out)["checks"][0]["error"]
            assert error <= 1e-12 if phase_sign < 0 else error >= 1e-2

    @pytest.mark.parametrize("fault", [False, True], ids=["unfaulted", "y_phase_flipped"])
    @pytest.mark.parametrize("quadric,lam,L", [(HEIS, [1.0], [1]), (FULL_RANK_N2, [1.0, 1.0], [1, 2])],
                             ids=["heisenberg_n1", "full_rank_n2"])
    def test_default_verify_fails_a_flipped_y_axis_phase(self, tmp_path, capsys, monkeypatch,
                                                         quadric, lam, L, fault):
        # heat_apply's y-axis phase vectors alone conjugated, exp(-2i mu y Re c): semigroup
        # fails it, and no other default check does.
        if fault:
            vectors = boxop._axis_vectors

            def flipped(*args):
                g, vecs = vectors(*args)
                return g, [np.conj(v) if k % 2 else v for k, v in enumerate(vecs)]

            monkeypatch.setattr(boxop, "_axis_vectors", flipped)
        path, _ = write_config(tmp_path, quadric=quadric, L=L, **{"lambda": lam})
        rc = main(["verify", "--config", path])
        checks = {c["name"]: c for c in strict_json(capsys.readouterr().out)["checks"]}
        failed = [name for name, c in checks.items() if c["error"] is not None and not c["pass"]]
        if fault:
            assert rc == 1 and failed == ["semigroup"] and checks["semigroup"]["error"] >= 1e-2
        else:
            assert failed == [] and checks["semigroup"]["error"] <= 1e-12

    def test_semigroup_refuses_n3_naming_the_cause(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, quadric=rotated_form_json([1.0, -0.5, 0.75], 5), L=[2],
                               checks=["semigroup"])
        with pytest.raises(NumericsError, match=r"n <= 2.*P\^6 nodes"):
            cli._check_semigroup(load_config(path), 1e-5)
        assert main(["verify", "--config", path]) == 1
        entry = strict_json(capsys.readouterr().out)["checks"][0]
        assert entry["error"] is None and "n <= 2" in entry["message"]

    @pytest.mark.parametrize("check,fault", [
        # a small odd term: the value at -z is no longer the value at z
        ("evenness", lambda s, c, S, L: kernel.rho_hat_adapted(s, c, S, L) * (1.0 + 1e-6 * c[..., 0].real)),
        # kernel-block directions decaying at rate 1/(2s), not 1/s
        ("euclidean", lambda s, c, S, L: kernel.rho_hat_adapted(s, c, S, L)
         * np.exp(0.5 * np.sum(np.abs(c[..., S.nu:]) ** 2, axis=-1) / s)),
    ])
    @pytest.mark.parametrize("quadric,lam,L", [(HEIS, [1.0], [1]), (FULL_RANK_N2, [1.0, 1.0], [1, 2])],
                             ids=["heisenberg_n1", "full_rank_n2"])
    def test_batched_referee_fails_a_faulty_kernel(self, tmp_path, capsys, monkeypatch, check, fault,
                                                   quadric, lam, L):
        monkeypatch.setattr(cli, "rho_hat_adapted", fault)
        path, _ = write_config(tmp_path, quadric=quadric, L=L, checks=[check], **{"lambda": lam})
        assert main(["verify", "--config", path]) == 1
        entry = strict_json(capsys.readouterr().out)["checks"][0]
        assert entry["error"] > 100.0 * entry["tolerance"]

    @pytest.mark.parametrize("name,fault", [
        # the closed form without its (1 - w^2)^{-1/2} prefactor; u_tilde_closed reaches it
        # through _product's global lookup, not through mehler_factor's default argument
        ("mehler_closed", lambda w, x, y: np.pi ** -0.5 * np.exp(
            -0.5 * ((1 + w * w) / (1 - w * w)) * (x * x + y * y) + 2 * w * x * y / (1 - w * w))),
        ("_psi_table", _table_without_second_term),
    ], ids=["closed_without_prefactor", "table_without_second_term"])
    @pytest.mark.parametrize("quadric,lam,L", [(HEIS, [1.0], [1]), (FULL_RANK_N2, [1.0, 1.0], [1, 2])],
                             ids=["heisenberg_n1", "full_rank_n2"])
    def test_mehler_fails_a_faulty_hermite_side(self, tmp_path, capsys, monkeypatch, name, fault,
                                                quadric, lam, L):
        monkeypatch.setattr(hermite, name, fault)
        path, _ = write_config(tmp_path, quadric=quadric, L=L, checks=["mehler"], **{"lambda": lam})
        assert main(["verify", "--config", path]) == 1
        entry = strict_json(capsys.readouterr().out)["checks"][0]
        assert entry["tolerance"] == 1e-9 and entry["error"] >= 1e-3

    def test_messages_report_error_budgets(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, quadric=FULL_RANK_N2, L=[1, 2], checks=["mehler", "inversion"],
                               **{"lambda": [1.0, 1.0]})
        assert main(["verify", "--config", path]) == 0
        mehler, inversion = strict_json(capsys.readouterr().out)["checks"]
        # mu = (1, -0.5): the 1e-12 tail needs ceil(27.63 / (2 s 0.5)) terms, and
        # each time's series sums cli.SERIES_MARGIN more
        assert f"{277 + cli.SERIES_MARGIN} terms at s=0.1" in mehler["message"]
        assert "277 at s=0.1" in mehler["message"]
        for s in ("s=0.3", "s=0.7"):
            part = inversion["message"].split(s + ": ")[1].split(";")[0]
            tails = part.split("tails ")[1].split(", budget")[0].split(", ")
            assert len(tails) == 2 and all(0.0 < float(t) < 1e-6 for t in tails)
            assert 0.0 < float(part.split("budget ")[1]) <= inversion["tolerance"]

    @pytest.mark.parametrize("lam", [0.1, 0.2])
    def test_mehler_passes_at_small_mu(self, tmp_path, capsys, lam):
        # A 1e-12 tail needs 1382 and 691 terms at s = 0.1; a fixed 300 failed
        # the unchanged 1e-9 tolerance with 5.1e-6 and 1.2e-8.
        path, _ = write_config(tmp_path, checks=["mehler"], **{"lambda": [lam]})
        assert main(["verify", "--config", path]) == 0
        entry = strict_json(capsys.readouterr().out)["checks"][0]
        assert entry["pass"] and entry["tolerance"] == 1e-9

    def test_inversion_computes_each_budget_once(self, tmp_path, capsys, monkeypatch):
        budget, times = kernel.inversion_budget, []
        monkeypatch.setattr(kernel, "inversion_budget",
                            lambda s, *a, **k: times.append(s) or budget(s, *a, **k))
        path, _ = write_config(tmp_path, checks=["inversion"])
        assert main(["verify", "--config", path]) == 0
        assert times == [0.3, 0.7]

    def test_mehler_at_small_mu_fails_with_300_terms(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "default_series_terms", lambda s, mu: 300)
        path, _ = write_config(tmp_path, checks=["mehler"], **{"lambda": [0.1]})
        assert main(["verify", "--config", path]) == 1
        entry = strict_json(capsys.readouterr().out)["checks"][0]
        assert not entry["pass"] and entry["error"] > entry["tolerance"]

    def test_mehler_refuses_a_series_over_the_order_guard(self, tmp_path, capsys):
        # lambda = 1e-4 would need about 1.4e6 terms at s = 0.1
        path, _ = write_config(tmp_path, checks=["mehler"], **{"lambda": [1e-4]})
        assert main(["verify", "--config", path]) == 1
        entry = strict_json(capsys.readouterr().out)["checks"][0]
        assert entry["error"] is None and entry["runtime_s"] < 1.0
        needed = hermite.default_series_terms(0.1, [1e-4]) + cli.SERIES_MARGIN
        assert f"{needed} terms at s=0.1" in entry["message"]
        assert "|mu| 0.0001" in entry["message"] and str(hermite.PSI_MAX_ORDER) in entry["message"]


class TestVerifyInversion:
    @pytest.mark.parametrize("tol", [pytest.param(t, id=f"{t}-tolerances") for t in [1e-6, 1.0, 1e3, 1e6]])
    def test_any_tolerance_passes(self, tmp_path, capsys, tol):
        # 1e3 used to size a box of half-width 0 and larger values a NaN one
        path, _ = write_config(tmp_path, checks=["inversion"], tolerances={"inversion": tol})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--config", path]) == 0
        entry = strict_json(capsys.readouterr().out)["checks"][0]
        assert entry["pass"] and entry["tolerance"] == tol and entry["error"] <= 1e-9

    def test_message_names_nodes_and_aliasing(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, quadric=FULL_RANK_N2, L=[1, 2], checks=["inversion"],
                               **{"lambda": [1.0, 1.0]})
        assert main(["verify", "--config", path]) == 0
        message = strict_json(capsys.readouterr().out)["checks"][0]["message"]
        for s in ("s=0.3", "s=0.7"):
            part = message.split(s + ": ")[1].split(";")[0]
            nodes = part.split("nodes ")[1].split(", aliasing ")[0].split(", ")
            aliasing = part.split("aliasing ")[1].split(", tails ")[0].split(", ")
            tails = part.split("tails ")[1].split(", budget")[0].split(", ")
            assert [len(set(q.split("x"))) for q in nodes] == [1, 1]
            assert all(8 <= int(q.split("x")[0]) <= 64 for q in nodes)
            assert len(aliasing) == 2 and all(0.0 < float(a) < float(t) for a, t in zip(aliasing, tails))


class TestVerifyFailures:
    def test_check_that_cannot_run_is_a_failed_entry(self, tmp_path, capsys, monkeypatch):
        def over_budget(cfg, tol):
            raise ValueError("512^4 nodes exceeds the budget")

        monkeypatch.setitem(cli.CHECK_FUNCTIONS, "inversion", over_budget)
        path, _ = write_config(tmp_path, checks=["euclidean", "inversion", "evenness"])
        assert main(["verify", "--config", path]) == 1
        report = strict_json(capsys.readouterr().out)
        euclidean, inversion, evenness = report["checks"]
        assert inversion["pass"] is False and inversion["error"] is None
        assert "exceeds the budget" in inversion["message"]
        assert euclidean["pass"] and evenness["pass"] and report["all_pass"] is False

    def test_non_finite_error_is_a_failed_entry(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli.CHECK_FUNCTIONS, "euclidean", lambda cfg, tol: (NAN, ""))
        path, _ = write_config(tmp_path, checks=["euclidean"])
        assert main(["verify", "--config", path]) == 1
        entry = strict_json(capsys.readouterr().out)["checks"][0]
        assert entry["pass"] is False and entry["error"] is None and "not finite" in entry["message"]

    def test_config_tolerance_must_be_positive_finite(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, checks=["euclidean"], tolerances={"euclidean": -1.0})
        assert main(["verify", "--config", path]) == 2
        captured = capsys.readouterr()
        assert "tolerances" in captured.err and captured.out == ""

    @pytest.mark.parametrize("tol", [NAN, INF, 0, -1])
    def test_bad_tolerance_writes_no_report(self, tmp_path, capsys, tol):
        path, _ = write_config(tmp_path, checks=["mehler", "euclidean"], tolerances={"euclidean": tol})
        out = tmp_path / "report.json"
        assert main(["verify", "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "'tolerances'" in captured.err and captured.out == "" and not out.exists()


    def test_unknown_tolerance_key_rejected(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, checks=["euclidean"], tolerances={"euclidian": 1e-3})
        assert main(["verify", "--config", path]) == 2
        captured = capsys.readouterr()
        assert "config field 'tolerances'" in captured.err and "euclidian" in captured.err
        assert captured.out == ""

    def test_every_check_has_a_default_tolerance(self):
        assert list(cli.CHECK_FUNCTIONS) == list(cli.DEFAULT_TOLERANCES)

    @pytest.mark.parametrize("field,value", [
        ("checks", 5),
        ("checks", [["euclidean"]]),
        ("tolerances", 5),
        ("tolerances", {"euclidean": [1]}),
    ], ids=["checks_number", "checks_nested_list", "tolerances_number", "tolerance_list"])
    def test_ill_typed_check_config_names_its_field(self, tmp_path, capsys, field, value):
        path, _ = write_config(tmp_path, **{"checks": ["euclidean"], field: value})
        assert main(["verify", "--config", path]) == 2
        captured = capsys.readouterr()
        assert f"config field '{field}'" in captured.err and captured.out == ""


class TestGridShape:
    @pytest.mark.parametrize("grid,field,message", [
        ([2.0, 2.0], "grid", "expected an object, got [2.0, 2.0]"),  # said grid.points ... got None
        ({"points": 9}, "grid.half_widths", "missing"),  # said the KeyError's repr
    ], ids=["list", "no_half_widths"])
    @pytest.mark.parametrize("command", ["scan", "evolve"])
    def test_malformed_grid_names_its_field(self, tmp_path, capsys, command, grid, field, message):
        path, _ = write_config(tmp_path, s=0.5, grid=grid, initial="exp(-(x1^2+y1^2))",
                               out_points=[[[0.0, 0.0]]])
        out = tmp_path / "out.csv"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config field '{field}': {message}\n"
        assert not out.exists()


class TestGridPoints:
    @pytest.mark.parametrize("points", [9.7, True, "9", None])
    def test_non_integer_points_rejected(self, tmp_path, capsys, points):
        path, _ = write_config(tmp_path, s=0.5, grid={"half_widths": [1.0, 1.0], "points": points})
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", path, "--out", str(out)]) == 2
        assert "config field 'grid.points'" in capsys.readouterr().err and not out.exists()

    def test_integral_float_reads_as_integer(self, tmp_path):
        path, _ = write_config(tmp_path, s=0.5, grid={"half_widths": [1.0, 1.0], "points": 9.0})
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", path, "--out", str(out)]) == 0
        assert len(data_rows(out)) == 81


def _diag_n2(mu):
    return {"n": 2, "m": 1, "A": [[[mu[0], 0.0], [0.0, 0.0], [0.0, 0.0], [mu[1], 0.0]]]}


class TestPdeResidualCheck:
    """The check Richardson-extrapolates the stencil on a grid pair, at 1e-5."""

    # Every geometry here failed the second-order check on 2001^2 or 49^4 nodes
    # (3.9e-5 to 2.1e-4), though each kernel is correct.
    @pytest.mark.parametrize("quadric,lam,L", [
        (HEIS, [2.0], [1]), (HEIS, [3.0], [1]),
        (_diag_n2([2.0, 1.0]), [1.0], [1, 2]), (_diag_n2([2.0, -2.0]), [1.0], [1]),
        (_diag_n2([3.0, 0.5]), [1.0], [1]), (_diag_n2([3.0, 0.5]), [1.0], [1, 2]),
        (FULL_RANK_N2, [1.0, 1.0], [1]),
    ], ids=["heisenberg_lambda2", "heisenberg_lambda3", "mu2,1_L12", "mu2,-2_L1", "mu3,0.5_L1",
            "mu3,0.5_L12", "full_rank_n2_L1"])
    def test_passes_where_the_second_order_check_failed(self, tmp_path, capsys, quadric, lam, L):
        path, _ = write_config(tmp_path, quadric=quadric, L=L, checks=["pde_residual"], **{"lambda": lam})
        assert main(["verify", "--config", path]) == 0
        entry = strict_json(capsys.readouterr().out)["checks"][0]
        assert entry["error"] <= entry["tolerance"] == 1e-5
        # the message names the grid pair, hs and the second-order floor the extrapolation removes
        n = quadric["n"]
        points = {1: 401, 2: 25}[n]
        assert f"{points}^{2 * n} and {(points + 1) // 2}^{2 * n} nodes, hs=0.0001" in entry["message"]
        assert float(entry["message"].split("floor ")[1]) > 100.0 * entry["error"]
        assert len(entry["message"]) <= 120

    @pytest.mark.parametrize("quadric,lam,L,wrong", [
        (HEIS, [1.0], [1], []),
        (FULL_RANK_N2, [1.0, 1.0], [1, 2], [1]),
        (rotated_form_json([1.0, 0.0, 0.0], 7), [1.0], [1], []),
        (rotated_form_json([1.0, -0.5, 0.75], 5), [1.0], [2], []),
    ], ids=["heisenberg_n1", "full_rank_n2", "rank1_n3", "n3"])
    def test_fails_a_wrong_index_kernel(self, tmp_path, capsys, monkeypatch, quadric, lam, L, wrong):
        # the kernel takes the index set ``wrong`` while the stencil keeps L
        monkeypatch.setattr(boxop, "_log_rho_parts",
                            lambda t, S, _: kernel._log_rho_parts(t, S, FormIndex(wrong)))
        path, _ = write_config(tmp_path, quadric=quadric, L=L, checks=["pde_residual"], **{"lambda": lam})
        assert main(["verify", "--config", path]) == 1
        assert strict_json(capsys.readouterr().out)["checks"][0]["error"] >= 1e-2

    def test_refuses_n4_naming_the_node_budget(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, quadric=rotated_form_json([1.0, -0.5, 0.75, 0.6], 5), L=[2],
                               checks=["pde_residual"])
        with pytest.raises(NumericsError, match=r"n <= 3.*15\^8-node grid exceeds the node budget"):
            cli._check_pde_residual(load_config(path), 1e-5)
        assert main(["verify", "--config", path]) == 1
        entry = strict_json(capsys.readouterr().out)["checks"][0]
        assert entry["error"] is None and "node budget" in entry["message"]


def _evolve_fields(**overrides):
    cfg = {"initial": "exp(-(x1^2+y1^2))", "out_points": [[[0.0, 0.0]]],
           "grid": {"half_widths": [3.0, 3.0], "points": 21}}
    cfg.update(overrides)
    return cfg


class TestIllShapedFields:
    """Config values of the wrong JSON shape exit 2 naming their field, not with a traceback."""

    @pytest.mark.parametrize("command,fields,name", [
        ("eval", {"points": 5}, "config field 'points'"),
        ("evolve", _evolve_fields(out_points=5), "config field 'out_points'"),
        ("verify", {"checks": ["euclidean"], "debug": 5}, "config field 'debug'"),
        ("verify", {"checks": ["semigroup"], "debug": {"phase_sign": "x"}},
         "config field 'debug.phase_sign'"),
        ("evolve", _evolve_fields(initial=5), "config field 'initial'"),
        ("eval", None, "config must be a JSON object"),
    ], ids=["eval_points", "evolve_out_points", "debug", "debug_phase_sign", "initial",
            "top_level_list"])
    def test_names_its_field(self, tmp_path, capsys, command, fields, name):
        path, cfg = write_config(tmp_path, **(fields or {}))
        if fields is None:  # the whole config as a JSON list
            (tmp_path / "cfg.json").write_text(json.dumps([cfg]))
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("expr", [
        "(" * 200 + "x1" + ")" * 200,    # refused before Python's parser runs
        "-" * 1000 + "x1",               # refused in the parse tree
        "+".join(["x1"] * 1500),         # refused in the parse tree
    ], ids=["parentheses", "unary_minus", "long_sum"])
    def test_deep_initial_expression_names_initial(self, tmp_path, capsys, expr):
        # nested deeper than cli.MAX_NESTING
        path, _ = write_config(tmp_path, **_evolve_fields(initial=expr))
        out = tmp_path / "evo.csv"
        assert main(["evolve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config field 'initial'" in err and "too deeply" in err and not out.exists()


# The config fuzz starts from a valid config at n = 1 or 2 and replaces or omits up to
# two of the command's fields; each field's replacements are valid values, wrong types
# and shapes, and values out of range.
_RANK1_N2 = {"n": 2, "m": 1, "A": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}
_FUZZ_BASE = {n: {"quadric": HEIS if n == 1 else _RANK1_N2, "lambda": [1.0], "L": [1], "s": 0.6,
                  "points": [[[0.1, 0.2]] * n], "grid": {"half_widths": [5.0] * (2 * n), "points": 31 - 10 * n},
                  "initial": "exp(-(x1^2+y1^2))", "out_points": [[[0.1, 0.0]] * n],
                  "checks": ["mehler", "inversion", "euclidean", "evenness"]} for n in (1, 2)}
_OMIT = object()
_FUZZ_FIELDS = {
    "quadric": [HEIS, _RANK1_N2, FULL_RANK_N2, "no_such_form.json", {"n": 1}, 3],
    "lambda": [[1.0], [1.0, 1.0], [0.0], [float("nan")], ["a"], 1.0],
    "L": [[1], [], [1, 2], [1, 1], [2, 1], [1.5], ["1"], [True], 5, [3]],
    "s": [1.0, [0.3, 0.7], 0.0, -1.0, "x", [], 1e-300, [1e300]],
    "points": [[[[0.1, 0.2]]], [[[0.1, 0.2], [0.0, -0.3]]], [], [[[0.1]]], "x", [[[1e300, 0.0]]]],
    "point_tilde": [[[0.0, 0.1]], [[0.0, 0.1], [0.2, 0.0]], [1], None],
    "grid": [{"half_widths": [3.0, 3.0], "points": 9}, {"half_widths": [2.0] * 4, "points": 9},
             {"points": 9}, {"half_widths": [1.0, 1.0], "points": 8.5},
             {"half_widths": [1e300, 1.0], "points": 9}, {"half_widths": [1.0, 1.0], "points": 10**6}, "grid",
             {"half_widths": [3.0, 3.0], "points": 9, "point": 401}],
    "initial": ["exp(-(x1^2+y1^2+x2^2+y2^2))", "x1 +", "1/x1", "exp(x1^2)", "y3", 5],
    "initial_csv": ["no_such_field.csv", 3],
    "out_points": [[[[0.1, 0.0]]], [[[0.0, 0.0], [0.1, 0.1]]], [], 3],
    "checks": [["mehler"], ["pde_residual", "semigroup"], ["nope"], "mehler", [1]],
    "tolerances": [{"mehler": 1e-30}, {"mehler": -1.0}, {"nope": 1.0}, {"mehler": "a"}, []],
    "debug": [{"phase_sign": 1.0}, {"phase_sign": "x"}, 3, {"phase_sgn": 1.0}],
}
_FUZZ_COMMANDS = {
    "eval": ["quadric", "lambda", "L", "s", "points", "point_tilde"],
    "scan": ["quadric", "lambda", "L", "s", "grid"],
    "verify": ["quadric", "lambda", "L", "checks", "tolerances", "debug"],
    "evolve": ["quadric", "lambda", "L", "s", "grid", "initial", "initial_csv", "out_points"],
}


@st.composite
def _fuzzed_jobs(draw):
    """A command, its config and whether the output goes to a file (eval and verify may
    write to stdout)."""
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    fields = _FUZZ_COMMANDS[command]
    cfg = {k: v for k, v in _FUZZ_BASE[draw(st.sampled_from([1, 2]))].items() if k in fields}
    for name in draw(st.lists(st.sampled_from(fields), max_size=2)):
        value = draw(st.sampled_from([_OMIT] + _FUZZ_FIELDS[name]))
        if value is _OMIT:
            cfg.pop(name, None)
        else:
            cfg[name] = value
    return command, cfg, command in ("scan", "evolve") or draw(st.booleans())


def _assert_strict_output(command: str, text: str) -> None:
    """eval: JSON lines; verify: one JSON document; scan, evolve: CSV whose rows after the
    comment lines and header each have the header's number of cells, all finite numbers."""
    if command == "eval":
        for line in text.splitlines():
            strict_json(line)
    elif command == "verify":
        strict_json(text)
    else:
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        width = len(lines[0].split(","))
        for row in lines[1:]:
            cells = [float(c) for c in row.split(",")]
            assert len(cells) == width and all(math.isfinite(c) for c in cells), row


class TestConfigFuzz:
    """Every command on fuzzed configs: exit 0, 1 or 2; no traceback; output strict JSON or
    CSV; exit 2 leaves no output file; no temporary file is left."""

    @settings(max_examples=200, deadline=None)
    @given(job=_fuzzed_jobs())
    # rank-1 n = 2 evolve at s = 1e-300 once wrote nan with exit 0: the kernel peak overflowed
    @example(job=("evolve", {**{k: v for k, v in _FUZZ_BASE[2].items() if k in _FUZZ_COMMANDS["evolve"]},
                             "s": 1e-300}, True))
    def test_every_command_has_one_of_three_outcomes(self, job):
        command, cfg, to_file = job
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    np.errstate(all="ignore"):
                rc = main([command, "--config", path] + (["--out", out] if to_file else []))
            assert rc in (0, 1, 2)
            assert "Traceback" not in stderr.getvalue()
            assert sorted(os.listdir(tmp)) in (["cfg.json"], ["cfg.json", "out"])
            written = Path(out).read_text(encoding="utf-8") if os.path.exists(out) else stdout.getvalue()
            if rc == 2:
                assert not os.path.exists(out) and stdout.getvalue() == ""
            elif written:
                _assert_strict_output(command, written)


class TestRankCut:
    """The rank cut changes the mu metadata of a rank-deficient form and no other byte."""

    CFG = {"quadric": rotated_form_json([1.0, 0.0], 7), "lambda": [1.0], "L": [1], "s": [0.3, 1.1],
           "points": [[[0.2, -0.1], [0.4, 0.3]], [[0.0, 0.0], [0.0, 0.0]], [[2.5, -1.0], [-1.5, 0.5]]]}
    # sha256 of the outputs without their "mu" field and "# mu=" line, as written when mu kept
    # eigh's rounding residue 8.326672684688674e-17 in place of the 0.0 of the rank cut
    DIGESTS = {"eval": "ef7dd7e3fbf127d7837d248f5d1a319d69b190148f508ce2432a0dc70598fa23",
               "eval_tilde": "250fd0f8493de980afeb789058aaf7f67c627beecd278b78a648aa36dca0c262",
               "scan": "fbdc8ad85c5b1cd421533c80bd39dc501c4d46b7b3f127877d72784e0e8ce9fe"}

    @pytest.mark.parametrize("job", ["eval", "eval_tilde", "scan"])
    def test_outputs_differ_from_the_uncut_only_in_mu(self, tmp_path, job):
        extra = {"eval": {}, "eval_tilde": {"point_tilde": [[0.1, -0.3], [0.0, 0.2]]},
                 "scan": {"s": 0.6, "grid": {"half_widths": [2.0] * 4, "points": 9}}}[job]
        path, _ = write_config(tmp_path, **{**self.CFG, **extra})
        out = tmp_path / "out"
        assert main([job.split("_")[0], "--config", path, "--out", str(out)]) == 0
        text = out.read_text()
        assert ('"mu": [1.0, 0.0], ' in text) if job != "scan" else ("# mu=[1.0, 0.0]\n" in text)
        text = "".join(line for line in re.sub(r'"mu": \[[^\]]*\], ', "", text).splitlines(True)
                       if not line.startswith("# mu="))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[job]
