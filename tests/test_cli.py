"""Command-line interface: formats, exit codes, determinism."""

import csv
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hartogs import cli, coeffspace, kernels, projections, quadrature
from hartogs.cli import main
from hartogs.geometry import HartogsPoint
from hartogs.specfun import VerificationFailure


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCriticalRangeCommand:
    def test_flat_case(self, capsys):
        code, out, _ = run_cli(capsys, "critical-range", "--nu", "0")
        assert code == 0
        assert out == "1.333333333333 4.000000000000\n"

    def test_nu_two(self, capsys):
        code, out, _ = run_cli(capsys, "critical-range", "--nu", "2")
        assert code == 0
        assert out == "1.500000000000 3.000000000000\n"

    def test_out_of_regime(self, capsys):
        code, _, err = run_cli(capsys, "critical-range", "--nu", "-1.5")
        assert code == 2 and "nu > -1" in err


# a kernel row's fields formatted one str.format call per row
_FORMAT_FIELDS = ",".join(["{:.12g}{:+.12g}j"] * 4 + ["{:.12g}", "{:.12g}"])
# any float, with signed zeros, subnormals, the ends of the double range,
# values of 17 significant digits and the non-finite values drawn often
_CSV_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1e-300, -1e-300, math.inf, -math.inf, math.nan]),
    st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(-(10**17) + 1, 10**17 - 1), st.integers(-340, 290)),
)


class TestKernelCommand:
    def test_single_pair_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--nu", "0",
            "--z1", "0,0", "--z2", "0.5,0", "--w1", "0,0", "--w2", "0.5,0",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "nu,z1,z2,w1,w2,re,im"
        fields = row.split(",")
        assert float(fields[5]) == pytest.approx(1.0 / 0.28125, rel=1e-10)

    def test_pair_file(self, capsys, tmp_path):
        pairs = [
            {"z": {"z1": [0.1, 0.0], "z2": [0.5, 0.0]}, "w": {"z1": [0.0, 0.0], "z2": [0.4, 0.0]}}
        ]
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs))
        code, out, _ = run_cli(capsys, "kernel", "--nu", "-1", "--in", str(path))
        assert code == 0 and len(out.strip().split("\n")) == 2

    @staticmethod
    def _write_pairs(tmp_path, pairs):
        path = tmp_path / "pairs.json"
        records = [{"z": {"z1": z1, "z2": z2}, "w": {"z1": w1, "z2": w2}} for z1, z2, w1, w2 in pairs]
        path.write_text(json.dumps(records))
        return str(path)

    def test_out_of_triangle_pair_names_its_index(self, capsys, tmp_path):
        good = ([0.1, 0.0], [0.5, 0.0], [0.0, 0.2], [0.4, -0.1])
        bad = ([0.5, 0.0], [0.5, 0.0], [0.0, 0.2], [0.4, -0.1])
        path = self._write_pairs(tmp_path, [good, good, bad, good])
        code, out, err = run_cli(capsys, "kernel", "--nu", "0.7", "--in", path)
        assert code == 2 and out == ""
        assert "entry 2" in err and "Hartogs" in err

    def test_record_missing_z1_is_an_io_error(self, capsys, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([{"z": {"z2": [0.5, 0.0]}, "w": {"z1": [0.0, 0.0], "z2": [0.4, 0.0]}}]))
        code, out, err = run_cli(capsys, "kernel", "--nu", "0.7", "--in", str(path))
        assert code == 1 and out == "" and "z1" in err

    def test_malformed_coordinate_is_a_validation_error(self, capsys, tmp_path):
        path = self._write_pairs(tmp_path, [([0.1], [0.5, 0.0], [0.0, 0.2], [0.4, -0.1])])
        code, out, err = run_cli(capsys, "kernel", "--nu", "0.7", "--in", path)
        assert code == 2 and out == "" and "[re, im]" in err

    def test_coordinates_of_three_and_one_numbers_are_a_validation_error(self, capsys, tmp_path):
        """Eight numbers, as a valid record holds, but not as four [re, im] pairs."""
        good = ([0.1, 0.0], [0.5, 0.0], [0.0, 0.2], [0.4, -0.1])
        path = self._write_pairs(tmp_path, [good, ([0.1, 0.0, 0.5], [0.0], [0.0, 0.2], [0.4, -0.1])])
        code, out, err = run_cli(capsys, "kernel", "--nu", "0.7", "--in", path)
        assert code == 2 and out == "" and "[re, im]" in err

    def test_bare_number_coordinate_is_a_validation_error(self, capsys, tmp_path):
        path = self._write_pairs(tmp_path, [(0.1, [0.5, 0.0], [0.0, 0.2], [0.4, -0.1])])
        code, out, err = run_cli(capsys, "kernel", "--nu", "0.7", "--in", path)
        assert code == 2 and out == "" and "[re, im]" in err

    @pytest.mark.parametrize("nu", ["-2", "-1.5", "-1", "0.7", "3.5"])
    def test_flags_and_one_pair_file_give_the_same_row(self, capsys, tmp_path, nu):
        path = self._write_pairs(tmp_path, [([0.1, 0.05], [0.5, -0.2], [-0.0, 0.2], [0.4, -0.1])])
        code_in, out_in, _ = run_cli(capsys, "kernel", "--nu", nu, "--in", path)
        code, out, _ = run_cli(
            capsys, "kernel", "--nu", nu,
            "--z1", "0.1,0.05", "--z2", "0.5,-0.2", "--w1=-0.0,0.2", "--w2", "0.4,-0.1",
        )
        assert code == code_in == 0 and out == out_in
        assert out.split("\n")[1].split(",")[3] == "-0+0.2j"

    def test_shared_parser_serves_successive_commands(self, capsys):
        # the parser is built once per process; each call still gets its own arguments
        code, out, _ = run_cli(capsys, "critical-range", "--nu", "0")
        assert code == 0 and out == "1.333333333333 4.000000000000\n"
        code, out, _ = run_cli(
            capsys, "kernel", "--nu", "-1",
            "--z1", "0,0", "--z2", "0.5,0", "--w1", "0,0", "--w2", "0.5,0",
        )
        assert code == 0 and out.split("\n")[1].startswith("-1,0+0j,0.5+0j,0+0j,0.5+0j,5.33333333333,")
        code, out, _ = run_cli(capsys, "critical-range", "--nu", "2")
        assert code == 0 and out == "1.500000000000 3.000000000000\n"

    def test_invalid_point(self, capsys):
        code, _, err = run_cli(
            capsys, "kernel", "--nu", "0",
            "--z1", "0.5,0", "--z2", "0.5,0", "--w1", "0,0", "--w2", "0.5,0",
        )
        assert code == 2 and "Hartogs" in err

    @pytest.mark.parametrize("nu", ["-1.3333333333333333", "-1.333333333333"])
    def test_degenerate_four_thirds(self, capsys, nu):
        code, out, err = run_cli(
            capsys, "kernel", f"--nu={nu}",
            "--z1", "0.1,0.2", "--z2", "0.5,0.1", "--w1", "0.05,-0.1", "--w2", "0.6,-0.2",
        )
        assert code == 2 and "-4/3" in err and out == ""

    def test_weighted_dirichlet_near_the_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--nu", "-1.5",
            "--z1", "0", "--z2", "0.99995", "--w1", "0", "--w2", "0.99995",
        )
        assert code == 0
        re = float(out.strip().split("\n")[1].split(",")[5])
        assert re == pytest.approx(129.60767, rel=1e-7)

    def test_empty_batch_prints_only_the_header(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "kernel", "--nu", "0.7", "--in", self._write_pairs(tmp_path, []))
        assert (code, out) == (0, "nu,z1,z2,w1,w2,re,im\n")

    @pytest.mark.parametrize("nu", ["-2", "-1.5", "-1", "-0.5", "0", "2"])
    def test_batch_rows_are_the_per_row_format(self, capsys, tmp_path, nu):
        """The whole-batch template prints the bytes of one str.format call
        per row, over 500 seeded pairs (signed zeros among them)."""
        rng = np.random.default_rng(22)
        z2, w2 = (rng.uniform(0.05, 0.999, 500) * np.exp(2j * np.pi * rng.uniform(size=500)) for _ in range(2))
        z1, w1 = (v * rng.uniform(0.0, 0.95, 500) * np.exp(2j * np.pi * rng.uniform(size=500)) for v in (z2, w2))
        pts = np.stack([z1, z2, w1, w2], axis=1)
        pts[::7, 0] = -0.0
        pts[3::11, 2] = complex(0.0, -0.0)
        path = self._write_pairs(tmp_path, [[[v.real, v.imag] for v in row] for row in pts.tolist()])
        code, out, _ = run_cli(capsys, "kernel", "--nu", nu, "--in", path)
        vals = kernels.kernel(float(nu), HartogsPoint(pts[:, 0], pts[:, 1]), HartogsPoint(pts[:, 2], pts[:, 3]))
        rows = np.column_stack([pts, vals]).view(float).tolist()
        expected = ["nu,z1,z2,w1,w2,re,im"] + [f"{float(nu):.12g}," + _FORMAT_FIELDS.format(*row) for row in rows]
        assert code == 0 and out == "\n".join(expected) + "\n"

    @given(st.lists(_CSV_FLOATS, min_size=10, max_size=10))
    def test_template_row_equals_the_format_row(self, row):
        assert cli._KERNEL_FIELDS % tuple(row) == _FORMAT_FIELDS.format(*row)

    @pytest.mark.parametrize("flag", ["--z1", "--z2", "--w1", "--w2"])
    def test_point_flag_beside_a_pair_file_exits_2(self, capsys, tmp_path, flag):
        path = self._write_pairs(tmp_path, [([0.1, 0.0], [0.5, 0.0], [0.0, 0.2], [0.4, -0.1])])
        code, out, err = run_cli(capsys, "kernel", "--nu", "0.7", "--in", path, flag, "0.1,0")
        assert (code, out) == (2, "") and "kernel --in takes no --z1 --z2 --w1 --w2" in err


class TestNormCommand:
    def test_hardy(self, capsys, tmp_path):
        f = {"terms": [{"j": 1, "k": 0, "re": 2.0, "im": 0.0}, {"j": 0, "k": -1, "re": 0.0, "im": 1.0}]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(f))
        code, out, _ = run_cli(capsys, "norm", "--space", "hardy", "--in", str(path))
        assert code == 0 and out == "hardy_norm_sq 5\n"

    def test_bergman_requires_nu(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 0, "k": 0, "re": 1.0, "im": 0.0}]}))
        code, _, err = run_cli(capsys, "norm", "--space", "bergman", "--in", str(path))
        assert code == 2 and "--nu" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "norm", "--space", "hardy", "--in", "/nonexistent.json")
        assert code == 1

    @pytest.mark.parametrize("space", ["hardy", "dirichlet", "sharp"])
    def test_nu_for_a_space_without_one_exits_2(self, capsys, tmp_path, space):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 1, "k": 0, "re": 1.0}]}))
        code, out, err = run_cli(capsys, "norm", "--space", space, "--nu", "3", "--in", str(path))
        assert (code, out, err) == (2, "", f"error: norm --space {space} takes no --nu\n")

    def test_star_rejects_non_finite_nu(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 1, "k": 0, "re": 1.0, "im": 0.0}]}))
        code, out, err = run_cli(capsys, "norm", "--space", "star", "--nu", "inf", "--in", str(path))
        assert code == 2 and out == "" and "finite nu" in err

    def test_star_rejects_nu_below_minus_two(self, capsys, tmp_path):
        # the T-split Beta integrals converge down to nu = -3, but the family ends at -2
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 1, "k": 0, "re": 1.0, "im": 0.0}]}))
        code, out, err = run_cli(capsys, "norm", "--space", "star", "--nu", "-2.5", "--in", str(path))
        assert (code, out, err) == (2, "", "error: the space family needs finite nu >= -2, got -2.5\n")

    @pytest.mark.parametrize("space", ["star", "bergman"])
    def test_a_squared_coefficient_beyond_the_double_range_exits_2(self, capsys, tmp_path, space):
        # |1e200|^2 overflows; it raised a bare OverflowError, a traceback and exit 1
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 1, "k": 0, "re": 1e200, "im": 0}]}))
        code, out, err = run_cli(capsys, "norm", "--space", space, "--nu", "0", "--in", str(path))
        assert (code, out, err) == (2, "", "error: a squared coefficient |a|^2 leaves the double range\n")

    @pytest.mark.parametrize("space", ["star", "bergman"])
    def test_a_weighted_sum_beyond_the_double_range_exits_2(self, capsys, tmp_path, space):
        # |1e154|^2 is finite but its weighted sum is not; it printed inf, the
        # sentinel of a support outside the space, and exit 0
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 0, "k": -1, "re": 1e154, "im": 0}]}))
        code, out, err = run_cli(capsys, "norm", "--space", space, "--nu", "0", "--in", str(path))
        assert (code, out, err) == (2, "", "error: a weighted sum of |a|^2 leaves the double range\n")

    def test_the_constant_at_a_huge_nu_has_norm_one(self, capsys, tmp_path):
        # ||1||^2 = u(0) R(1) = 1 exactly; the log-Gamma route refused it, its lgamma overflowing past 2.55e305
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 0, "k": 0, "re": 1.0}]}))
        code, out, err = run_cli(capsys, "norm", "--space", "bergman", "--nu", "1e306", "--in", str(path))
        assert (code, out, err) == (0, "bergman_norm_sq 1\n", "")

    def test_a_weight_beyond_the_double_range_exits_2(self, capsys, tmp_path):
        # ||z1^2||^2 = 2 / ((nu + 2)(nu + 3)) is about 2e-612 at nu = 1e306
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 2, "k": 0, "re": 1.0}]}))
        code, out, err = run_cli(capsys, "norm", "--space", "bergman", "--nu", "1e306", "--in", str(path))
        assert (code, out) == (2, "") and "double range" in err

    def test_star_norm_of_the_constant_at_a_huge_nu(self, capsys, tmp_path):
        # every split part is empty, so no r_nu is formed; (nu + 1)^2 raised OverflowError
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 0, "k": 0, "re": 1.0}]}))
        code, out, err = run_cli(capsys, "norm", "--space", "star", "--nu", "1e306", "--in", str(path))
        assert (code, out, err) == (0, "star_norm 1\n", "")

    @pytest.mark.parametrize("space", ["star", "bergman"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_non_finite_coefficient_exits_2(self, capsys, tmp_path, space, value):
        # a NaN printed star_norm nan and exit 0; bergman blamed the double range
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 0, "k": 0, "re": value, "im": 0}]}))
        code, out, err = run_cli(capsys, "norm", "--space", space, "--nu", "0", "--in", str(path))
        assert (code, out) == (2, "") and "error: coefficient {'j': 0, 'k': 0} is not finite" in err

    @pytest.mark.parametrize("nu", ["-1.3333333333333333", "-1.3333333333333"])
    def test_weighted_dirichlet_refuses_nu_minus_four_thirds(self, capsys, tmp_path, nu):
        # every weight at j + k = -1 vanishes there: z2^-1 printed 0 and 1.5e-13, exit 0
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 0, "k": -1, "re": 1.0}]}))
        code, out, err = run_cli(capsys, "norm", "--space", "weighted-dirichlet", "--nu", nu, "--in", str(path))
        assert (code, out) == (2, "") and "-4/3" in err

    @pytest.mark.parametrize("nu", ["-1", "-1.0000000000001"])
    def test_star_refuses_the_hardy_space(self, capsys, tmp_path, nu):
        # r_nu = 0 at nu = -1, so the T-split sum would read |a00| = 0 for z1 + z2^2
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 1, "k": 0, "re": 1.0}, {"j": 0, "k": 2, "re": 1.0}]}))
        code, out, err = run_cli(capsys, "norm", "--space", "star", "--nu", nu, "--in", str(path))
        assert (code, out) == (2, "") and "nu = -1" in err


class TestProjectCommand:
    def test_regime_guard(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": []}))
        code, _, err = run_cli(capsys, "project", "--nu", "-1.5", "--in", str(path))
        assert code == 2 and "nu > -1" in err

    def test_projection_output(self, capsys, tmp_path):
        f = {"terms": [{"a": 0, "b": 0, "c": 0, "d": 1, "re": 1.0, "im": 0.0}]}
        src = tmp_path / "f.json"
        dst = tmp_path / "g.json"
        src.write_text(json.dumps(f))
        code, _, _ = run_cli(capsys, "project", "--nu", "0", "--in", str(src), "--out", str(dst))
        assert code == 0
        out = json.loads(dst.read_text())
        assert out["terms"] == [{"im": 0.0, "j": 0, "k": -1, "re": pytest.approx(0.5, rel=1e-10)}]

    def test_environment_does_not_change_the_output(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"a": 1, "b": 0, "c": 0, "d": 1, "re": 1.0, "im": 0.5}]}))
        monkeypatch.delenv("HARTOGS_QUAD_ORDER", raising=False)
        unset = run_cli(capsys, "project", "--nu", "0.5", "--in", str(path))
        monkeypatch.setenv("HARTOGS_QUAD_ORDER", "abc")
        assert run_cli(capsys, "project", "--nu", "0.5", "--in", str(path)) == unset
        assert unset[0] == 0 and json.loads(unset[1])["terms"]

    @pytest.mark.parametrize("nu", [300.0, 600.0])
    def test_large_nu_passes_the_self_test(self, capsys, tmp_path, nu):
        # the self-test's radial rule grows with nu, so it stays exact; P_nu conj(z2) = lam / z2
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"a": 0, "b": 0, "c": 0, "d": 1, "re": 1.0, "im": 0.0}]}))
        code, out, err = run_cli(capsys, "project", "--nu", str(nu), "--in", str(path))
        assert (code, err) == (0, "")
        lam = (0.5 * nu + 1.0) / (1.5 * nu + 2.0)
        assert json.loads(out)["terms"] == [{"im": 0.0, "j": 0, "k": -1, "re": pytest.approx(lam, rel=1e-10)}]

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_non_finite_coefficient_exits_2(self, capsys, tmp_path, value):
        # it exited 0 and wrote the non-JSON tokens Infinity and NaN
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"a": 1, "b": 0, "c": 0, "d": 1, "re": value, "im": 0.0}]}))
        code, out, err = run_cli(capsys, "project", "--nu", "0", "--in", str(path))
        assert (code, out) == (2, "") and "is not finite" in err

    def test_nu_beyond_the_double_range(self, capsys, tmp_path):
        # C_nu overflows a double from about nu = 800
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": []}))
        code, out, err = run_cli(capsys, "project", "--nu", "1000", "--in", str(path))
        assert (code, out) == (2, "") and "leaves the double range" in err


class TestSzegoCommand:
    def test_coefficient_mode(self, capsys, tmp_path):
        f = {"terms": [{"j": 0, "k": -2, "re": 1.0, "im": 0.0}, {"j": 1, "k": 0, "re": 2.0, "im": 0.0}]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(f))
        code, out, _ = run_cli(capsys, "szego", "--in", str(path))
        assert code == 0
        result = json.loads(out)
        assert result["terms"] == [{"im": 0.0, "j": 1, "k": 0, "re": 2.0}]

    def test_grid_mode(self, capsys, tmp_path):
        n = 8
        theta = 2 * np.pi * np.arange(n) / n
        grid = np.exp(-2j * theta)[None, :] * np.ones((n, 1))  # mode (0, -2): projected away
        data = {"n": n, "values": [[v.real, v.imag] for v in grid.ravel()]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "szego", "--grid", str(n), "--in", str(path))
        assert code == 0
        result = json.loads(out)
        assert max(abs(complex(re, im)) for re, im in result["values"]) <= 1e-12

    @pytest.mark.parametrize("value", [[math.nan, 0.0], [0.0, -math.inf]])
    def test_grid_mode_refuses_a_non_finite_value(self, capsys, tmp_path, value):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2, "values": [[0.0, 0.0], [1.0, 0.0], value, [0.0, 0.0]]}))
        code, out, err = run_cli(capsys, "szego", "--in", str(path))
        assert (code, out) == (2, "") and "values[2] is not finite" in err

    @pytest.mark.parametrize("n, values", [(0, []), (-1, [[1.0, 0.0]])])
    def test_grid_size_below_one_exits_2(self, capsys, tmp_path, n, values):
        # n = 0 divided by zero and n = -1 failed in reshape, each with a traceback
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": n, "values": values}))
        code, out, err = run_cli(capsys, "szego", "--in", str(path))
        assert (code, out) == (2, "") and f"n = {n} is not an integer >= 1" in err

    def test_grid_size_mismatch(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 4, "values": [[0.0, 0.0]] * 16}))
        code, _, err = run_cli(capsys, "szego", "--grid", "8", "--in", str(path))
        assert code == 2

    @pytest.mark.parametrize("grid", ["7", "0"])
    def test_grid_flag_with_a_coefficient_file_exits_2(self, capsys, tmp_path, grid):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 1, "k": 0, "re": 2.0}]}))
        code, out, err = run_cli(capsys, "szego", "--grid", grid, "--in", str(path))
        assert (code, out) == (2, "") and "szego --grid applies to a grid file" in err

    def test_grid_flag_zero_is_checked_against_the_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2, "values": [[0.0, 0.0]] * 4}))
        code, out, err = run_cli(capsys, "szego", "--grid", "0", "--in", str(path))
        assert (code, out) == (2, "") and "disagrees with input grid size 2" in err


class TestIsometryCommand:
    def test_round_trip_through_files(self, capsys, tmp_path):
        f = {"terms": [{"j": 1, "k": -1, "re": 1.0, "im": 0.5}]}
        src = tmp_path / "f.json"
        mid = tmp_path / "g.json"
        back = tmp_path / "h.json"
        src.write_text(json.dumps(f))
        code, _, _ = run_cli(
            capsys, "isometry", "--space", "dirichlet", "--in", str(src), "--out", str(mid)
        )
        assert code == 0
        assert json.loads(mid.read_text())["terms"][0]["k"] == 0
        code, _, _ = run_cli(
            capsys, "isometry", "--space", "dirichlet", "--direction", "inverse",
            "--in", str(mid), "--out", str(back),
        )
        assert code == 0
        assert json.loads(back.read_text()) == json.loads(src.read_text())

    def test_bergman_requires_nu(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": []}))
        code, _, err = run_cli(capsys, "isometry", "--space", "bergman", "--in", str(path))
        assert code == 2 and "--nu" in err

    @pytest.mark.parametrize("space", ["hardy", "dirichlet"])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_nu_for_a_space_without_one_exits_2(self, capsys, tmp_path, space, direction):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 1, "k": 0, "re": 1.0}]}))
        argv = ("isometry", "--space", space, "--direction", direction, "--nu", "3", "--in", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: isometry --space {space} takes no --nu\n")


    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("nu", ["-2", "-1.5", "-1", "-3"])
    def test_bergman_refuses_nu_outside_its_regime(self, capsys, tmp_path, direction, nu):
        # at nu = -2 the forward map would send z1 z2^-1 to (1, 1), not to the
        # Dirichlet image (1, 0)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 1, "k": -1, "re": 1.0}]}))
        argv = ("isometry", "--space", "bergman", "--direction", direction, "--nu", nu, "--in", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and "nu" in err

    def test_bergman_at_positive_nu(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 0, "k": -2, "re": 1.0, "im": -0.5}]}))
        code, out, _ = run_cli(capsys, "isometry", "--space", "bergman", "--nu", "2.5", "--in", str(path))
        assert code == 0
        assert json.loads(out) == {"terms": [{"j": 0, "k": -1, "re": 1.0, "im": -0.5}]}
        path.write_text(out)
        code, out, _ = run_cli(
            capsys, "isometry", "--space", "bergman", "--nu", "2.5", "--direction", "inverse", "--in", str(path)
        )
        assert code == 0
        assert json.loads(out) == {"terms": [{"j": 0, "k": -2, "re": 1.0, "im": -0.5}]}

    @pytest.mark.parametrize("space", ["hardy", "dirichlet"])
    @pytest.mark.parametrize("term", [{"j": 0, "k": -1, "re": 1.0}, {"j": -1, "k": 0, "re": 1.0}])
    def test_inverse_of_a_term_off_the_bidisc_exits_2(self, capsys, tmp_path, space, term):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"terms": [term]}))
        code, out, err = run_cli(capsys, "isometry", "--space", space, "--direction", "inverse", "--in", str(path))
        assert (code, out) == (2, "") and err.startswith("error: ")


class TestVerifyCommand:
    def test_normalization_row(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "normalization", "--nu", "0.7")
        assert code == 0
        row = [line for line in out.split("\n") if line.startswith("normalization:")][0]
        rel_err = float(row.split(",")[-1])
        assert rel_err < 1e-10
        assert "normalization,PASS" in out

    def test_a_failing_suite_exits_3(self, capsys, monkeypatch):
        # a mass off by 1e-9 exceeds the normalization bound, 1e-10
        exact = quadrature.integrate_mu
        monkeypatch.setattr(quadrature, "integrate_mu", lambda nu, f, rule: exact(nu, f, rule) * (1.0 + 1e-9))
        code, out, err = run_cli(capsys, "verify", "normalization", "--nu", "0.7")
        assert code == 3
        assert "normalization,FAIL,nu=0.7: rel err" in out
        assert err == "failed suites: normalization\n"

    @pytest.mark.parametrize(
        "suite, nu",
        [("monomials", nu) for nu in ("1e-11", "1e-9", "1e-6", "1e-4", "2.000001", "4.000001", "8.000001", "20.000001")]
        + [("t-split", "1e-9"), ("t-split", "1e-6")],
    )
    def test_passes_just_above_an_even_nu(self, capsys, suite, nu):
        # the w2 rule's beta + 1 and a Gamma argument come down to nu/2 - ceil(nu/2) + 1;
        # each exited 3 on SciPy's Gauss rule, monomials by up to 8.2e-3 against 1e-8
        code, out, err = run_cli(capsys, "verify", suite, "--nu", nu)
        assert (code, err) == (0, ""), out

    @pytest.mark.parametrize("nu, code", [("-1", 0), ("6.5", 0), ("7", 0), ("8", 0), ("7.5", 2)])
    def test_kernel_estimate_up_to_the_profile_ceiling(self, capsys, nu, code):
        # at nu = -1 the profile's series read 1 + 6.7e-16 above C* = 1 and the suite exited 3;
        # above nu = 7 the profile's q = nu + 2 passes gauss_2f1's 9, except at even nu, where G = 1
        assert run_cli(capsys, "verify", "kernel-estimate", f"--nu={nu}")[0] == code

    @pytest.mark.xfail(strict=True, reason="order 48 is exact to degree 95, below the 151 of the folded v^(1+ceil(nu/2)): 3.3e-4")
    def test_monomials_at_nu_300(self, capsys):
        assert run_cli(capsys, "verify", "monomials", "--nu", "300")[0] == 0

    @pytest.mark.parametrize("failing", [False, True], ids=["passing", "failing"])
    def test_stdout_is_csv(self, capsys, monkeypatch, failing):
        # the labels nu=0.7,j=0,k=0 and, in a failing suite, the detail hold commas
        if failing:
            exact = quadrature.inner_product_quad
            monkeypatch.setattr(quadrature, "inner_product_quad", lambda *args: exact(*args) * (1.0 + 1e-6))
        code, out, _ = run_cli(capsys, "verify", "monomials", "--nu", "0.7")
        assert code == (3 if failing else 0)
        rows, summary = out.split("\n\n")
        for table, header in ((rows, "case,closed_form,quadrature,abs_err,rel_err"), (summary, "suite,status,detail")):
            assert table.startswith(header + "\n")
            assert {len(record) for record in csv.reader(table.splitlines())} == {header.count(",") + 1}
        assert '\n"monomials:nu=0.7,j=0,k=0",1,' in rows
        [[name, status, detail]] = list(csv.reader(summary.splitlines()))[1:]
        assert (name, status) == ("monomials", "FAIL" if failing else "PASS")
        assert detail.startswith("nu=0.7,j=0,k=-2: rel err") if failing else detail == ""

    @pytest.mark.parametrize("argv", [("--tolerance", "1"), ("--jmax", "4"), ("--kmax", "4")])
    def test_a_removed_bound_flag_is_a_usage_error(self, capsys, argv):
        # every bound is a constant of its suite; no flag loosens one
        with pytest.raises(SystemExit) as exc:
            main(["verify", "monomials", *argv])
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nonsense")
        assert code == 2 and "unknown suite" in err

    @pytest.mark.parametrize("suite", ["all", "critical-range"])
    def test_negative_seed_is_refused(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", suite, "--seed", "-1")
        assert (code, out) == (2, "") and "non-negative" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "critical-range", "--seed", "42")
        _, out2, _ = run_cli(capsys, "verify", "critical-range", "--seed", "42")
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [
            ("critical-range", "--nu", "3"),
            ("blowup", "--nu", "0.7"),
            ("szego", "--nu", "0"),
            ("schur-feasibility", "--nu", "2"),
            ("all", "--nu", "0"),
            ("tau-invariance", "--nu", "1"),
        ],
    )
    def test_flag_the_suite_cannot_take(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert f"takes no {argv[1]}" in err

    def test_reproducing_refuses_a_huge_nu_at_once(self, capsys):
        # the kernel coefficient looped over ceil(nu/2) factors before a_nu refused nu
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "reproducing", "--nu", "1e306")
        assert (code, out) == (2, "") and "leaves the double range" in err
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize("nu", ["-1.3333333333333333", "-1.33333333333333"])
    def test_reproducing_refuses_nu_minus_four_thirds(self, capsys, nu):
        # a pole of a_nu: the coefficients were nan, and the row printed 0 and passed
        code, out, err = run_cli(capsys, "verify", "reproducing", "--nu", nu)
        assert (code, out) == (2, "") and "-4/3" in err


class TestExitCodes:
    """Exit 3 is a verification failure and exit 1 an input fault; any
    other exception is a bug and surfaces instead of taking their codes."""

    def test_projection_self_test_failure_exits_3(self, capsys, tmp_path, monkeypatch):
        def failing(nu, **kwargs):
            raise VerificationFailure(f"projection self-test failed at nu={nu}")

        monkeypatch.setattr(projections, "projection_self_test", failing)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": []}))
        code, out, err = run_cli(capsys, "project", "--nu", "0.5", "--in", str(path))
        assert code == 3 and out == "" and "verification failure" in err

    @pytest.mark.parametrize("exc", [ZeroDivisionError, OverflowError, FloatingPointError, ArithmeticError])
    def test_stray_arithmetic_error_surfaces(self, capsys, monkeypatch, exc):
        def broken(nu):
            raise exc("stray")

        monkeypatch.setattr(projections, "critical_range", broken)
        with pytest.raises(exc, match="stray"):
            main(["critical-range", "--nu", "0"])

    def test_key_error_outside_the_readers_surfaces(self, capsys, tmp_path, monkeypatch):
        def broken(space, f):
            raise KeyError("bug")

        monkeypatch.setattr(coeffspace.SpaceParam, "norm_sq", broken)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 0, "k": 0, "re": 1.0}]}))
        with pytest.raises(KeyError, match="bug"):
            main(["norm", "--space", "hardy", "--in", str(path)])

    @pytest.mark.parametrize(
        "argv, document, key",
        [
            (("norm", "--space", "hardy"), {"coefficients": []}, "terms"),
            (("norm", "--space", "hardy"), {"terms": [{"j": 0, "re": 1.0}]}, "k"),
            (("project", "--nu", "0"), {"terms": [{"a": 0, "b": 0, "c": 0, "re": 1.0}]}, "d"),
            (("szego",), {"n": 2}, "values"),
            (("isometry", "--space", "hardy", "--direction", "inverse"), {"terms": [{"j": 0, "re": 1.0}]}, "k"),
        ],
    )
    def test_document_missing_a_key_exits_1(self, capsys, tmp_path, argv, document, key):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, *argv, "--in", str(path))
        assert code == 1 and out == ""
        assert err.startswith("i/o error: missing key") and repr(key) in err

    @pytest.mark.parametrize(
        "argv, document",
        [
            (("norm", "--space", "hardy"), [1, 2]),
            (("norm", "--space", "hardy"), {"terms": [[0, 0, 1.0]]}),
            (("isometry", "--space", "hardy"), "terms"),
            (("szego",), [1, 2]),
            (("kernel", "--nu", "0.7"), {"z": {"z1": [0.1, 0.0], "z2": [0.5, 0.0]}, "w": {"z1": [0.1, 0.0], "z2": [0.5, 0.0]}}),
            (("kernel", "--nu", "0.7"), {}),
            (("kernel", "--nu", "0.7"), [{"z": [0.1, 0.5], "w": [0.1, 0.5]}]),
            (("norm", "--space", "hardy"), {"terms": {}}),
            (("norm", "--space", "hardy"), {"terms": ""}),
            (("norm", "--space", "hardy"), {"terms": {"j": 0, "k": 0, "re": 1.0}}),
            (("project", "--nu", "0"), {"terms": None}),
            (("szego",), {"terms": "abc"}),
            (("isometry", "--space", "hardy", "--direction", "inverse"), {"terms": {}}),
        ],
    )
    def test_document_of_the_wrong_shape_exits_1(self, capsys, tmp_path, argv, document):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, *argv, "--in", str(path))
        assert code == 1 and out == ""
        assert err.startswith("i/o error: document of the wrong shape")

    @pytest.mark.parametrize(
        "argv, document",
        [
            (("norm", "--space", "hardy"), {"terms": [{"j": "x", "k": 0, "re": 1}]}),
            (("norm", "--space", "hardy"), {"terms": [{"j": None, "k": 0, "re": 1}]}),
            (("norm", "--space", "hardy"), {"terms": [{"j": float("inf"), "k": 0, "re": 1}]}),
            (("norm", "--space", "hardy"), {"terms": [{"j": 1.5, "k": 0, "re": 1}]}),
            (("isometry", "--space", "hardy"), {"terms": [{"j": 0, "k": "2", "re": 1}]}),
            (("norm", "--space", "hardy"), {"terms": [{"j": 0, "k": 0, "re": "1"}]}),
            (("project", "--nu", "0"), {"terms": [{"a": 0, "b": 0, "c": 0, "d": 0, "re": 1.0, "im": [0]}]}),
            (("szego",), {"n": "x", "values": []}),
            (("szego",), {"n": 1, "values": [[1.0]]}),
            (("norm", "--space", "hardy"), {"terms": [{"j": True, "k": 0, "re": 1.0}]}),
            (("norm", "--space", "hardy"), {"terms": [{"j": 0, "k": False, "re": 1.0}]}),
            (("norm", "--space", "hardy"), {"terms": [{"j": 0, "k": 0, "re": True}]}),
            (("norm", "--space", "hardy"), {"terms": [{"j": 0, "k": 0, "re": 1.0, "im": True}]}),
            (("project", "--nu", "0"), {"terms": [{"a": 0, "b": True, "c": 0, "d": 0, "re": 1.0}]}),
            (("szego",), {"terms": [{"j": 0, "k": 0, "re": 1.0, "im": False}]}),
            (("szego",), {"n": True, "values": [[1.0, 0.0]]}),
            (("szego",), {"n": 1, "values": [[True, 0.0]]}),
            (("szego",), {"n": 1, "values": [[1.0, False]]}),
            (("szego",), {"n": 2.5, "values": [[1.0, 0.0]] * 4}),
            (("szego",), {"n": "2", "values": [[1.0, 0.0]] * 4}),
            (("kernel", "--nu", "0.7"), [{"z": {"z1": [False, 0], "z2": [0.5, 0]}, "w": {"z1": [0.1, 0], "z2": [0.5, 0]}}]),
            (("kernel", "--nu", "0.7"), [{"z": {"z1": [True, 0], "z2": [0.5, 0]}, "w": {"z1": [0.1, 0], "z2": [0.5, 0]}}]),
            (("kernel", "--nu", "0.7"), [{"z": {"z1": [0.1, 0], "z2": [0.5, False]}, "w": {"z1": [0.1, 0], "z2": [0.5, 0]}}]),
            (("kernel", "--nu", "0.7"), [{"z": {"z1": ["0.1", 0], "z2": [0.5, 0]}, "w": {"z1": [0.1, 0], "z2": [0.5, 0]}}]),
            (("kernel", "--nu", "0.7"), [{"z": {"z1": [0.1, 0], "z2": [0.5, 0]}, "w": {"z1": [0.1, 0], "z2": ["0.5", "0"]}}]),
            (("kernel", "--nu", "0.7"), [{"z": {"z1": [None, 0], "z2": [0.5, 0]}, "w": {"z1": [0.1, 0], "z2": [0.5, 0]}}]),
            (("kernel", "--nu", "0.7"), [{"z": {"z1": [False, False], "z2": [True, False]}, "w": {"z1": [False, False], "z2": [True, False]}}]),
        ],
    )
    def test_field_of_the_wrong_type_or_value_exits_2(self, capsys, tmp_path, argv, document):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, *argv, "--in", str(path))
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_index_outside_the_space_keeps_its_domain_error(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": -1, "k": 0, "re": 1.0}]}))
        code, out, err = run_cli(capsys, "norm", "--space", "hardy", "--in", str(path))
        assert (code, out, err) == (2, "", "error: Laurent key needs j >= 0, got (-1, 0)\n")

    @pytest.mark.parametrize("exc", [TypeError, AttributeError, ValueError])
    def test_parse_errors_outside_the_readers_surface(self, capsys, tmp_path, monkeypatch, exc):
        def broken(space, f):
            raise exc("bug")

        monkeypatch.setattr(coeffspace.SpaceParam, "norm_sq", broken)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"terms": [{"j": 0, "k": 0, "re": 1.0}]}))
        with pytest.raises(exc, match="bug"):
            main(["norm", "--space", "hardy", "--in", str(path)])
