import csv
import json
import math

import pytest

from telefid import cli
from telefid.core import PolarCap, PureSchmidt
from telefid.fidelity import classical_fidelity, fidelity_stats
from telefid.verify import CHECK_NAMES


def run_cli(args, tmp_path, name="out.txt"):
    path = tmp_path / name
    code = cli.main(list(args) + ["--out", str(path)])
    return code, path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestParseNumber:
    @pytest.mark.parametrize("text,expected", [
        ("1.5", 1.5),
        ("pi", math.pi),
        ("pi/4", math.pi / 4),
        ("2*pi/5", 2 * math.pi / 5),
        ("-0.5", -0.5),
    ])
    def test_accepts(self, text, expected):
        assert math.isclose(cli.parse_number(text), expected, rel_tol=1e-15)

    @pytest.mark.parametrize("text", ["pi(", "import os", "x", "1;2", "10**400",
                                      "1e400", "(-8)**0.5", "-" * 5000 + "1"],
                             ids=lambda text: text[:12])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            cli.parse_number(text)


class TestSweep:
    def test_values_match_library(self, tmp_path):
        code, path = run_cli(["sweep", "--family", "pure", "--conc", "0.8",
                              "--dist", "cap", "--grid", "0.5:2.5:5"], tmp_path)
        assert code == 0
        header, rows = read_csv(path)
        assert header == ["param", "F", "D", "F_cl", "I", "I_f"]
        assert len(rows) == 5
        fam = PureSchmidt.from_concurrence(0.8)
        for row in rows:
            theta0 = float(row[0])
            st = fidelity_stats(fam, PolarCap(theta0))
            assert math.isclose(float(row[1]), st.mean, rel_tol=1e-11)
            assert math.isclose(float(row[2]), st.deviation, rel_tol=1e-9,
                                abs_tol=1e-11)
            assert math.isclose(float(row[3]),
                                classical_fidelity(PolarCap(theta0)),
                                rel_tol=1e-11)

    @pytest.mark.filterwarnings("ignore::telefid.fidelity.SubclassicalFidelityWarning")
    def test_pi_literals_and_zero_nudge(self, tmp_path):
        code, path = run_cli(["sweep", "--family", "werner", "--p", "0.9",
                              "--dist", "cap", "--grid", "0:pi:3"], tmp_path)
        assert code == 0
        _, rows = read_csv(path)
        assert float(rows[0][0]) == 1e-9
        assert math.isclose(float(rows[2][0]), math.pi, rel_tol=1e-11)

    def test_json_format(self, tmp_path):
        code, path = run_cli(["sweep", "--family", "pure", "--conc", "0.5",
                              "--dist", "uniform", "--format", "json"],
                             tmp_path)
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["columns"][:2] == ["param", "F"]
        assert len(payload["rows"]) == 1
        assert math.isclose(payload["rows"][0][1], 2.5 / 3.0, rel_tol=1e-11)

    @pytest.mark.filterwarnings("ignore::telefid.fidelity.SubclassicalFidelityWarning")
    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--family", "bd", "--weights", "0.5,0.3,0.15,0.05",
                "--dist", "vmf", "--grid", "0.1:20:7"]
        _, p1 = run_cli(args, tmp_path, "a.csv")
        _, p2 = run_cli(args, tmp_path, "b.csv")
        assert p1.read_bytes() == p2.read_bytes()


class TestResources:
    def test_columns_and_uniform_identity(self, tmp_path):
        code, path = run_cli(["resources", "--dist", "uniform",
                              "--c-target", "0.8", "--alpha", "0.25"],
                             tmp_path)
        assert code == 0
        header, rows = read_csv(path)
        assert header == ["param", "C_required", "H_bits"]
        assert math.isclose(float(rows[0][1]), 0.8, rel_tol=1e-11)
        assert float(rows[0][2]) == 2.0


class TestCompare:
    def test_mean_angle_endpoint_row(self, tmp_path):
        code, path = run_cli(["compare", "--family", "pure", "--conc", "0.5",
                              "--criterion", "mean-polar-angle",
                              "--grid", "pi/2:pi/2:1"], tmp_path)
        assert code == 0
        _, rows = read_csv(path)
        assert rows[0] == ["1.57079632679", "3.14159265359", "0", "0", "0"]

    @pytest.mark.filterwarnings("ignore::telefid.fidelity.SubclassicalFidelityWarning")
    def test_werner_rows_vanish(self, tmp_path):
        code, path = run_cli(["compare", "--family", "werner", "--p", "0.7",
                              "--criterion", "classical-fidelity",
                              "--grid", "0.7:0.9:4"], tmp_path)
        assert code == 0
        _, rows = read_csv(path)
        for row in rows:
            assert float(row[3]) == 0.0
            assert float(row[4]) == 0.0

    def test_bad_target_returns_two(self, capsys):
        code = cli.main(["compare", "--family", "pure", "--conc", "0.5",
                         "--criterion", "classical-fidelity",
                         "--grid", "0.2:0.4:2", "--out", "-"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestQutritCommand:
    def test_grid_mode(self, tmp_path):
        code, path = run_cli(["qutrit", "--theta4", "pi/4", "--points", "8"],
                             tmp_path)
        assert code == 0
        header, rows = read_csv(path)
        assert header == ["a", "b", "F_restricted", "F_uniform", "delta_F"]
        for row in rows:
            assert float(row[0]) + float(row[1]) <= 1.0
            assert float(row[4]) >= -1e-12

    @pytest.mark.parametrize("points", [50, 7])
    def test_grid_row_count(self, tmp_path, points):
        # every grid point with a + b <= 1, the simplex diagonal included
        code, path = run_cli(["qutrit", "--points", str(points)], tmp_path)
        assert code == 0
        _, rows = read_csv(path)
        assert len(rows) == points * (points + 1) // 2

    def test_tiny_cutoff(self, tmp_path):
        # both quadratures of <P4> used to underflow to 0/0 here
        code, path = run_cli(["qutrit", "--theta4", "1e-70", "--points", "4"],
                             tmp_path)
        assert code == 0
        _, rows = read_csv(path)
        assert len(rows) == 10
        for row in rows:
            assert math.isclose(float(row[2]), 1.0, abs_tol=1e-15)

    def test_eta_mode(self, tmp_path):
        code, path = run_cli(["qutrit", "--eta", "--dim", "2", "--info",
                              "0.16", "--ensemble", "2000", "--seed", "0"],
                             tmp_path)
        assert code == 0
        header, rows = read_csv(path)
        assert header == ["dim", "eta_percent", "std_error",
                          "ensemble_size", "n_samples"]
        assert 20.0 < float(rows[0][1]) < 26.0


class TestVerifyCommand:
    def test_quick_passes_and_is_deterministic(self, tmp_path):
        p1 = tmp_path / "v1.txt"
        p2 = tmp_path / "v2.txt"
        assert cli.main(["verify", "--quick", "--seed", "3",
                         "--out", str(p1)]) == 0
        assert cli.main(["verify", "--quick", "--seed", "3",
                         "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert b"all checks passed" in p1.read_bytes()

    def test_timings_leave_report_unchanged(self, tmp_path, capsys):
        plain = tmp_path / "plain.txt"
        timed = tmp_path / "timed.txt"
        assert cli.main(["verify", "--quick", "--seed", "5", "--out", str(plain)]) == 0
        assert capsys.readouterr().err == ""
        assert cli.main(["verify", "--quick", "--seed", "5", "--timings",
                         "--out", str(timed)]) == 0
        assert timed.read_bytes() == plain.read_bytes()
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == list(CHECK_NAMES)
        for line in lines:
            wall, cpu = line.split(": ")[1].split(", ")
            assert wall.startswith("wall ") and cpu.startswith("cpu ")


class TestErrors:
    def test_missing_family_parameter_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--family", "pure", "--dist", "uniform"])
        assert exc.value.code == 2

    def test_unknown_choice_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--family", "pure", "--conc", "0.5",
                      "--dist", "torus"])
        assert exc.value.code == 2

    def test_bad_range_returns_two(self, capsys):
        code = cli.main(["sweep", "--family", "werner", "--p", "1.5",
                         "--dist", "uniform", "--out", "-"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["sweep", "--family", "pure", "--conc", "0.5", "--dist", "vmf",
         "--grid", "0:10**400:3"],
        ["qutrit", "--eta", "--dim", "3", "--n", "0"],
        ["qutrit", "--eta", "--ensemble", "0"],
        ["qutrit", "--points", "0"],
    ], ids=["overflow", "n", "ensemble", "points"])
    def test_bad_input_one_line_error(self, capsys, args):
        code = cli.main(args + ["--out", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
