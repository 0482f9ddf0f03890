import json

import numpy as np
import pytest

from cubecover.cli import main


def run(tmp_path, name, *args):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out


class TestDesignCommand:
    def test_sobol_dump(self, tmp_path):
        code, out = run(tmp_path, "d.csv", "design", "--scheme", "sobol", "--dim", "2",
                        "--n", "4", "--seed", "1")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# cubecover=") and "seed=1" in lines[0]
        assert lines[1] == "x0,x1"
        assert lines[2] == "0,0"
        assert lines[3] == "0.5,0.5"

    def test_vertex_hamming_dump(self, tmp_path):
        code, out = run(tmp_path, "v.csv", "design", "--scheme", "vertex", "--dim", "8",
                        "--n", "5", "--hamming-nmax", "5", "--seed", "3")
        assert code == 0
        rows = out.read_text().splitlines()[2:]
        assert rows[0] == ",".join(["0.5"] * 8)


class TestCoverageCommand:
    def test_r_zero_row(self, tmp_path):
        code, out = run(tmp_path, "c.csv", "coverage", "--dim", "3", "--n", "10",
                        "--r-grid", "0", "--targets", "2000", "--designs", "1", "--seed", "5")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[0] == "r"
        assert lines[2].split(",")[1] == "0"

    def test_jsonl_output(self, tmp_path):
        code, out = run(tmp_path, "c.jsonl", "coverage", "--dim", "2", "--n", "5",
                        "--r", "0.3", "--targets", "1000", "--designs", "1", "--seed", "5")
        assert code == 0
        lines = out.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["command"] == "coverage" and meta["seed"] == 5
        row = json.loads(lines[1])
        assert 0.0 <= row["coverage"] <= 1.0

    def test_bounds_columns(self, tmp_path):
        code, out = run(tmp_path, "b.csv", "coverage", "--dim", "5", "--n", "100",
                        "--r-grid", "0.3:0.5:0.1", "--targets", "2000", "--designs", "1",
                        "--bounds", "--seed", "5")
        assert code == 0
        header = out.read_text().splitlines()[1].split(",")
        assert header[-3:] == ["jensen_center", "jensen_refined", "product_form_approx"]


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("coverage", "--dim", "6", "--n", "200", "--r-grid", "0.4:0.8:0.1",
         "--targets", "4000", "--designs", "2"),
        ("radius", "--dim", "4", "--n", "100", "--targets", "4000"),
        ("intersect", "--dim", "6", "--u", "0.5", "--r-grid", "0.5,0.7", "--inner", "20000"),
        ("design", "--scheme", "vertex", "--dim", "12", "--n", "9"),
    ])
    def test_byte_identical_across_threads(self, tmp_path, args):
        code1, out1 = run(tmp_path, "a.csv", *args, "--seed", "42", "--threads", "1")
        code2, out2 = run(tmp_path, "b.csv", *args, "--seed", "42", "--threads", "4")
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_changes_output(self, tmp_path):
        args = ("radius", "--dim", "4", "--n", "100", "--targets", "4000")
        _, a = run(tmp_path, "a.csv", *args, "--seed", "1")
        _, b = run(tmp_path, "b.csv", *args, "--seed", "2")
        assert a.read_bytes() != b.read_bytes()


class TestValidation:
    def test_missing_required_field(self, capsys):
        assert main(["coverage", "--n", "10", "--r", "0.3", "--seed", "1"]) == 2
        assert "--dim" in capsys.readouterr().err

    def test_missing_seed(self, capsys):
        assert main(["radius", "--dim", "3", "--n", "10"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["coverage", "--dim", "3", "--n", "10", "--r", "0.3",
                  "--scheme", "halton", "--seed", "1"])
        assert exc.value.code == 2

    def test_bad_grid(self, capsys):
        assert main(["coverage", "--dim", "3", "--n", "10", "--r-grid", "0.5:0.1:0.1",
                     "--seed", "1"]) == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--r-grid", "0.3,nan"], ["--r-grid", "0.3:inf:0.1"],
                                       ["--r", "nan"], ["--r", "inf"]])
    def test_non_finite_radius_rejected(self, tmp_path, capsys, flags):
        code, out = run(tmp_path, "o.csv", "coverage", "--dim", "3", "--n", "10", *flags, "--seed", "1")
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_error_exit_code(self, capsys):
        # kappa normalization r^d V_d underflows at d=200, r=0.01
        assert main(["kappa", "--dim", "200", "--r", "0.01", "--targets", "2",
                     "--inner", "10", "--seed", "1"]) == 3
        assert "numeric" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("dim = 4\nn = 100\ntargets = 3000\n# comment\nr: 0.5\n")
        code1, out1 = run(tmp_path, "a.csv", "radius", "--config", str(cfg),
                          "--gamma", "0.1", "--seed", "9")
        assert code1 == 0
        assert out1.read_text().splitlines()[2].split(",")[0] == "4"
        # flag overrides the file
        code2, out2 = run(tmp_path, "b.csv", "radius", "--config", str(cfg),
                          "--dim", "3", "--seed", "9")
        assert code2 == 0
        assert out2.read_text().splitlines()[2].split(",")[0] == "3"


class TestNgammaCommand:
    def test_na_cells_and_asymptotic_column(self, tmp_path):
        code, out = run(tmp_path, "g.csv", "ngamma", "--dim", "50", "--r-grid", "2.25",
                        "--targets", "2000", "--designs", "1",
                        "--delta-grid", "0.1:1:0.1", "--seed", "7")
        assert code == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[2] == "NA" and row[3] == "NA"
        assert row[4] == "0"  # asymptotic count rounds to zero here

    def test_d20_asymptotic_column(self, tmp_path):
        code, out = run(tmp_path, "g2.csv", "ngamma", "--dim", "20", "--r-grid", "0.9",
                        "--targets", "1500", "--designs", "1",
                        "--delta-grid", "0.8,1.0", "--cap", "131072", "--seed", "8")
        assert code == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[4] == "734"


class TestIntersectCommand:
    def test_saturates_past_support(self, tmp_path):
        code, out = run(tmp_path, "i.csv", "intersect", "--dim", "4", "--u", "0.5",
                        "--r-grid", "3.0", "--inner", "5000", "--seed", "2")
        assert code == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[1] == "1"           # oracle
        assert row[4] == "1"           # edgeworth, clamped

    def test_vector_center(self, tmp_path):
        code, out = run(tmp_path, "i2.csv", "intersect", "--dim", "3", "--u", "0.2,0.5,0.9",
                        "--r", "0.7", "--inner", "5000", "--seed", "2")
        assert code == 0

    def test_wrong_center_length(self, capsys):
        assert main(["intersect", "--dim", "3", "--u", "0.2,0.5", "--r", "0.7",
                     "--seed", "2"]) == 2


class TestKappaCommand:
    def test_histogram_density_normalized(self, tmp_path):
        code, out = run(tmp_path, "k.csv", "kappa", "--dim", "6", "--r", "0.4",
                        "--targets", "400", "--inner", "800", "--bins", "24", "--seed", "4")
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        mass = sum((float(hi) - float(lo)) * float(den) for lo, hi, den in rows)
        assert mass == pytest.approx(1.0, rel=1e-9)


class TestSobolCompareCommand:
    def test_columns_and_sanity(self, tmp_path):
        code, out = run(tmp_path, "s.csv", "sobol-compare", "--dims", "5,10", "--n", "256",
                        "--targets", "4000", "--designs", "1",
                        "--delta-grid", "0.8,0.9,1.0", "--seed", "6")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[0] == "d"
        for line in lines[2:]:
            vals = line.split(",")
            assert 0.0 <= float(vals[2]) <= 1.0
            assert 0.0 <= float(vals[4]) <= 1.0
