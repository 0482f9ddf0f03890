import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import cubecover.coverage as coverage_module
import cubecover.geometry as geometry_module
from cubecover.cli import (
    _COMMANDS,
    _FIELDS,
    _build_parser,
    _emit,
    _parse_grid,
    main,
)
from cubecover.coverage import CoverageQuery, _averaged_estimate, nearest_distance_sample
from cubecover.geometry import unit_ball_volume
from cubecover.solvers import (
    _exact_radius,
    asymptotic_coverage,
    default_delta_grid,
    radius_best_delta,
)
from cubecover.streams import SeededStream


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
                        "--hamming-nmax", "5", "--seed", "3")
        assert code == 0
        rows = out.read_text().splitlines()[2:]
        assert rows[0] == ",".join(["0.5"] * 8)

    def test_vertex_hamming_rejects_unread_n(self, tmp_path, capsys):
        # the Hamming design finds its own size, so --n would go unread
        code, out = run(tmp_path, "v.csv", "design", "--scheme", "vertex", "--dim", "8",
                        "--n", "5", "--hamming-nmax", "5", "--seed", "3")
        assert code == 2
        assert "--n is not read" in capsys.readouterr().err
        assert not out.exists()


class TestCoverageCommand:
    def test_r_zero_row(self, tmp_path):
        code, out = run(tmp_path, "c.csv", "coverage", "--dim", "3", "--n", "10",
                        "--r-grid", "0", "--targets", "2000", "--designs", "1", "--seed", "5")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[0] == "r"
        assert lines[2].split(",")[1] == "0"

    def test_settled_scan_gives_the_full_scan_output(self, tmp_path):
        # coverage settles targets at the smallest grid radius; its file must
        # be the one the full-scan sample gives
        d, n, n_targets, seed, grid = 12, 3000, 3000, 9, "0.5:0.65:0.05"
        code, out = run(tmp_path, "c.csv", "coverage", "--dim", str(d), "--n", str(n),
                        "--r-grid", grid, "--targets", str(n_targets), "--seed", str(seed))
        assert code == 0
        r_values = _parse_grid(grid)
        query = CoverageQuery.uniform(d, max(r_values), n)
        full = nearest_distance_sample(query, 2, n_targets, SeededStream(seed))
        settled = nearest_distance_sample(query, 2, n_targets, SeededStream(seed),
                                          settle_radius=min(r_values))
        assert not np.array_equal(settled, full)  # the early exit did happen
        rows = []
        for r in r_values:
            est = _averaged_estimate(full, r)
            rows.append([r, est.value, est.std_error, "design_averaged",
                         asymptotic_coverage(d, n, r)])
        assert 0.05 < rows[0][1] and rows[-1][1] < 0.95
        expected = tmp_path / "expected.csv"
        _emit(str(expected), "coverage", seed,
              ["r", "coverage", "std_error", "method", "asymptotic"], rows)
        assert out.read_bytes() == expected.read_bytes()

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

    @pytest.mark.parametrize("law", [("--scheme", "beta", "--alpha", "1"),
                                     ("--prior", "beta", "--alpha", "1")],
                             ids=["beta-scheme", "beta-prior"])
    def test_alpha_one_bounds_match_uniform(self, tmp_path, law):
        args = ("coverage", "--dim", "5", "--n", "100", "--r-grid", "0.3:0.5:0.1",
                "--targets", "2000", "--designs", "1", "--bounds", "--seed", "5")
        code_u, out_u = run(tmp_path, "u.csv", *args)
        code_b, out_b = run(tmp_path, "b.csv", *args, *law)
        assert code_u == code_b == 0
        assert out_b.read_bytes() == out_u.read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("coverage", "--dim", "6", "--n", "200", "--r-grid", "0.4:0.8:0.1",
         "--targets", "4000", "--designs", "2"),
        ("radius", "--dim", "4", "--n", "100", "--targets", "4000"),
        ("intersect", "--dim", "6", "--u", "0.5", "--r-grid", "0.5,0.7", "--inner", "20000"),
        ("design", "--scheme", "vertex", "--dim", "12", "--n", "9"),
        ("delta-sweep", "--dim", "4", "--n", "50", "--r", "0.5", "--delta-grid", "0.5,1",
         "--targets", "2000"),
    ])
    def test_byte_identical_across_threads(self, tmp_path, args):
        # a command that takes no --threads is rerun with the same seed
        def threads(k):
            return ["--threads", k] if "threads" in _COMMANDS[args[0]][1] else []

        code1, out1 = run(tmp_path, "a.csv", *args, "--seed", "42", *threads("1"))
        code2, out2 = run(tmp_path, "b.csv", *args, "--seed", "42", *threads("4"))
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("args", [
        # 9000 design points: two 8192-row chunks for the draw and the kernel's point rows
        ("coverage", "--dim", "12", "--n", "9000", "--r-grid", "0.8:1.0:0.1",
         "--targets", "1500", "--designs", "2", "--bounds"),
        ("table1", "--cells", "6:200,12:9000", "--targets", "1000", "--sweep-targets", "500",
         "--delta-grid", "0.8,1"),
    ], ids=["coverage", "table1"])
    def test_chunked_draws_byte_identical_across_threads(self, tmp_path, args):
        code1, out1 = run(tmp_path, "a.csv", *args, "--seed", "42", "--threads", "1")
        code3, out3 = run(tmp_path, "b.csv", *args, "--seed", "42", "--threads", "3")
        assert code1 == code3 == 0
        assert out1.read_bytes() == out3.read_bytes()

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

    @pytest.mark.parametrize("args, flag", [
        (["design", "--dim", "3", "--n", "4", "--scheme", "vertex", "--delta", "0.8"], "--delta"),
        (["design", "--dim", "3", "--n", "4", "--scheme", "vertex", "--delta", "0.5"], "--delta"),
        (["design", "--dim", "3", "--n", "4", "--scheme", "sobol", "--alpha", "0.3"], "--alpha"),
        (["coverage", "--dim", "3", "--n", "4", "--r", "0.3", "--scheme", "sobol",
          "--alpha", "0.3"], "--alpha"),
        (["coverage", "--dim", "3", "--n", "4", "--r", "0.3", "--alpha", "0.3"], "--alpha"),
        (["radius", "--dim", "3", "--n", "4", "--scheme", "vertex", "--delta", "0.8",
          "--prior", "beta"], "--delta"),
        # a delta outside (0, 1] is rejected by every command that reads it
        (["intersect", "--dim", "3", "--u", "0.5", "--r", "0.5", "--delta", "1.5",
          "--inner", "1000"], "--delta"),
        (["kappa", "--dim", "3", "--r", "0.5", "--delta", "1.5", "--targets", "10",
          "--inner", "10"], "--delta"),
        # --r beside --r-grid would go unread
        (["coverage", "--dim", "3", "--n", "10", "--r", "0.9", "--r-grid", "0.2,0.3",
          "--targets", "500"], "--r-grid"),
        (["intersect", "--dim", "3", "--r", "0.9", "--r-grid", "0.2", "--inner", "100"],
         "--r-grid"),
    ], ids=["vertex-delta", "vertex-delta-half", "sobol-alpha", "coverage-sobol-alpha",
            "uniform-alpha", "radius-vertex-delta", "intersect-delta-above-one",
            "kappa-delta-above-one", "coverage-r-beside-r-grid", "intersect-r-beside-r-grid"])
    def test_unread_delta_or_alpha_exits_2(self, tmp_path, capsys, args, flag):
        code, out = run(tmp_path, "o.csv", *args, "--seed", "1")
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, readers", [
        (["design", "--dim", "3", "--n", "4"], "--scheme beta"),
        (["coverage", "--dim", "3", "--n", "4", "--r", "0.3"], "--scheme beta or --prior beta"),
    ], ids=["design", "coverage"])
    def test_unread_alpha_names_only_flags_the_command_has(self, tmp_path, capsys, args, readers):
        # design has no --prior, so its message must not offer one
        code, out = run(tmp_path, "o.csv", *args, "--alpha", "0.5", "--seed", "1")
        assert code == 2
        assert capsys.readouterr().err == (f"cubecover {args[0]}: error: --alpha is read only by "
                                           f"{readers}, not by --scheme uniform\n")
        assert not out.exists()

    @pytest.mark.parametrize("scheme, nmax, message", [
        ("uniform", "5", "--hamming-nmax"),
        ("sobol", "5", "--hamming-nmax"),
        ("beta", "5", "--hamming-nmax"),
        ("vertex", "0", "n_max"),
    ], ids=["uniform", "sobol", "beta", "vertex-zero"])
    def test_unread_or_bad_hamming_nmax_exits_2(self, tmp_path, capsys, scheme, nmax, message):
        code, out = run(tmp_path, "o.csv", "design", "--dim", "3", "--scheme", scheme,
                        "--hamming-nmax", nmax, "--seed", "1")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["coverage", "--dim", "3", "--n", "4", "--r", "0.3", "--scheme", "sobol",
         "--prior", "beta", "--alpha", "0.3", "--targets", "200"],
        ["radius", "--dim", "3", "--n", "4", "--alpha", "2", "--prior", "beta", "--targets", "200"],
        ["design", "--dim", "3", "--n", "4", "--scheme", "beta", "--alpha", "0.3"],
    ], ids=["sobol-beta-prior", "uniform-beta-prior", "beta-scheme"])
    def test_alpha_read_by_scheme_or_prior_accepted(self, tmp_path, args):
        code, _ = run(tmp_path, "o.csv", *args, "--seed", "1")
        assert code == 0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["coverage", "--dim", "3", "--n", "10", "--r", "0.3",
                  "--scheme", "halton", "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", [
        ["coverage", "--dim", "3", "--n", "10", "--r-grid", "0.5:0.1:0.1"],
        ["coverage", "--dim", "3", "--n", "10", "--r-grid", ","],
        ["ngamma", "--dim", "10", "--r-grid", ","],
        ["table1", "--cells", "6:200", "--delta-grid", ","],
        ["table1", "--cells", "6:200", "--targets", "500", "--delta-grid", "0.5,1.5"],
        ["delta-sweep", "--dim", "3", "--n", "10", "--r", "0.5", "--delta-grid", "0,1"],
        ["delta-sweep", "--dim", "3", "--n", "10", "--r", "0.5", "--delta-grid", "1.5"],
        ["sobol-compare", "--dims", "5", "--delta-grid", "0,1"],
        ["sobol-compare", "--dims", "5", "--delta-grid", "1.5"],
    ], ids=["reversed-range", "coverage-empty", "ngamma-empty", "table1-empty-delta",
            "table1-delta-above-one", "delta-sweep-delta-zero", "delta-sweep-delta-above-one",
            "sobol-compare-delta-zero", "sobol-compare-delta-above-one"])
    def test_bad_grid(self, tmp_path, capsys, args):
        code, out = run(tmp_path, "o.csv", *args, "--seed", "1")
        assert code == 2
        assert "grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:1:1e-6", "0:1e300:1e-300", "0:1:0.0001"])
    def test_grid_length_capped(self, tmp_path, capsys, grid):
        code, out = run(tmp_path, "o.csv", "coverage", "--dim", "3", "--n", "10",
                        "--r-grid", grid, "--seed", "1")
        assert code == 2
        assert f"--r-grid: grid '{grid}' has more than 10000 values" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_of_the_cap_length_accepted(self):
        assert len(_parse_grid("0:0.9999:0.0001")) == 10_000

    def test_grid_length_capped_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("delta_grid = 0.5:1:1e-5\n")
        code, out = run(tmp_path, "d.csv", "delta-sweep", "--config", str(cfg), "--dim", "3",
                        "--n", "10", "--r", "0.5", "--seed", "1")
        assert code == 2
        assert "g.cfg:1: delta_grid: grid '0.5:1:1e-5' has more than 10000 values" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--r-grid", "0.3,nan"], ["--r-grid", "0.3:inf:0.1"],
                                       ["--r", "nan"], ["--r", "inf"],
                                       ["--r-grid=-0.5,0.3"], ["--r=-0.5"]])
    def test_non_finite_radius_rejected(self, tmp_path, capsys, flags):
        code, out = run(tmp_path, "o.csv", "coverage", "--dim", "3", "--n", "10", *flags, "--seed", "1")
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        code, out = run(tmp_path, "o.csv", "coverage", "--dim", "3", "--n", "10", "--r", "0.3",
                        "--targets", "100", "--threads", threads, "--seed", "1")
        assert code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_ngamma_cap_below_one_rejected(self, tmp_path, capsys, cap):
        code, out = run(tmp_path, "o.csv", "ngamma", "--dim", "20", "--r-grid", "1.0",
                        "--cap", cap, "--targets", "200", "--seed", "1")
        assert code == 2
        assert "--cap" in capsys.readouterr().err
        assert not out.exists()

    def test_ngamma_no_designs_rejected(self, tmp_path, capsys):
        code, out = run(tmp_path, "o.csv", "ngamma", "--dim", "20", "--r-grid", "1.0",
                        "--designs", "0", "--targets", "200", "--seed", "1")
        assert code == 2
        assert "n_designs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, flag", [
        (["sobol-compare", "--dims", "5,x"], "--dims"),
        (["sobol-compare", "--dims", "5,,10"], "--dims"),
        (["intersect", "--dim", "3", "--u", "0.5,x", "--r", "0.3"], "--u"),
        (["intersect", "--dim", "3", "--u", "2", "--r", "0.5"], "--u: must lie in [0, 1]"),
        (["intersect", "--dim", "3", "--u=-0.1", "--r", "0.5"], "--u: must lie in [0, 1]"),
        (["intersect", "--dim", "3", "--u", "0.2,1.5,0.9", "--r", "0.5"], "--u: must lie in [0, 1]"),
    ])
    def test_bad_list_field_named(self, tmp_path, capsys, args, flag):
        code, out = run(tmp_path, "o.csv", *args, "--seed", "1")
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_u_outside_the_cube_rejected_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "u.cfg"
        cfg.write_text("u = 0.2,1.5,0.9\n")
        code, out = run(tmp_path, "o.csv", "intersect", "--dim", "3", "--r", "0.5",
                        "--inner", "1000", "--seed", "1", "--config", str(cfg))
        assert code == 2
        assert "u: must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("u", ["0", "1"])
    def test_u_on_the_cube_boundary_accepted(self, tmp_path, u):
        code, out = run(tmp_path, "o.csv", "intersect", "--dim", "3", "--u", u, "--r", "0.5",
                        "--inner", "1000", "--seed", "1")
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_list_fields_from_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("u = 0.2,0.5,0.9\n")
        base = ["intersect", "--dim", "3", "--r", "0.7", "--inner", "2000", "--seed", "2"]
        code_cfg, via_cfg = run(tmp_path, "a.csv", *base, "--config", str(cfg))
        code_flag, via_flag = run(tmp_path, "b.csv", *base, "--u", "0.2,0.5,0.9")
        assert code_cfg == code_flag == 0
        assert via_cfg.read_bytes() == via_flag.read_bytes()

    def test_numeric_error_exit_code(self, capsys):
        # kappa normalization r^d V_d underflows at d=200, r=0.01
        assert main(["kappa", "--dim", "200", "--r", "0.01", "--targets", "2",
                     "--inner", "10", "--seed", "1"]) == 3
        assert "numeric" in capsys.readouterr().err


# (command, flag) pairs each subparser accepts, seed/out/config included
ACCEPTED_FLAGS = {"coverage": 15, "radius": 13, "delta-sweep": 12, "ngamma": 11,
                  "intersect": 10, "sobol-compare": 11, "table1": 10, "kappa": 9, "design": 9}


class TestFieldTable:
    @pytest.mark.parametrize("command", sorted(ACCEPTED_FLAGS))
    def test_only_declared_fields_parse(self, command, capsys):
        parser = _build_parser()
        accepted = []
        for name in _FIELDS:
            flag = "--" + name.replace("_", "-")
            argv = [command, flag] if name == "bounds" else [command, flag, "uniform"]
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:
                assert exc.code == 2
                assert "unrecognized arguments: " + flag in capsys.readouterr().err
            else:
                assert getattr(args, name) is not None
                accepted.append(name)
        assert set(accepted) == {*_COMMANDS[command][1], "seed", "out", "config"}
        assert len(accepted) == ACCEPTED_FLAGS[command]

    @pytest.mark.parametrize("argv, flag", [
        (["radius", "--bounds"], "--bounds"),
        (["radius", "--r-grid", "0.5"], "--r-grid"),
        (["ngamma", "--dim", "10", "--r", "0.55"], "--r"),
        (["kappa", "--dim", "3", "--r", "0.5", "--threads", "4"], "--threads"),
        (["intersect", "--dim", "3", "--r", "0.5", "--threads", "4"], "--threads"),
        (["design", "--dim", "3", "--n", "4", "--threads", "4"], "--threads"),
    ], ids=["radius-bounds", "radius-r-grid", "ngamma-abbrev", "kappa-threads",
            "intersect-threads", "design-threads"])
    def test_undeclared_flag_exits_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_help_shows_table_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coverage", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert re.search(r"--targets TARGETS\s+default:\s+20000\b", text)
        assert re.search(r"--dim DIM\s+required\b", text)

    def test_readme_examples_parse(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        lines = [line.split("#", 1)[0] for line in readme.read_text().splitlines()
                 if line.startswith("cubecover ")]
        assert len(lines) >= len(_COMMANDS)
        for line in lines:
            args = _build_parser().parse_args(shlex.split(line)[1:])
            assert args.command in _COMMANDS


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("dim = 4\nn = 100\ntargets: 3000\n# comment\n")
        code1, out1 = run(tmp_path, "a.csv", "radius", "--config", str(cfg),
                          "--gamma", "0.1", "--seed", "9")
        assert code1 == 0
        assert out1.read_text().splitlines()[2].split(",")[0] == "4"
        # flag overrides the file
        code2, out2 = run(tmp_path, "b.csv", "radius", "--config", str(cfg),
                          "--dim", "3", "--seed", "9")
        assert code2 == 0
        assert out2.read_text().splitlines()[2].split(",")[0] == "3"

    @pytest.mark.parametrize("text, field", [("n_targes = 5\n", "n_targes"),
                                              ("bounds = maybe\n", "bounds"),
                                              ("dim = 4\nn 10\n", "n 10"),
                                              ("r_grid = 0.3,-1\n", "r_grid"),
                                              ("scheme = halton\n", "scheme"),
                                              ("config = other.cfg\n", "config"),
                                              ("gamma = 0.1\n", "gamma"),
                                              ("r_grid = 0.2,0.3\n", "--r-grid")])
    def test_bad_config_exits_2(self, tmp_path, capsys, text, field):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, out = run(tmp_path, "c.csv", "coverage", "--config", str(cfg), "--dim", "3",
                        "--n", "10", "--r", "0.3", "--targets", "500", "--seed", "1")
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_delta_grid_range_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("delta_grid = 0.5,1.5\n")
        code, out = run(tmp_path, "t.csv", "table1", "--config", str(cfg), "--cells", "6:200",
                        "--targets", "500", "--seed", "1")
        assert code == 2
        assert "delta_grid: must lie in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code, _ = run(tmp_path, "c.csv", "radius", "--config", str(tmp_path / "none.cfg"),
                      "--dim", "3", "--n", "10", "--seed", "1")
        assert code == 2
        assert "none.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("word, columns", [("yes", 8), ("off", 5)])
    def test_config_bool_and_out(self, tmp_path, word, columns):
        out = tmp_path / "from_cfg.csv"
        cfg = tmp_path / "b.cfg"
        cfg.write_text(f"bounds = {word}\nout = {out}\n")
        assert main(["coverage", "--config", str(cfg), "--dim", "3", "--n", "10",
                     "--r", "0.3", "--targets", "500", "--designs", "1", "--seed", "1"]) == 0
        assert len(out.read_text().splitlines()[1].split(",")) == columns


class TestNgammaCommand:
    def test_na_cells_and_asymptotic_column(self, tmp_path):
        code, out = run(tmp_path, "g.csv", "ngamma", "--dim", "50", "--r-grid", "2.25",
                        "--targets", "2000", "--designs", "1",
                        "--delta-grid", "0.1:1:0.1", "--seed", "7")
        assert code == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[2] == "NA" and row[3] == "NA"
        assert row[4] == "3.273321361e-05"

    def test_d20_asymptotic_column(self, tmp_path):
        code, out = run(tmp_path, "g2.csv", "ngamma", "--dim", "20", "--r-grid", "0.9",
                        "--targets", "1500", "--designs", "1",
                        "--delta-grid", "0.8,1.0", "--cap", "131072", "--seed", "8")
        assert code == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[4] == "733.8880327"

    def test_asymptotic_count_below_one_is_printed(self, tmp_path):
        # -ln(gamma) / (r^d V_d) at the paper's d = 50 cell is about 0.001
        code, out = run(tmp_path, "g3.csv", "ngamma", "--dim", "50", "--r-grid", "2.1",
                        "--targets", "500", "--seed", "1")
        assert code == 0
        n_asym = float(out.read_text().splitlines()[2].split(",")[4])
        assert n_asym == pytest.approx(-np.log(0.1) / (2.1**50 * unit_ball_volume(50)), rel=1e-9)


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


class TestTable1Command:
    def test_delta_star_is_radius_best_delta(self, tmp_path):
        code, out = run(tmp_path, "t.csv", "table1", "--cells", "12:300", "--targets", "2000",
                        "--sweep-targets", "1500", "--delta-grid", "0.6,0.8,1.0", "--seed", "3")
        assert code == 0
        row = out.read_text().splitlines()[2].split(",")
        # table1 sweeps cell 0 on stream child(0).child(1)
        best_delta, _ = radius_best_delta(12, 300, 0.1, [0.6, 0.8, 1.0],
                                          SeededStream(3).child(0).child(1), n_targets=1500)
        assert float(row[5]) == best_delta

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_hinted_file_matches_unhinted_samples(self, tmp_path, threads):
        # d = 12 runs on the BLAS engine, where the hints let targets settle
        code, out = run(tmp_path, "t.csv", "table1", "--cells", "12:3000", "--targets", "4000",
                        "--seed", "5", "--threads", threads)
        assert code == 0
        cell, g = SeededStream(5).child(0), 0.1

        def radius(delta, n_designs, n_targets, stream):
            query = CoverageQuery.uniform(12, 0.0, 3000, delta)
            return _exact_radius(nearest_distance_sample(query, n_designs, n_targets, stream), g)

        best_delta, best_r = None, np.inf
        for delta in default_delta_grid(0.05):  # ascending, ties to the larger delta
            r = radius(delta, 1, 2000, cell.child(1))
            if r <= best_r:
                best_delta, best_r = delta, r
        expected = tmp_path / "expected.csv"
        _emit(str(expected), "table1", 5,
              ["d", "n", "gamma", "r_full_cube", "r_delta_cube", "delta_star", "warning"],
              [[12, 3000, 0.1, radius(1.0, 2, 4000, cell.child(0)),
                radius(best_delta, 2, 4000, cell.child(2)), best_delta, ""]])
        assert out.read_bytes() == expected.read_bytes()


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

    @pytest.mark.parametrize("r", ["0", "-0.5"])
    def test_nonpositive_radius_rejected(self, tmp_path, capsys, r):
        code, out = run(tmp_path, "s.csv", "sobol-compare", "--dims", "5", "--n", "64",
                        "--r", r, "--seed", "6")
        assert code == 2
        assert "--r" in capsys.readouterr().err
        assert not out.exists()


class TestBenchmarkShape:
    """The gated benchmark workloads make the kernel calls their traced runs expect.

    ``perfbench/workloads.py`` states, per workload, how many
    ``min_squared_distances`` calls and KD-tree builds its command makes; a
    change of engine mix or call structure fails here before it fails the
    benchmark's traced run.
    """

    @staticmethod
    def _workloads(monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
        return module.WORKLOADS

    @pytest.mark.parametrize("name", ["radius-table", "coverage-d50"])
    def test_traced_call_counts(self, tmp_path, monkeypatch, name):
        workload = self._workloads(monkeypatch)[name]
        counts = {"geometry.min_sq.calls": 0, "geometry.kdtree.calls": 0}
        real_min_sq, real_tree = coverage_module.min_squared_distances, geometry_module.cKDTree

        def min_sq(*args, **kwargs):
            counts["geometry.min_sq.calls"] += 1
            return real_min_sq(*args, **kwargs)

        def tree(*args, **kwargs):
            counts["geometry.kdtree.calls"] += 1
            return real_tree(*args, **kwargs)

        monkeypatch.setattr(coverage_module, "min_squared_distances", min_sq)
        monkeypatch.setattr(geometry_module, "cKDTree", tree)
        assert set(workload.expect) <= set(counts)
        code = main([*workload.argv, "--seed", "1", "--out", str(tmp_path / "out.csv")])
        assert code == 0
        assert {key: counts[key] for key in workload.expect} == workload.expect
