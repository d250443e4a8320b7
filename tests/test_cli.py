import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_order_two_pairs, reference_cover_frequency

from bandscan import cli, lattice, twomode
from bandscan.config import KNOWN_KEYS, ScanConfig
from bandscan.dirichlet import DirichletParams
from bandscan.errors import NumericalError
from bandscan.reports import GapReport


def run(argv):
    return cli.main(argv)


class TestClassify:
    def test_exceptional(self, capsys):
        assert run(["classify", "0", "0", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "order = 2" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["shifts"][0]["m"] == [0, 0, 1]
        assert payload["shifts"][0]["verdict"] == "GapPredicted"

    def test_non_exceptional(self, capsys):
        assert run(["classify", "0.3", "0.1", "0.2"]) == 0
        assert "order = 1" in capsys.readouterr().out

    def test_zero_vector_exits_2(self, capsys):
        assert run(["classify", "0", "0", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: k: ")

    @pytest.mark.parametrize("k", [["nan", "0", "0.5"], ["0", "inf", "0.5"],
                                   ["--", "0", "0", "-inf"]])
    def test_non_finite_vector_exits_2_and_names_k(self, capsys, k):
        assert run(["classify", *k]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: k: wave vector components must be finite\n"

    def test_order_eight_point_is_classified_once(self, monkeypatch, capsys):
        from bandscan import lattice

        calls = []
        classify = lattice.classify_wavevector
        monkeypatch.setattr(lattice, "classify_wavevector",
                            lambda *a: calls.append(a) or classify(*a))
        assert run(["classify", "0.5", "0.5", "0.5"]) == 0
        assert "order = 8" in capsys.readouterr().out
        assert len(calls) == 1

    def test_printed_nu_and_ratio_are_the_gap_reports(self, tmp_path, capsys, pair_rng):
        # one classification of k0 and one formula for nu serve classify and gap
        pairs = [(k0, m0) for k0, m0, _ in random_order_two_pairs(pair_rng, 300)]
        pairs += [((0.5, 0.6, 0.3), (1, 0, 0)), ((-0.093, 1.0, -0.306), (0, 2, 0))]
        printed = []
        for k0, m0 in pairs:
            ks = [repr(float(c)) for c in k0]
            assert run(["classify", "--", *ks]) == 0
            shift, = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["shifts"]
            assert shift["m"] == list(m0)
            assert run(["gap", "--k0=" + ",".join(ks), "--m0=" + ",".join(map(str, m0)),
                        "--samples", "2", "--out", str(tmp_path)]) == 0
            capsys.readouterr()
            report = GapReport.from_text((tmp_path / "report.txt").read_text())
            assert (shift["nu"], shift["ratio"]) == (report.nu, report.ratio), (k0, m0)
            assert lattice.gap_admissible(k0, m0).nu == report.nu
            printed.append(shift["nu"])
        assert printed[-2:] == [1.8000000000000003, 0.10228500000000018]

    def test_malformed_usage_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["classify", "0", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["0", "1e-12"])
    def test_gap_accepts_exactly_the_shifts_classify_lists(self, tmp_path, monkeypatch, capsys,
                                                           tol):
        # As decimals, k0 = (1.6, -0.2, -0.1) lies on the planes of (1, 1, -1) and (3, -1, 0);
        # as doubles, at --tol 0, on neither.  At each tol the pair check of gap refuses
        # (3, -1, 0) by the plane condition exactly when classify does not list it
        monkeypatch.chdir(tmp_path)
        assert run(["classify", "1.6", "-0.2", "-0.1", "--tol", tol]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        listed = [s["m"] for s in payload["shifts"]]
        assert listed == ([] if tol == "0" else [[1, 1, -1], [3, -1, 0]])
        for problem in ("dirichlet", "transmission"):
            argv = ["gap", f"--problem={problem}", "--k0=1.6,-0.2,-0.1", "--m0=3,-1,0",
                    "--tol", tol]
            assert run(argv) == 2  # off the plane at tol 0, order three at 1e-12
            assert ("plane condition" in capsys.readouterr().err) == (listed == [])


class TestGap:
    def test_dirichlet_report(self, tmp_path, capsys):
        out = tmp_path / "run1"
        rc = run([
            "gap", "--problem", "dirichlet", "--k0", "0,0,0.5", "--m0", "0,0,1",
            "--a", "0.1", "--out", str(out), "--samples", "11",
        ])
        assert rc == 0
        report = GapReport.from_text((out / "report.txt").read_text())
        assert report.verdict == "GapPredicted"
        assert report.predicted_lo_over_c == pytest.approx(0.5, abs=1e-15)
        assert report.predicted_hi_over_c == pytest.approx(0.5101321183642338, rel=1e-12)
        lines = (out / "branches.csv").read_text().splitlines()
        assert lines[0] == "delta_tilde,omega_minus_over_c,omega_plus_over_c"
        assert len(lines) == 12
        assert "predicted gap" in capsys.readouterr().out

    def test_no_gap_nu(self, tmp_path, capsys):
        out = tmp_path / "run2"
        rc = run([
            "gap", "--k0", "0.5,0.6,0.3", "--m0", "1,0,0", "--a", "0.1",
            "--out", str(out),
        ])
        assert rc == 0
        # the status carries its own "no gap: "
        assert "no gap: nu >= 1" in capsys.readouterr().out.splitlines()
        report = GapReport.from_text((out / "report.txt").read_text())
        assert report.predicted_lo_over_c is None

    def test_transmission_zero_contrast(self, tmp_path, capsys):
        out = tmp_path / "run3"
        rc = run([
            "gap", "--problem", "transmission", "--k0", "0,0,0.5", "--m0", "0,0,1",
            "--a", "0.5", "--out", str(out),
        ])
        assert rc == 0
        assert "no gap: zero splitting" in capsys.readouterr().out.splitlines()

    def test_verified_overlap_is_reported(self, tmp_path, capsys):
        # zero contrast: the measured bands cross, so the oracle measures no gap
        argv = ["gap", "--problem", "transmission", "--k0", "0,0,0.5", "--m0", "0,0,1",
                "--a", "0.5", "--g-max", "3", "--out", str(tmp_path / "run")]
        assert run(argv) == 0
        assert "measured gap" not in capsys.readouterr().out
        assert run(argv + ["--verify"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "measured gap: none (the measured bands overlap)" in out

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["gap", "--a", "0.1", "--out", str(out), "--samples", "7"])
            outs.append((out / "report.txt").read_bytes()
                        + (out / "branches.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_with_override(self, tmp_path, capsys):
        cfgf = tmp_path / "scan.cfg"
        cfgf.write_text("a = 0.2\nk0 = 0,0,0.5\nm0 = 0,0,1\n")
        out = tmp_path / "run4"
        rc = run(["gap", "--config", str(cfgf), "--a", "0.1", "--out", str(out)])
        assert rc == 0
        report = GapReport.from_text((out / "report.txt").read_text())
        assert report.a == 0.1

    def test_bad_config_exits_2(self, tmp_path):
        cfgf = tmp_path / "scan.cfg"
        cfgf.write_text("problem = heat\n")
        assert run(["gap", "--config", str(cfgf)]) == 2

    def test_missing_config_file_exits_2_and_is_named(self, tmp_path, monkeypatch, capsys):
        # a missing file once ended in a FileNotFoundError traceback with exit 1
        monkeypatch.chdir(tmp_path)
        assert run(["gap", "--config", "nope.cfg"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: config: cannot read nope.cfg: ")
        assert "Traceback" not in err and not any(tmp_path.iterdir())

    def test_non_ascii_config_file_exits_2_and_is_named(self, tmp_path, capsys):
        # a UnicodeDecodeError once ended in a traceback with exit 1
        cfgf = tmp_path / "scan.cfg"
        cfgf.write_bytes("a = 0.3  # \u00e9\n".encode("utf-8"))
        assert run(["gap", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: config: {cfgf} is not ASCII text\n"
        assert not (tmp_path / "o").exists()

    def test_removed_seed_key_exits_2_and_is_named(self, tmp_path, capsys):
        cfgf = tmp_path / "scan.cfg"
        cfgf.write_text("a = 0.1\nseed = 0\n")
        assert run(["gap", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_removed_count_key_and_flag_exit_2(self, tmp_path, capsys):
        cfgf = tmp_path / "scan.cfg"
        cfgf.write_text("a = 0.1\ncount = 3\n")
        assert run(["gap", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
        assert "count" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run(["gap", "--count", "3", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_removed_c_key_and_flag_exit_2(self, tmp_path, capsys):
        # c only rescaled a console line; every frequency is omega/c
        cfgf = tmp_path / "scan.cfg"
        cfgf.write_text("a = 0.1\nc = 2\n")
        assert run(["gap", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {cfgf}:2: unknown key 'c'\n"
        with pytest.raises(SystemExit) as exc:
            run(["gap", "--c", "2", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --c 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag", [
        "--a", "--q", "--gamma-plus", "--gamma-minus", "--rho-plus", "--rho-minus",
        "--delta-tilde-min", "--delta-tilde-max", "--exclusion-band", "--tol",
        "--k0", "--semiaxes",
    ])
    def test_non_finite_value_exits_2_and_is_named(self, tmp_path, capsys, flag, value):
        field = flag[2:].replace("-", "_")
        text = f"0,{value},0.5" if flag in ("--k0", "--semiaxes") else value
        assert run(["gap", flag, text, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: must be finite")

    @pytest.mark.parametrize("command", ["gap", "face-map"])
    def test_fractional_m0_exits_2_and_is_named(self, tmp_path, capsys, command):
        # the flag parses like the config key: 1.5 is refused, not truncated to 1
        assert run([command, "--m0", "1.5,0,1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: m0: component '1.5' is not an integer")

    def test_verify_classifies_k0_once(self, tmp_path, monkeypatch):
        # the oracle measures the model the prediction built; a stub FD solve
        # returns the unperturbed pair c|k0| = 0.5 and one band just above it
        from bandscan import lattice
        from bandscan.oracle import gapscan

        calls = []
        classify = lattice.classify_wavevector
        monkeypatch.setattr(lattice, "classify_wavevector",
                            lambda *a: calls.append(a) or classify(*a))
        monkeypatch.setattr(
            gapscan, "fd_dirichlet_eigenvalues",
            lambda k, a, n, count, v0=None: SimpleNamespace(
                eigenvalues=np.array([0.25, 0.26]), vectors=np.eye(2)),
        )
        out = tmp_path / "once"
        assert run(["gap", "--a", "0.1", "--verify", "--out", str(out)]) == 0
        assert len(calls) == 1
        report = GapReport.from_text((out / "report.txt").read_text())
        assert (report.measured_lo_over_c, report.measured_hi_over_c) == (0.5, math.sqrt(0.26))

    def test_verify_failure_exits_3_with_partial_report(self, tmp_path, monkeypatch, capsys):
        from bandscan.oracle import gapscan

        monkeypatch.setattr(
            gapscan, "measure_gap_numeric",
            lambda model, **kw: (_ for _ in ()).throw(NumericalError("boom")),
        )
        out = tmp_path / "run5"
        rc = run(["gap", "--a", "0.1", "--verify", "--out", str(out)])
        assert rc == 3
        assert (out / "report.txt").exists()
        assert "boom" in capsys.readouterr().err

    def test_verify_mesh_shape_solves_bem_once(self, tmp_path, monkeypatch, capsys):
        # the FD oracle masks a sphere, so --verify refuses a mesh before any
        # BEM solve; without --verify the prediction solves BEM once
        from bandscan import capacitance, meshes
        from bandscan.oracle import gapscan

        path = tmp_path / "s.off"
        meshes.write_off(meshes.icosphere(1), path)
        calls = []
        bem = capacitance.capacitance_bem
        monkeypatch.setattr(capacitance, "capacitance_bem",
                            lambda mesh, refine_check=False:
                            calls.append(bem(mesh, refine_check)) or calls[-1])
        oracle_params = []
        monkeypatch.setattr(gapscan, "measure_gap_numeric",
                            lambda model, **kw: oracle_params.append(model.params))
        out = tmp_path / "run7"
        argv = ["gap", "--shape", "mesh", "--mesh", str(path), "--a", "0.1", "--out", str(out)]
        assert run(argv + ["--verify"]) == 2
        assert capsys.readouterr().err.startswith("error: shape: ")
        assert calls == [] and oracle_params == []
        assert run(argv) == 0
        assert len(calls) == 1 and oracle_params == []
        report = GapReport.from_text((out / "report.txt").read_text())
        assert report.q == calls[0].q

    @pytest.mark.parametrize("command", [
        ["gap", "--verify", "--shape", "ellipsoid", "--semiaxes", "3,1,0.5"],
        ["gap", "--verify", "--q", "2"],
    ])
    def test_fd_oracle_refuses_a_shape_it_does_not_mask(self, tmp_path, capsys, command):
        # the FD oracle masks the sphere of q = 1; measuring the ellipsoid's
        # prediction against it once gave rel_discrepancy 0.335 and exit 0,
        # and the prediction at q = 2 gave 0.532
        rc = run(command + ["--problem", "dirichlet", "--k0", "0,0,0.5",
                            "--a", "0.4", "--n", "24", "--out", str(tmp_path / "o")])
        assert rc == 2
        field = "q" if "--q" in command else "shape"
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not (tmp_path / "o").exists()

    def test_verify_transmission_fast(self, tmp_path, capsys):
        out = tmp_path / "run6"
        rc = run([
            "gap", "--problem", "transmission", "--k0", "0,0,0.5", "--m0", "0,0,1",
            "--a", "0.8397506176105911", "--gamma-minus", "1.2", "--rho-plus", "1.2",
            "--verify", "--g-max", "3", "--out", str(out),
        ])
        assert rc == 0
        report = GapReport.from_text((out / "report.txt").read_text())
        assert report.measured_lo_over_c is not None
        assert report.rel_discrepancy == pytest.approx(0.0, abs=0.25)

    @pytest.mark.parametrize("argv", [
        ["--a", "0.4", "--n", "16"],
        ["--problem", "transmission", "--a", "0.5", "--gamma-minus", "1.3", "--g-max", "3"],
    ])
    def test_verify_report_does_not_depend_on_the_oracle_caches(self, tmp_path, capsys, argv):
        # the second run reuses the cached sector, modes and coefficient matrices of the
        # first; the third builds them again
        from bandscan.oracle import fd, pwe

        reports = []
        for i in range(3):
            if i == 2:
                for cached in (fd._sector, fd._frequencies, pwe._modes, pwe._coefficient_matrices):
                    cached.cache_clear()
            out = tmp_path / str(i)
            assert run(["gap", "--verify", "--k0", "0.5,0.2,0", "--m0", "1,0,0", *argv,
                        "--out", str(out)]) == 0
            reports.append((out / "report.txt").read_bytes())
        assert GapReport.from_text(reports[0].decode()).measured_lo_over_c is not None
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_verify_prints_staircase_warning_once(self, tmp_path):
        # 2.52 grid cells across the sphere: every FD solve of the ray warns
        out = _python("-m", "bandscan.cli", "gap", "--verify", "--k0", "0,0,0.5", "--m0", "0,0,1",
                      "--a", "0.33", "--n", "24", "--out", str(tmp_path))
        assert out.returncode == 0
        assert out.stderr.count("staircase error is large") == 1
        # named on the line that called into the oracle layer, not on one inside it
        assert "cli.py:" in out.stderr and "gapscan.py" not in out.stderr

    @pytest.mark.parametrize("problem", ["dirichlet", "transmission"])
    def test_higher_order_rejection_names_k0(self, tmp_path, capsys, problem):
        rc = run([
            "gap", "--problem", problem, "--k0", "0.5,0.5,0", "--m0", "1,0,0",
            "--a", "0.1", "--out", str(tmp_path / "ho"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "k0" in err and "higher-order" in err

    def test_negative_vector_after_space(self, tmp_path, capsys):
        out = tmp_path / "neg"
        rc = run([
            "gap", "--k0", "-0.5,0.2,0", "--m0", "-1,0,0", "--a", "0.1",
            "--out", str(out),
        ])
        assert rc == 0
        report = GapReport.from_text((out / "report.txt").read_text())
        assert report.k0 == (-0.5, 0.2, 0.0)
        assert report.m0 == (-1, 0, 0)
        assert report.verdict == "GapPredicted"


class TestBands:
    def test_stdout_single_sample(self, capsys):
        rc = run([
            "bands", "--a", "0.1", "--delta-tilde-min", "0", "--delta-tilde-max", "0",
            "--samples", "1",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "delta_tilde,omega_minus_over_c,omega_plus_over_c"
        dt, lo, hi = (float(t) for t in lines[1].split(","))
        assert (dt, lo) == (0.0, 0.5)
        assert hi == pytest.approx(0.5101321183642338, rel=1e-12)

    def test_file_output(self, tmp_path):
        path = tmp_path / "bands.csv"
        rc = run(["bands", "--a", "0.1", "--out-file", str(path)])
        assert rc == 0
        assert path.read_text().startswith("delta_tilde,")

    def test_stdout_equals_file_output(self, tmp_path, capsys):
        argv = ["bands", "--a", "0.1", "--k0", "0.5,0.2,0", "--m0", "1,0,0", "--samples", "21"]
        path = tmp_path / "bands.csv"
        assert run(argv + ["--out-file", str(path)]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().out == path.read_text()

    def test_long_scan_crosses_the_writer_chunk(self, tmp_path):
        # 70,000 rows: the writer formats 65,536 at a time
        path = tmp_path / "bands.csv"
        assert run(["bands", "--a", "0.1", "--k0", "0.5,0.2,0", "--m0", "1,0,0",
                    "--samples", "70000", "--out-file", str(path)]) == 0
        scan = twomode.pair_model((0.5, 0.2, 0.0), (1, 0, 0), DirichletParams(a=0.1)).scan(
            (-0.05, 0.05), 70_000)
        rows = zip(*(column.tolist() for column in scan))
        assert path.read_text() == "delta_tilde,omega_minus_over_c,omega_plus_over_c\n" + "".join(
            f"{dt!r},{lo!r},{hi!r}\n" for dt, lo, hi in rows)


class TestFaceMap:
    def test_writes_and_reports(self, tmp_path, capsys):
        path = tmp_path / "face.csv"
        rc = run(["face-map", "--m0", "0,0,1", "--resolution", "51", "--out", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flagged area: " in out and "pi/" not in out  # no unit-face expectation
        lines = path.read_text().splitlines()
        assert lines[0] == "k1,k2,gap_flag"
        assert len(lines) == 1 + 51 * 51


class TestGlobalScan:
    def test_covers_window(self, tmp_path, capsys):
        path = tmp_path / "cover.csv"
        rc = run([
            "global-scan", "--omega-lo", "0.4", "--omega-hi", "1.2",
            "--samples", "25", "--a", "0.1", "--out", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max residual" in out
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 25
        assert all(int(r.split(",")[4]) == 1 for r in rows)
        assert max(float(r.split(",")[5]) for r in rows) < 1e-10

    def test_csv_rows_are_the_per_omega_reference(self, tmp_path, capsys):
        path = tmp_path / "cover.csv"
        assert run(["global-scan", "--omega-lo", "0.3", "--omega-hi", "2.5", "--samples", "301",
                    "--a", "0.2", "--q", "1.5", "--out", str(path)]) == 0
        p = DirichletParams(a=0.2, q=1.5)
        lines, worst = ["omega_over_c,k1,k2,k3,order,residual\n"], 0.0
        for om in np.linspace(0.3, 2.5, 301).tolist():
            k, order, residual, _ = reference_cover_frequency(om, p)
            lines.append(f"{om!r},{k[0]!r},{k[1]!r},{k[2]!r},{order},{residual!r}\n")
            worst = max(worst, residual)
        assert path.read_text() == "".join(lines)
        assert capsys.readouterr().out == (
            f"wrote {path}\ncovered 301 frequencies in [0.3, 2.5]\n"
            f"max residual = {worst:.3e}; all wave vectors non-exceptional\n")

    def test_bad_window_exits_2(self):
        assert run(["global-scan", "--omega-lo", "1.2", "--omega-hi", "0.4"]) == 2


class TestCapacitance:
    def test_sphere(self, capsys):
        assert run(["capacitance", "--sphere"]) == 0
        out = capsys.readouterr().out
        assert "q = 1.0" in out and "analytic" in out

    def test_ellipsoid(self, capsys):
        assert run(["capacitance", "--ellipsoid", "2,1,1"]) == 0
        q = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert q == pytest.approx(1.3151907, rel=1e-6)

    def test_mesh(self, tmp_path, capsys):
        from bandscan import meshes

        path = tmp_path / "s.off"
        meshes.write_off(meshes.icosphere(2), path)
        assert run(["capacitance", "--mesh", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bem" in out and "panels = 320" in out

    def test_no_shape_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["capacitance"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        pytest.param("--sphere --ellipsoid 2,1,1",
                     "argument --ellipsoid: not allowed with argument --sphere", id="two-shapes"),
        pytest.param("--ellipsoid 2,1,1 --mesh nope.off",
                     "argument --mesh: not allowed with argument --ellipsoid", id="shape-and-mesh"),
        pytest.param("--sphere --refine-check", "refine_check: ", id="refine-check-no-mesh"),
    ])
    def test_one_shape_and_refine_check_with_a_mesh_only(self, capsys, argv, message):
        # each once printed the first shape's q and exited 0
        try:
            rc = run(["capacitance", *argv.split()])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and f"error: {message}" in err

    def test_refine_check_past_the_cap_exits_2_before_any_solve(self, tmp_path, monkeypatch,
                                                                  capsys):
        # once solved the 5,120 panels for 2.4 s, then refused "20480 panels" under `mesh`
        from bandscan import capacitance, meshes

        path = tmp_path / "ico4.off"
        meshes.write_off(meshes.icosphere(4), path)
        calls = []
        monkeypatch.setattr(capacitance, "_assemble", lambda mesh: calls.append(mesh))
        assert run(["capacitance", "--mesh", str(path), "--refine-check"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and calls == []
        assert err == ("error: refine_check: subdividing 5120 panels gives 20480, "
                       "past the dense-solve cap 10000\n")


_TETRA_FACES = "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
#: Mesh files that cannot be used: each once ended in a traceback or in an error naming no field.
_BAD_MESH_FILES = {
    "missing": None,
    "non-ascii": "OFF\n# caf\u00e9\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n" + _TETRA_FACES,
    "quad": "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n",
    "open": "OFF\n5 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n" + _TETRA_FACES[:-8] + "3 1 2 4\n",
}


@pytest.mark.parametrize("kind", list(_BAD_MESH_FILES))
@pytest.mark.parametrize("command", ["capacitance --mesh {}", "gap --shape mesh --mesh {}"])
def test_unusable_mesh_file_exits_2_and_names_mesh(tmp_path, monkeypatch, capsys, kind, command):
    monkeypatch.chdir(tmp_path)
    if _BAD_MESH_FILES[kind] is not None:
        Path(f"{kind}.off").write_bytes(_BAD_MESH_FILES[kind].encode("utf-8"))
    assert run(command.format(f"{kind}.off").split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: mesh: ") and "Traceback" not in err
    assert sorted(os.listdir()) == ([] if kind == "missing" else [f"{kind}.off"])


def test_config_and_fd_oracle_share_one_grid_range():
    # the CLI once held its own n <= 96, and the oracle checked only n >= 16
    from bandscan import config, dirichlet
    from bandscan.oracle import fd

    assert (config.MIN_N, config.MAX_N) == (fd.MIN_N, fd.MAX_N) == (16, 96)
    assert config.MIN_N is fd.MIN_N is dirichlet.MIN_N
    assert config.MAX_N is fd.MAX_N is dirichlet.MAX_N


@pytest.mark.parametrize("command", [["gap", "--verify"], ["gap"]])
def test_g_max_above_the_basis_cap_exits_2_and_is_named(tmp_path, capsys, command):
    # g_max = 11 once reached the PWE basis and failed there with "basis size
    # 12167 exceeds cap 12000", which names no field; the dense solve at
    # g_max = 7 peaks at 513 MB.  The config and the oracle share one cap
    from bandscan import transmission
    from bandscan.oracle import pwe

    assert pwe.MAX_G_MAX == transmission.MAX_G_MAX == 6
    rc = run(command + ["--problem", "transmission", "--k0", "0,0,0.5",
                        "--a", "0.5", "--g-max", "7", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "error: g_max: must be >= 2 and <= 6\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("argv, field", [
    pytest.param("face-map --half-width {}", "half_width", id="face-map-half-width"),
    pytest.param("capacitance --ellipsoid {},1,1", "semiaxes", id="capacitance-ellipsoid"),
    pytest.param("global-scan --omega-lo 0.4 --omega-hi 1 --q {}", "q", id="global-scan-q"),
    pytest.param("global-scan --omega-lo 0.4 --omega-hi {}", "omega_hi", id="global-scan-omega-hi"),
])
def test_non_finite_flag_outside_gap_exits_2_and_is_named(
    tmp_path, monkeypatch, capsys, argv, field, value
):
    monkeypatch.chdir(tmp_path)
    assert run(argv.format(value).split()) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: .*\b{field}\b.*\n", err)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("argv, field", [
    pytest.param("classify 0 0 0.5 --tol={}", "tol", id="classify-tol"),
    pytest.param("classify 0 0 0.5 --exclusion-band={}", "exclusion_band",
                 id="classify-exclusion-band"),
    # a non-exceptional k has no shift to judge, and once left the band unchecked
    pytest.param("classify 0.3 0.1 0.2 --exclusion-band={}", "exclusion_band",
                 id="classify-non-exceptional-exclusion-band"),
    pytest.param("face-map --tol={}", "tol", id="face-map-tol"),
    pytest.param("face-map --exclusion-band={}", "exclusion_band", id="face-map-exclusion-band"),
])
def test_bad_lattice_tolerance_exits_2_and_is_named(tmp_path, monkeypatch, capsys, argv, field,
                                                    value):
    # a NaN tolerance once classified an order-two point as order 1, and an
    # infinite band flagged no face pixel, both with exit 0
    monkeypatch.chdir(tmp_path)
    assert run(argv.format(value).split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {field}: must be finite and >= 0")


@pytest.mark.parametrize("argv, tol", [
    ("classify 0 0 0.5 --tol 0.6", "0.6"),
    ("face-map --tol 10 --out f.csv", "10.0"),
    ("gap --tol 0.02 --out o", "0.02"),
])
def test_tolerance_past_the_shift_search_bound_exits_2(tmp_path, monkeypatch, capsys, argv, tol):
    # at tol 0.6 classify printed "order = 7" for (0, 0, 0.5), where 10 shifts
    # meet the plane condition: the search ball holds them only up to 0.01
    monkeypatch.chdir(tmp_path)
    assert run(argv.split()) == 2
    assert capsys.readouterr() == (
        "", f"error: tol: must be finite and >= 0 and <= {lattice.MAX_TOL}, got {tol}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, field", [
    ("gap --a 2", "a"),
    ("gap --problem transmission --a 0", "a"),
    ("gap --problem transmission --a 4", "a"),  # volume fraction 1.09
    ("gap --problem transmission --gamma-plus -1", "gamma_plus"),
    ("gap --tol -1", "tol"),
    ("gap --exclusion-band -1", "exclusion_band"),
    ("gap --problem transmission --g-max 7", "g_max"),
    ("global-scan --omega-lo 0.5 --omega-hi 1 --q 0 --out g.csv", "q"),
    ("global-scan --omega-lo 0.5 --omega-hi 1 --a -1 --out g.csv", "a"),
    # past float64's range: a1^2 overflows, so R_F = 0 (a ZeroDivisionError traceback), or
    # a2^2 and a3^2 underflow, so R_F = inf ("capacitance must be positive, got 0.0", exit 3)
    ("capacitance --ellipsoid 1e200,1,1", "semiaxes"),
    ("gap --shape ellipsoid --semiaxes 1e200,1,1 --a 0.1", "semiaxes"),
    ("capacitance --ellipsoid 1,1e-320,1e-320", "semiaxes"),
    # |k|^2 overflows (numpy's warning came first), and a span that overflows in np.linspace
    # (nan and inf rows with exit 0)
    ("classify 1e308 0 0", "k"),
    ("gap --k0=0,0,1e308 --m0 0,0,1", "k0"),
    ("bands --delta-tilde-min=-1e308 --delta-tilde-max=1e308 --samples 3", "delta_tilde_max"),
])
def test_refusal_of_the_params_owner_exits_2_and_is_named(tmp_path, monkeypatch, capsys, argv,
                                                          field):
    # the params types and lattice own these rules; their messages once named
    # no field, as "a=2.0 too large; require a < 0.5*pi"
    monkeypatch.chdir(tmp_path)
    assert run(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {field}: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("a", ["2", "-1"])
def test_bad_a_with_a_mesh_is_refused_before_the_bem_solve(tmp_path, monkeypatch, capsys, a):
    # a = 2 once ran the BEM first: 3.6 s for a 5,120-panel mesh
    from bandscan import capacitance, meshes

    path = tmp_path / "s.off"
    meshes.write_off(meshes.icosphere(1), path)
    calls = []
    monkeypatch.setattr(capacitance, "capacitance_bem", lambda *args: calls.append(args))
    argv = ["gap", "--shape", "mesh", "--mesh", str(path), "--a", a,
            "--out", str(tmp_path / "o")]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: a: ")
    assert calls == [] and not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    "gap --k0 0.3,0.1,0.2 --m0 1,0,0",  # off the plane of m0
    "gap --k0 0.5,0.5,0.5",  # higher order
    "bands --k0 40,0,0",  # past the cap of the shift search
    "gap --k0 0.5,0.3,0.4 --m0 1,0,0",  # |k0|/|m0| = sqrt(2)/2, in the exclusion band
])
def test_pair_refusal_with_a_mesh_runs_no_bem_solve(tmp_path, monkeypatch, capsys, argv):
    # each once waited 2.5-3.6 s for the BEM solve of this 5,120-panel mesh
    from bandscan import capacitance, meshes

    path = tmp_path / "s.off"
    meshes.write_off(meshes.icosphere(4), path)
    calls = []
    monkeypatch.setattr(capacitance, "capacitance_bem", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    assert run(argv.split() + ["--shape", "mesh", "--mesh", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "k0" in err
    assert calls == [] and os.listdir() == ["s.off"]


@pytest.mark.parametrize("argv", [
    "gap --out o", "gap --problem transmission --a 0.5 --out o", "bands",
    "gap --shape ellipsoid --semiaxes 0.2,0.1,0.1 --out o",
])
def test_a_request_classifies_k0_once(tmp_path, monkeypatch, capsys, argv):
    calls = []
    classify = lattice.classify_wavevector
    monkeypatch.setattr(lattice, "classify_wavevector", lambda *a: calls.append(a) or classify(*a))
    monkeypatch.chdir(tmp_path)
    assert run(argv.split() + ["--k0", "0.5,0.2,0", "--m0", "1,0,0"]) == 0
    assert len(calls) == 1


def test_transmission_pair_is_judged_at_the_request_tol(tmp_path, monkeypatch, capsys):
    # 2 k0.m0 - |m0|^2 = 2e-7: on the plane at tol 1e-6, off it at the default 1e-9
    monkeypatch.chdir(tmp_path)
    argv = ["gap", "--problem", "transmission", "--k0=0.5000001,0.2,0", "--m0=1,0,0",
            "--a", "0.5", "--gamma-minus", "1.3", "--out", "o"]
    assert run(argv + ["--tol", "1e-6"]) == 0
    assert run(argv) == 2
    assert "violates the plane condition" in capsys.readouterr().err


_NUMBERS =("0", "1", "-1", "0.5", "2e-3", " 1 ")
_NOT_NUMBERS = ("", " ", "x", "1e", "--", "0x1", "1.2.3", "+-1", "1;2")
#: Vector text that is not 3 numbers: an empty component, a non-numeric
#: token, or a count other than 3 (the empty value included).
malformed_vectors = st.lists(st.sampled_from(_NUMBERS + _NOT_NUMBERS), max_size=5).filter(
    lambda parts: len(parts) != 3 or any(p in _NOT_NUMBERS for p in parts)
).map(",".join)


@pytest.mark.parametrize("command, flag, field", [
    ("gap", "--k0", "k0"),
    ("gap", "--m0", "m0"),
    ("gap", "--semiaxes", "semiaxes"),
    # the value parses as the semiaxes key; an empty `--ellipsoid=--` names the flag
    ("capacitance", "--ellipsoid", "semiaxes|ellipsoid"),
])
@settings(max_examples=60, deadline=None)
@given(text=malformed_vectors)
def test_malformed_vector_text_exits_2_and_is_named(command, flag, field, text):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert run([command, f"{flag}={text}"]) == 2
    assert re.match(rf"error: ({field}): ", err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv, field", [
    ("gap --a=--", "a"), ("face-map --m0=--", "m0"), ("gap --k0=--", "k0"),
])
def test_double_dash_value_exits_2_and_is_named(capsys, argv, field):
    # argparse before Python 3.12 passes `--flag=--` on as [], which once
    # ended in an AttributeError or TypeError traceback
    assert run(argv.split()) == 2
    assert re.match(rf"error: {field}: ", capsys.readouterr().err)


@pytest.mark.parametrize("argv, field", [
    ("gap --out taken", "out_dir"),
    ("bands --out-file nodir/x.csv", "out_file"),
    ("face-map --out nodir/x.csv", "out"),
    ("global-scan --omega-lo 0.5 --omega-hi 1 --out nodir/x.csv", "out"),
])
def test_unwritable_output_path_exits_2_and_is_named(tmp_path, monkeypatch, capsys, argv, field):
    # a file where the output directory goes, or a missing directory, ended
    # in a FileExistsError or FileNotFoundError traceback with exit 1
    monkeypatch.chdir(tmp_path)
    Path("taken").write_text("")
    assert run(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {field}: cannot write ")
    assert sorted(os.listdir()) == ["taken"]


@pytest.mark.parametrize("out", [[], ["--out", "scan.csv"]])
def test_window_without_a_propagating_branch_exits_3(tmp_path, monkeypatch, capsys, out):
    # omega/c = 0.1 at a = 0.6 is below 2 sqrt(A), where t + A/t = omega has no
    # real root: the whole window is refused before any row is written
    monkeypatch.chdir(tmp_path)
    assert run(["global-scan", "--omega-lo", "0.1", "--omega-hi", "1", "--a", "0.6", *out]) == 3
    assert capsys.readouterr() == ("", "numerical failure: no propagating branch at "
                                   "omega/c=0.1: a too large for the window\n")
    assert not any(tmp_path.iterdir())


def test_face_map_of_a_tiny_window_takes_its_fraction_from_the_pixel_counts(tmp_path, capsys):
    # (2 half_width)^2 underflows at 1e-320: flagged_fraction once divided by zero after the
    # CSV was written; every pixel of the window sits at the face centre, so all are flagged
    path = tmp_path / "f.csv"
    assert run(["face-map", "--half-width", "1e-320", "--resolution", "3", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "flagged pixels: 9 of 9\n" in out
    assert "flagged area per unit window area: 1.000000\n" in out
    assert len(path.read_text().splitlines()) == 10


def test_face_map_of_a_window_flagged_whole_prints_its_area(tmp_path, capsys):
    # every pixel of |t| <= 0.2 on the face of (0, 0, 1) is in the gap disk of radius 1/2
    assert run(["face-map", "--half-width", "0.2", "--out", str(tmp_path / "f.csv")]) == 0
    out = capsys.readouterr().out
    assert "flagged pixels: 10201 of 10201\n" in out
    assert "flagged area: 0.160000\n" in out
    assert "flagged area per unit window area: 1.000000\n" in out


def test_gap_whose_splitting_overflows_exits_2_and_names_gamma_minus(tmp_path, capsys):
    # the ray's first sample once took the blame: "delta_tilde_min: the branches at -0.05 ..."
    argv = ["gap", "--problem", "transmission", "--k0=3,0.31,0.17", "--m0=6,0,0", "--a", "3.8",
            "--gamma-minus", "1e308", "--out", str(tmp_path / "o")]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: gamma_minus: centre ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, field", [
    ("gap --k0 0,0,0", "k0"), ("bands --k0 0,0,0", "k0"), ("face-map --m0 0,0,0", "m0"),
])
def test_zero_vector_exits_2_and_is_named(tmp_path, monkeypatch, capsys, argv, field):
    # "zero wave vector is not classifiable" and "lattice shift must be nonzero" named no field
    monkeypatch.chdir(tmp_path)
    assert run(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {field}: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, field", [
    ("gap --problem transmission --q 5", "q"),
    # the ellipsoid's own q would be reported
    ("gap --shape ellipsoid --semiaxes 1,0.8,0.6 --q 5", "q"),
    ("gap --semiaxes 3,1,1", "semiaxes"),
    ("gap --mesh sphere.off", "mesh"),
    ("bands --problem transmission --q 0.5", "q"),
    ("bands --shape ellipsoid --semiaxes 1,1,1 --mesh sphere.off", "mesh"),
    # the materials are the transmission problem's, n is the FD oracle's, g_max the PWE's
    ("gap --gamma-plus 2", "gamma_plus"),
    ("gap --gamma-minus 2 --rho-plus 3", "gamma_minus"),
    ("bands --rho-plus 3", "rho_plus"),
    ("gap --rho-minus 0.5", "rho_minus"),
    ("gap --problem transmission --n 64 --verify", "n"),
    ("gap --problem dirichlet --g-max 7", "g_max"),
])
def test_config_field_the_request_ignores_exits_2_and_is_named(tmp_path, monkeypatch, capsys,
                                                               argv, field):
    # each once exited 0 and used the defaults in place of the value given
    monkeypatch.chdir(tmp_path)
    assert run(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"error: {field}: problem = \w+ with shape = \w+ does not use it, "
                        r"got .*\n", err)
    assert not any(tmp_path.iterdir())


#: The config keys that each config-driven command has no flag for.
UNREAD = {
    "gap": set(),
    "bands": {"out_dir", "verify", "n", "g_max"},
}


@pytest.mark.parametrize("command", sorted(UNREAD))
def test_config_command_flags_are_the_keys_it_reads(command):
    dests = set(vars(cli.build_parser().parse_args([command]))) - {"command", "config", "out_file"}
    assert dests == KNOWN_KEYS - UNREAD[command]


@pytest.mark.parametrize("command, flag", [
    (command, "--out" if key == "out_dir" else "--" + key.replace("_", "-"))
    for command in sorted(UNREAD) for key in sorted(UNREAD[command])
])
def test_flag_the_command_never_reads_exits_2_and_is_named(tmp_path, monkeypatch, capsys,
                                                           command, flag):
    # each once exited 0 and dropped the value: `bands --out DIR` wrote to stdout
    # and created nothing; an abbreviated `--out` would reach `--out-file`
    monkeypatch.chdir(tmp_path)
    argv = [command, flag] if flag == "--verify" else [command, flag, "2"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: unrecognized arguments: {' '.join(argv[1:])}\n" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, line", [
    ("bands", "out_dir = elsewhere"), ("bands", "verify = true"),
])
def test_config_file_key_the_command_never_reads_exits_2_and_is_named(tmp_path, monkeypatch,
                                                                      capsys, command, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scan.cfg").write_text(line + "\n")
    assert run([command, "--config", "scan.cfg"]) == 2
    key, _, text = line.split()
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {key}: {command} does not use it, got ")
    assert [p.name for p in tmp_path.iterdir()] == ["scan.cfg"]


def test_readme_example_with_the_example_config_runs(tmp_path, monkeypatch, capsys):
    # `gap --config configs/example_gap.cfg --verify` once exited 3: the
    # example's a = 0.1 spans 1.02 cells of its n = 32 grid, under the floor of 2
    root = Path(__file__).resolve().parents[1]
    (line,) = [l for l in (root / "README.md").read_text().splitlines()
               if l.startswith("bandscan gap --config configs/example_gap.cfg")]
    shutil.copytree(root / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(line.split()[1:]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["gap", "bands"])
def test_example_config_loads(tmp_path, monkeypatch, capsys, command):
    # it sets every key at its default, and a key at its default is accepted anywhere
    example = Path(__file__).resolve().parents[1] / "configs" / "example_gap.cfg"
    monkeypatch.chdir(tmp_path)
    assert run([command, "--config", str(example)]) == 0


@pytest.mark.parametrize("argv, field", [
    ("classify 36.01 0 0", "k"),
    ("gap --k0 0,0,36.5 --m0 0,0,73", "k0"),
    ("gap --problem transmission --k0 0,36.5,0 --m0 0,73,0", "k0"),
    ("bands --k0 36.5,0,0 --m0 73,0,0", "k0"),
    # the window of half-width 1 around m0/2 = (36, 0, 0) reaches |k| = 36.03
    ("face-map --m0 72,0,0 --resolution 11", "m0"),
])
def test_shift_search_past_its_cap_exits_2_and_is_named(tmp_path, monkeypatch, capsys,
                                                        argv, field):
    # the candidate-shift box grows as (4|k|)^3: `classify 40 0 0.5` once peaked at 274 MB
    monkeypatch.chdir(tmp_path)
    assert run(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"error: {field}: the candidate-shift search at \|k\| = [\d.]+ passes "
                        r"its cap \|k\| <= 36\n", err)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("module", ["bandscan", "bandscan.oracle"])
def test_every_exported_name_resolves(module):
    # the package root loads `oracle` and `capacitance` on first use, so a
    # stale name in __all__ would otherwise show up only when a caller asks for it
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_no_module_reads_the_environment():
    # an environment variable is a setting that no flag, config key or report shows
    src = Path(cli.__file__).parent
    assert [p.name for p in sorted(src.rglob("*.py"))
            if re.search(r"environ|getenv", p.read_text())] == []


def test_every_config_field_is_a_key_and_a_gap_flag():
    assert {f.name for f in dataclasses.fields(ScanConfig)} == KNOWN_KEYS
    assert KNOWN_KEYS <= set(vars(cli.build_parser().parse_args(["gap"])))


def _python(*args):
    """Run the interpreter on `args` with this checkout's bandscan first on the path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_import_leaves_integrate_and_optimize_unloaded(tmp_path):
    # scipy is loaded by the oracles and the BEM only, so no command that
    # predicts in closed form loads it, from the import on; nor does one build
    # the cube group, which only an oracle's sector needs
    script = f"""
import contextlib, io, os, sys
import bandscan.cli as cli
from bandscan.lattice import cubic_symmetries
print(sorted(m for m in sys.modules if m.startswith("scipy")))
os.chdir({str(tmp_path)!r})
for argv in (["classify", "0", "0", "0.5"], ["gap", "--a", "0.1"],
             ["bands", "--a", "0.1", "--samples", "11"], ["face-map", "--resolution", "11"],
             ["global-scan", "--omega-lo", "0.4", "--omega-hi", "0.6", "--samples", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("scipy")))
print(cubic_symmetries.cache_info().currsize)
"""
    out = _python("-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]", "0"]
    # the package root still reaches both on first use
    out = _python("-c", "import bandscan; print(bandscan.oracle.fd_dirichlet_eigenvalues.__name__,"
                        " bandscan.capacitance.capacitance_bem.__name__)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["fd_dirichlet_eigenvalues", "capacitance_bem"]


def test_ellipsoid_requests_leave_integrate_unloaded(tmp_path):
    # the ellipsoid's q is Carlson's R_F in closed form: no quadrature module loads
    script = f"""
import contextlib, io, os, sys
import bandscan.cli as cli
os.chdir({str(tmp_path)!r})
for argv in (["gap", "--shape", "ellipsoid", "--semiaxes", "2,1,1"],
             ["capacitance", "--ellipsoid", "2,1,1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("scipy.integrate")))
"""
    out = _python("-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]"]


def test_one_parser_serves_every_request(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; each request's output equals a
    # fresh process's, and a replaced command function is the one that runs
    cli.build_parser.cache_clear()
    requests = {  # argv: the files it writes
        "classify 0 0": (),
        "gap --a 0.1 --samples 7 --out g": ("g/report.txt", "g/branches.csv"),
        "classify 0.5 0.5 0.5": (),
        "face-map --resolution 21 --out f.csv": ("f.csv",),
    }
    src = os.path.dirname(os.path.dirname(cli.__file__))
    (tmp_path / "fresh").mkdir()
    expected = {}
    for argv, files in requests.items():
        proc = subprocess.run([sys.executable, "-m", "bandscan.cli", *argv.split()],
                              capture_output=True, text=True, cwd=tmp_path / "fresh",
                              env=dict(os.environ, PYTHONPATH=src))
        expected[argv] = (proc.returncode, proc.stdout, proc.stderr,
                          [(tmp_path / "fresh" / f).read_bytes() for f in files])
    assert expected["classify 0 0"][0] == 2

    (tmp_path / "in").mkdir()
    monkeypatch.chdir(tmp_path / "in")
    calls = []
    for round_ in range(2):
        if round_:
            classify = cli.cmd_classify
            monkeypatch.setattr(cli, "cmd_classify",
                                lambda args: calls.append(args.k) or classify(args))
        for argv, files in requests.items():
            try:
                rc = run(argv.split())
            except SystemExit as exc:
                rc = exc.code
            out, err = capsys.readouterr()
            assert (rc, out, err, [Path(f).read_bytes() for f in files]) == expected[argv]
    assert calls == [[0.5, 0.5, 0.5]]
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv, message", [
    ("face-map --resolution 100000", "resolution: must be >= 2 and <= 1601"),
    # the range's other end; both were once refused as the library's `samples`
    ("face-map --resolution 1", "resolution: must be >= 2 and <= 1601"),
    ("face-map --half-width 1000", "half_width: must be > 0 and <= 8.0, got 1000.0"),
    ("bands --samples 100000000000", "samples: must be >= 1 and <= 1000000"),
    ("gap --samples 1000001", "samples: must be >= 1 and <= 1000000"),
    ("gap --verify --a 0.3 --n 4096", "n: must be >= 16 and <= 96"),
    ("global-scan --omega-lo 0.4 --omega-hi 1 --samples 1000000000",
     "samples: must be >= 1 and <= 100000"),
])
def test_request_beyond_the_memory_caps_exits_2_and_is_named(tmp_path, monkeypatch, capsys,
                                                              argv, message):
    # each once ended in a numpy memory-error traceback, or would have grown
    # the candidate box as (4 half_width)^3
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        assert run(argv.split()) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not any(tmp_path.iterdir())
    assert peak < 4 << 20  # refused before anything the size of the request is allocated
