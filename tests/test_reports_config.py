import io
import math
import os
from dataclasses import fields

import numpy as np
import pytest

from bandscan import dirichlet, twomode
from bandscan.config import (
    KNOWN_KEYS,
    ScanConfig,
    build_config,
    encode,
    parse_config_file,
)
from bandscan.errors import ConfigError
from bandscan.reports import (
    GapReport,
    write_branch_csv,
    write_face_map_csv,
)
from bandscan.transmission import MaterialSpec, TransmissionParams
from bandscan import lattice


def sample_report():
    return GapReport(
        problem="dirichlet",
        k0=(0.1 + 0.2, 0.0, 0.5),  # deliberately non-representable nicely
        m0=(0, 0, 1),
        a=0.1,
        verdict="GapPredicted",
        status="predicted",
        nu=1e-17,
        ratio=math.sqrt(0.5) / 2.0,
        q=1.0,
        nu_minus=0.0,
        nu_plus=2.0,
        a_tilde=4.0 * math.pi * 0.1 / (2.0 * math.pi) ** 3,
        predicted_lo_over_c=0.5,
        predicted_hi_over_c=0.5101321183642338,
    )


class TestGapReport:
    def test_roundtrip_is_lossless(self):
        rep = sample_report()
        back = GapReport.from_text(rep.to_text())
        assert back == rep

    def test_roundtrip_with_measured_fields(self):
        rep = sample_report()
        from dataclasses import replace

        rep = replace(rep, measured_lo_over_c=0.502, measured_hi_over_c=0.5093,
                      rel_discrepancy=0.07)
        assert GapReport.from_text(rep.to_text()) == rep

    def test_schema_version_present(self):
        text = sample_report().to_text()
        assert "schema_version = 1" in text.splitlines()

    def test_missing_field_rejected(self):
        text = sample_report().to_text()
        broken = "\n".join(l for l in text.splitlines() if not l.startswith("nu "))
        with pytest.raises(ConfigError, match="nu"):
            GapReport.from_text(broken)

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            GapReport.from_text("just words\n")

    def test_unknown_key_rejected_and_named(self):
        text = sample_report().to_text() + "bogus_field = 1.0\n"
        with pytest.raises(ConfigError, match="bogus_field"):
            GapReport.from_text(text)


class TestCsvWriters:
    def test_branch_csv_deterministic(self):
        p = dirichlet.DirichletParams(a=0.1)
        curve = twomode.pair_model((0, 0, 0.5), (0, 0, 1), p).scan((-0.02, 0.02), 11)
        s1, s2 = io.StringIO(), io.StringIO()
        write_branch_csv(curve, s1)
        write_branch_csv(curve, s2)
        assert s1.getvalue() == s2.getvalue()
        lines = s1.getvalue().splitlines()
        assert lines[0] == "delta_tilde,omega_minus_over_c,omega_plus_over_c"
        assert len(lines) == 12
        # values parse back exactly
        dt, lo, hi = (float(t) for t in lines[1].split(","))
        assert dt == curve.delta_tilde[0]
        assert (lo, hi) == (curve.omega_minus_over_c[0], curve.omega_plus_over_c[0])

    def test_face_map_csv(self):
        fmap = lattice.face_gap_region((0, 0, 1), samples=11)
        out = io.StringIO()
        write_face_map_csv(fmap, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "k1,k2,gap_flag"
        assert len(lines) == 1 + 11 * 11
        flags = {int(l.split(",")[2]) for l in lines[1:]}
        assert flags == {0, 1}


class TestConfig:
    def test_defaults_validate(self):
        cfg = ScanConfig().validated()
        assert cfg.problem == "dirichlet"

    def test_parse_file_and_overrides(self, tmp_path):
        path = tmp_path / "scan.cfg"
        path.write_text(
            "# demo\n"
            "problem = transmission\n"
            "k0 = 0,0,0.5\n"
            "m0 = 0,0,1\n"
            "a = 0.8397506176105911\n"
            "gamma_minus = 1.2\n"
            "rho_plus = 1.2\n"
            "samples = 11\n"
            "verify = false\n"
        )
        vals = parse_config_file(path)
        cfg = build_config(vals, {"samples": 21, "verify": None})
        assert cfg.problem == "transmission"
        assert cfg.samples == 21  # override wins
        assert cfg.gamma_minus == 1.2
        assert cfg.k0 == (0.0, 0.0, 0.5)

    def test_none_unsets_an_optional_key(self, tmp_path):
        path = tmp_path / "scan.cfg"
        path.write_text("semiaxes = none\nmesh = none\n")
        assert parse_config_file(path) == {"semiaxes": None, "mesh": None}

    def test_none_is_not_a_value_of_a_required_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("k0 = none\n")
        with pytest.raises(ConfigError, match="k0"):
            parse_config_file(path)

    def test_encoded_fields_read_back(self, tmp_path):
        cfg = ScanConfig(
            problem="transmission", k0=(0.1 + 0.2, -0.25, 0.5), m0=(-1, 0, 2), a=1.0 / 3.0,
            shape="ellipsoid", semiaxes=(2.0, 1.5, 1e-3), mesh="in clusion.off",
            samples=7, verify=True, exclusion_band=1e-300, c=2.5,
        )
        path = tmp_path / "scan.cfg"
        path.write_text("".join(f"{f.name} = {encode(getattr(cfg, f.name))}\n"
                                for f in fields(cfg)))
        assert ScanConfig(**parse_config_file(path)) == cfg

    def test_example_file_lists_every_key_at_its_default(self):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "example_gap.cfg")
        values = parse_config_file(path)
        assert set(values) == KNOWN_KEYS
        assert ScanConfig(**values) == ScanConfig()

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nope = 3\n")
        with pytest.raises(ConfigError, match="nope"):
            parse_config_file(path)

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("samples = many\n")
        with pytest.raises(ConfigError, match="samples"):
            parse_config_file(path)

    def test_validation_names_field(self, tmp_path, capsys):
        from bandscan import cli

        with pytest.raises(ConfigError, match="problem"):
            build_config({}, {"problem": "heat"})
        # the pair's rules have their owners, which the request meets before any shape solve
        assert cli.main(["gap", "--m0", "0,0,0", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: m0: lattice shift must be nonzero\n"
        with pytest.raises(ConfigError, match="g_max"):
            build_config({}, {"g_max": 1})
        with pytest.raises(ConfigError, match="semiaxes"):
            build_config({}, {"shape": "ellipsoid"})
        with pytest.raises(ConfigError, match="shape"):
            build_config({}, {"problem": "transmission", "shape": "mesh", "mesh": "x"})

    def test_params_sphere_and_ellipsoid(self):
        assert ScanConfig(q=1.5).params() == dirichlet.DirichletParams(a=0.1, q=1.5)
        cfg = ScanConfig(shape="ellipsoid", semiaxes=(2.0, 1.0, 1.0)).validated()
        prolate = math.sqrt(3.0) / math.acosh(2.0)  # closed form for semiaxes (2, 1, 1)
        assert cfg.params().q == pytest.approx(prolate, rel=1e-13)

    def test_params_mesh(self, tmp_path):
        from bandscan import meshes

        path = tmp_path / "s.off"
        meshes.write_off(meshes.icosphere(2), path)
        cfg = ScanConfig(shape="mesh", mesh=str(path)).validated()
        assert cfg.params().q == pytest.approx(1.0, rel=0.05)

    def test_params_missing_mesh(self):
        cfg = ScanConfig(shape="mesh", mesh="/nonexistent/path.off")
        with pytest.raises(ConfigError, match="mesh"):
            cfg.params()

    def test_params_transmission(self):
        cfg = ScanConfig(problem="transmission", a=0.5, gamma_plus=1.1, gamma_minus=1.2,
                         rho_plus=1.3, rho_minus=1.4).validated()
        assert cfg.params() == TransmissionParams(MaterialSpec(1.1, 1.2, 1.3, 1.4), a=0.5)
