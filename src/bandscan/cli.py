"""bandscan command line interface.

Subcommands: classify, gap, bands, face-map, global-scan, capacitance.
Exit codes: 0 success, 2 usage/config error, 3 numerical or oracle
failure.  All frequencies are emitted as omega/c; the --c flag only
rescales the console summary.

gap and bands take one flag per ScanConfig field, made from the field's
name, less the keys the command never reads (`_UNREAD_KEYS`); argparse
refuses those flags, and a config file that sets one is refused.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import fields, replace
from functools import lru_cache

from . import __version__, dirichlet, lattice, twomode
from .config import KNOWN_KEYS, ScanConfig, build_config, coerce, parse_config_file
from .errors import (
    ConfigError,
    DomainError,
    MeshError,
    NumericalError,
)
from .globalscan import global_scan
from .reports import (
    GapReport,
    write_branch_csv,
    write_face_map_csv,
    write_global_scan_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


#: Options whose value is a comma-separated vector.
_VECTOR_OPTIONS = ("--k0", "--m0", "--semiaxes", "--ellipsoid")
_NEGATIVE_VECTOR = re.compile(r"-\.?\d[\d.eE+\-, ]*")


def _attach_vector_values(argv: list[str]) -> list[str]:
    """Rewrite `--k0 -0.5,0.2,0` as `--k0=-0.5,0.2,0`.

    argparse reads a value that starts with "-" and is not a plain number as
    an option, so a vector with a negative first component would otherwise
    be rejected.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--":
            return out + argv[i:]
        if (tok in _VECTOR_OPTIONS and i + 1 < len(argv)
                and _NEGATIVE_VECTOR.fullmatch(argv[i + 1])):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


#: Config keys that a config-driven command never reads: it has no flag for them.
_UNREAD_KEYS = {
    "gap": frozenset(),
    "bands": frozenset({"out_dir", "verify", "n", "g_max", "c"}),
}


def _add_config_command(sub, command: str, summary: str) -> argparse.ArgumentParser:
    """A command with a flag per config key that it reads; its text parses like the file's value.

    Flags are not abbreviated, so a flag the command lacks is refused: `bands --out`
    would otherwise be `--out-file`.
    """
    p = sub.add_parser(command, help=summary, allow_abbrev=False)
    p.add_argument("--config", help="key = value config file; flags override it")
    for f in fields(ScanConfig):
        if f.name not in _UNREAD_KEYS[command]:
            flag = "--out" if f.name == "out_dir" else "--" + f.name.replace("_", "-")
            kind = dict(action="store_const", const="true") if f.name == "verify" else {}
            p.add_argument(flag, dest=f.name, **kind)
    return p


def _config_from_args(args) -> ScanConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    unread = _UNREAD_KEYS[args.command]
    for key in sorted(unread.intersection(file_values)):
        if file_values[key] != getattr(ScanConfig, key):
            raise ConfigError(f"{key}: {args.command} does not use it, got {file_values[key]!r}")
    overrides = {
        key: coerce(key, getattr(args, key))
        for key in sorted(KNOWN_KEYS - unread)
        if getattr(args, key) is not None
    }
    return build_config(file_values, overrides)


def cmd_classify(args) -> int:
    k = args.k
    lattice.require_nonnegative("exclusion_band", args.exclusion_band)  # even with no shifts
    cls = lattice.classify_wavevector(k, args.tol)
    knorm = lattice.wavevector_norm("k", k)
    shifts_out = []
    for m in cls.shifts:  # all judged before anything is printed
        adm = lattice.shift_admissibility(knorm, m, cls.order, args.exclusion_band)
        shifts_out.append({"m": list(m), "nu": adm.nu, "ratio": adm.ratio,
                           "verdict": adm.verdict.value})
    print(f"k = ({k[0]}, {k[1]}, {k[2]})")
    print(f"order = {cls.order}" + ("  (non-exceptional)" if cls.order == 1 else ""))
    for s in shifts_out:
        print(f"  shift m = {tuple(s['m'])}: nu = {s['nu']:.12g}, ratio = {s['ratio']:.12g}, "
              f"{s['verdict']}")
    print(json.dumps({"k": list(k), "order": cls.order, "shifts": shifts_out}))
    return EXIT_OK


def _output(field: str, path: str, make_dir: bool = False):
    """`path` opened for writing, after its directory when `make_dir`; a path that cannot be
    written is refused as the config key or flag `field` that named it."""
    try:
        if make_dir:
            os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
        return open(path, "w", encoding="ascii")
    except OSError as exc:
        raise ConfigError(f"{field}: cannot write {exc.filename}: {exc.strerror}") from None


def _predict(cfg: ScanConfig):
    """Shared gap prediction: (report, curve, interval, model, model's params)."""
    # the pair first: a mesh's q is a BEM solve of seconds, run only for an admitted pair
    adm = twomode.order_two_admissibility(cfg.k0, cfg.m0, cfg.exclusion_band, cfg.tol)
    params = cfg.params()
    model = twomode.pair_model(cfg.k0, cfg.m0, params, adm)
    extra = params.report_fields(model)
    status, interval = model.gap()
    if interval is not None:
        extra.update(predicted_lo_over_c=interval.lo_over_c,
                     predicted_hi_over_c=interval.hi_over_c)
    curve = model.scan((cfg.delta_tilde_min, cfg.delta_tilde_max), cfg.samples)
    report = GapReport(
        problem=cfg.problem, k0=cfg.k0, m0=cfg.m0, a=cfg.a, verdict=adm.verdict.value,
        status=status.value, nu=adm.nu, ratio=adm.ratio, **extra,
    )
    return report, curve, interval, model, params


def _summarize(report, cfg: ScanConfig) -> None:
    print(f"problem = {report.problem}, k0 = {report.k0}, m0 = {report.m0}")
    print(f"verdict = {report.verdict} (nu = {report.nu:.9g}, ratio = {report.ratio:.9g})")
    if report.predicted_lo_over_c is not None:
        lo, hi = report.predicted_lo_over_c, report.predicted_hi_over_c
        print(f"predicted gap: ({lo!r}, {hi!r}) * c")
        if cfg.c != 1.0:
            print(f"scaled by c = {cfg.c}: ({lo * cfg.c!r}, {hi * cfg.c!r})")
    else:
        print(f"no gap: {report.status}")
    if report.measured_lo_over_c is not None:
        print(
            f"measured gap: ({report.measured_lo_over_c!r}, "
            f"{report.measured_hi_over_c!r}) * c"
            + (f", rel discrepancy {report.rel_discrepancy:.3g}"
               if report.rel_discrepancy is not None else "")
        )


def cmd_gap(args) -> int:
    cfg = _config_from_args(args)
    report, curve, interval, model, params = _predict(cfg)
    measured = failure = None
    if cfg.verify:
        from .oracle.gapscan import measure_gap_numeric  # loads scipy

        try:
            measured = measure_gap_numeric(model, params, n=cfg.n, g_max=cfg.g_max)
        except NumericalError as exc:  # the report keeps the prediction
            failure = exc
    if measured is not None:
        rel = None
        if interval is not None:
            rel = abs(
                (measured.hi_over_c - measured.lo_over_c) - interval.width_over_c
            ) / interval.width_over_c
        report = replace(
            report,
            measured_lo_over_c=measured.lo_over_c,
            measured_hi_over_c=measured.hi_over_c,
            rel_discrepancy=rel,
        )
    csv_path = os.path.join(cfg.out_dir, "branches.csv")
    report_path = os.path.join(cfg.out_dir, "report.txt")
    with _output("out_dir", csv_path, make_dir=True) as fh:
        write_branch_csv(curve, fh)
    with _output("out_dir", report_path) as fh:
        fh.write(report.to_text())
    _summarize(report, cfg)
    if failure is not None:
        print(f"oracle failure: {failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {report_path} and {csv_path}")
    return EXIT_OK


def cmd_bands(args) -> int:
    cfg = _config_from_args(args)
    curve = _predict(cfg)[1]
    if args.out_file:
        with _output("out_file", args.out_file) as fh:
            write_branch_csv(curve, fh)
        print(f"wrote {args.out_file}")
    else:
        write_branch_csv(curve, sys.stdout)
    return EXIT_OK


def cmd_face_map(args) -> int:
    fmap = lattice.face_gap_region(
        coerce("m0", args.m0), samples=args.resolution, half_width=args.half_width,
        exclusion_band=args.exclusion_band, tol=args.tol,
    )
    with _output("out", args.out) as fh:
        write_face_map_csv(fmap, fh)
    frac = fmap.flagged_fraction()
    print(f"face normal m0 = {fmap.m0}, window half-width {fmap.half_width}")
    print(f"flagged pixels: {int(fmap.flagged.sum())} of {fmap.flagged.size}")
    print(f"flagged area: {fmap.flagged_area():.6f} (expected pi/4 = {math.pi/4:.6f} "
          f"for m0 = (0,0,1))")
    print(f"flagged area per unit window area: {frac:.6f} "
          f"(pi/16 = {math.pi/16:.6f} at half-width 1)")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_global_scan(args) -> int:
    p = dirichlet.DirichletParams(a=args.a, q=args.q)
    rows = global_scan(args.omega_lo, args.omega_hi, args.samples, p)
    worst = max(r.residual for r in rows)
    if args.out:
        with _output("out", args.out) as fh:
            write_global_scan_csv([(r.omega_over_c, r.k, r.order, r.residual) for r in rows], fh)
        print(f"wrote {args.out}")
    print(f"covered {len(rows)} frequencies in [{args.omega_lo}, {args.omega_hi}]")
    print(f"max residual = {worst:.3e}; all wave vectors non-exceptional")
    return EXIT_OK


def cmd_capacitance(args) -> int:
    from .capacitance import shape_factor

    if args.refine_check and args.mesh_path is None:
        raise ConfigError("refine_check: only a mesh is refined, so it needs --mesh")
    if args.sphere:
        result = shape_factor("sphere")
    elif args.ellipsoid is not None:
        result = shape_factor("ellipsoid", coerce("semiaxes", args.ellipsoid))
    else:
        result = shape_factor("mesh", mesh=args.mesh_path, refine_check=args.refine_check)
    err = result.estimated_error
    print(f"q = {result.q!r}")
    print(f"method = {result.method.value}")
    if result.mesh_size is not None:
        print(f"panels = {result.mesh_size}")
    print(f"estimated_error = {err!r}")
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared: parsing does not change it."""
    ap = argparse.ArgumentParser(
        prog="bandscan",
        description="Dispersion asymptotics and local band gaps for cubic "
        "lattices of small inclusions",
    )
    ap.add_argument("--version", action="version", version=f"bandscan {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a Bloch vector")
    p.add_argument("k", nargs=3, type=float, metavar="K")
    p.add_argument("--tol", type=float, default=lattice.DEFAULT_TOL)
    p.add_argument("--exclusion-band", dest="exclusion_band", type=float,
                   default=lattice.DEFAULT_EXCLUSION_BAND)

    _add_config_command(sub, "gap", "predict (and optionally measure) a local gap")
    p = _add_config_command(sub, "bands", "emit the two-branch dispersion CSV")
    p.add_argument("--out-file", help="CSV destination (default: stdout)")

    p = sub.add_parser("face-map", help="raster the gap region on a BZ face")
    p.add_argument("--m0", default="0,0,1", metavar="I,J,K")
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--half-width", dest="half_width", type=float, default=1.0)
    p.add_argument("--out", default="face_map.csv")
    p.add_argument("--tol", type=float, default=lattice.DEFAULT_TOL)
    p.add_argument("--exclusion-band", dest="exclusion_band", type=float,
                   default=lattice.DEFAULT_EXCLUSION_BAND)

    p = sub.add_parser("global-scan", help="show every omega is covered by a wave")
    p.add_argument("--omega-lo", dest="omega_lo", type=float, required=True)
    p.add_argument("--omega-hi", dest="omega_hi", type=float, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--a", type=float, default=0.1)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--out", help="CSV destination")

    p = sub.add_parser("capacitance", help="shape factor q of an inclusion")
    shape = p.add_mutually_exclusive_group(required=True)
    shape.add_argument("--sphere", action="store_true")
    shape.add_argument("--ellipsoid", metavar="A1,A2,A3", help="semiaxes of an ellipsoid")
    shape.add_argument("--mesh", dest="mesh_path")
    p.add_argument("--refine-check", dest="refine_check", action="store_true")

    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_vector_values(argv))
    try:
        for key, value in vars(args).items():
            if value == []:  # argparse before Python 3.12 drops the value of `--flag=--`
                raise ConfigError(f"{key}: expected a value, got '--'")
        # looked up at call time, so a replaced `cmd_*` function is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ConfigError, DomainError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
