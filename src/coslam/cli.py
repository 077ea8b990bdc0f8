"""Command-line front end: spectrum tables, c-function scans, pole loci and
verification reports.

The lambda argument is always the single complex coordinate of the closed
forms (the normalization in which c_p(rho) = 1); no other convention is
accepted.  Reports are JSON (validating against schemas/report-v1.json) or
CSV with a fixed, documented column order; complex numbers appear as re/im
column pairs.  Output is byte-identical for identical (config, seed,
workers).

Exit codes: 0 success, 1 invalid configuration, 2 verification failure.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from dataclasses import field as _field

from . import verify as verify_mod
from .spectral import (FieldTag, GrassmannSignature, c_p, enumerate_ktypes, eta,
                       ktype, nu, omega)

__all__ = ["RunConfig", "main", "run"]

SCHEMA_NAME = "coslam-report-v1"

_ENV_WORKERS = "COSLAM_WORKERS"


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the report contract wants 1
    # plus a machine-readable error object instead.
    def error(self, message):
        raise _CliError(message)


@dataclass
class RunConfig:
    """Validated invocation: one subcommand plus everything it needs."""

    command: str
    field: str = "R"
    n: int = 2
    p: int = 1
    lam: complex = 3.5
    mu: tuple = ()
    max_degree: int = 6
    samples: int = 100_000
    seed: int = 0
    grid_order: int = 32
    workers: int = 1
    tolerances: dict = _field(default_factory=dict)
    fmt: str = "json"
    output: str = ""
    suites: tuple = ()
    lam_grid: tuple = ()  # (start, stop, count) on the real axis
    re_min: float = -10.0
    re_max: float = 10.0

    def signature(self):
        return GrassmannSignature(self.n, self.p, FieldTag.from_label(self.field))

    def to_json(self):
        return {
            "command": self.command,
            "field": self.field,
            "n": self.n,
            "p": self.p,
            "lambda": {"re": self.lam.real, "im": self.lam.imag},
            "mu": list(self.mu),
            "max_degree": self.max_degree,
            "samples": self.samples,
            "seed": self.seed,
            "grid_order": self.grid_order,
            "workers": self.workers,
            "tolerances": dict(sorted(self.tolerances.items())),
            "format": self.fmt,
            "suites": list(self.suites),
        }


def _parse_complex(text):
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise _CliError(f"cannot parse complex value {text!r}; use RE or RE,IM")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise _CliError(f"cannot parse complex value {text!r}") from None
    return complex(re, im)


def _parse_mu(text):
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise _CliError(f"cannot parse K-type {text!r}; use e.g. 2,0") from None


def _parse_tolerances(items):
    out = {}
    for item in items or ():
        if "=" not in item:
            raise _CliError(f"tolerance override {item!r} is not NAME=VALUE")
        name, val = item.split("=", 1)
        try:
            out[name] = float(val)
        except ValueError:
            raise _CliError(f"tolerance override {item!r} has a non-numeric value") from None
    return out


def _workers_arg(text):
    # Also converts the string default taken from $COSLAM_WORKERS.
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer (from --workers or ${_ENV_WORKERS}), got {text!r}") from None


# Options whose value may be a negative number.  argparse reads a separate
# value such as "-1.5,0" as an option, so it is glued on as --opt=value.
_SIGNED_OPTIONS = frozenset({"--lambda", "--lambda-grid", "--lambda-im", "--re-min", "--re-max"})
_SIGNED_VALUE = re.compile(r"-[\d.]")


def _glue_signed_values(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _SIGNED_OPTIONS and i + 1 < len(argv)
                and _SIGNED_VALUE.match(argv[i + 1])):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _build_parser():
    parser = _Parser(prog="coslam", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_sig=True):
        if with_sig:
            sp.add_argument("--field", default="R", choices=["R", "C", "H"],
                            help="base field of the Grassmannian")
            sp.add_argument("--n", type=int, default=2, help="ambient space K^(n+1)")
            sp.add_argument("--p", type=int, default=1, help="subspace dimension")
        sp.add_argument("--format", dest="fmt", default="json", choices=["json", "csv"])
        sp.add_argument("--output", default="", help="output path (default: stdout)")
        sp.add_argument("--workers", type=_workers_arg,
                        default=os.environ.get(_ENV_WORKERS, "1"),
                        help=f"Monte Carlo worker streams (default ${_ENV_WORKERS} or 1)")

    sp = sub.add_parser("spectrum", help="table of eigenvalues over the K-type lattice")
    common(sp)
    sp.add_argument("--lambda", dest="lam", default="3.5", help="spectral parameter RE[,IM]")
    sp.add_argument("--max-degree", type=int, default=6)

    sp = sub.add_parser("cp", help="c-function values with pole annotations")
    common(sp)
    sp.add_argument("--lambda", dest="lam", default=None, help="spectral parameter RE[,IM]")
    sp.add_argument("--lambda-grid", default=None, metavar="START:STOP:COUNT",
                    help="real-axis grid instead of a single value")
    sp.add_argument("--lambda-im", type=float, default=0.0,
                    help="imaginary part added to every grid point")

    sp = sub.add_parser("poles", help="singular hyperplane crossings along a real lambda line")
    common(sp)
    sp.add_argument("--mu", default="", help="K-type, e.g. 2,0 (default: zero type)")
    sp.add_argument("--re-min", type=float, default=-10.0)
    sp.add_argument("--re-max", type=float, default=10.0)

    sp = sub.add_parser("verify", help="run self-check suites and report pass/fail")
    common(sp, with_sig=False)
    sp.add_argument("--suite", action="append", default=None,
                    help="suite name (repeatable); default: all of "
                         + ", ".join(verify_mod.SUITE_NAMES))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--grid-order", type=int, default=32)
    sp.add_argument("--tolerance", action="append", default=None, metavar="NAME=VALUE",
                    help="override a suite tolerance (repeatable)")
    return parser


def _config_from_args(args):
    cfg = RunConfig(command=args.command)
    cfg.fmt = args.fmt
    cfg.output = args.output
    cfg.workers = args.workers
    if cfg.workers < 1:
        raise _CliError("--workers must be >= 1")
    if args.command in ("spectrum", "cp", "poles"):
        cfg.field, cfg.n, cfg.p = args.field, args.n, args.p
        try:
            cfg.signature()
        except ValueError as exc:
            raise _CliError(str(exc)) from None
    if args.command == "spectrum":
        cfg.lam = _parse_complex(args.lam)
        cfg.max_degree = args.max_degree
        if cfg.max_degree < 0:
            raise _CliError("--max-degree must be >= 0")
    elif args.command == "cp":
        if (args.lam is None) == (args.lambda_grid is None):
            raise _CliError("cp needs exactly one of --lambda or --lambda-grid")
        if args.lam is not None:
            cfg.lam = _parse_complex(args.lam)
        else:
            bits = args.lambda_grid.split(":")
            if len(bits) != 3:
                raise _CliError("--lambda-grid must be START:STOP:COUNT")
            try:
                start, stop, count = float(bits[0]), float(bits[1]), int(bits[2])
            except ValueError:
                raise _CliError("--lambda-grid must be START:STOP:COUNT") from None
            if count < 1:
                raise _CliError("--lambda-grid COUNT must be >= 1")
            cfg.lam_grid = (start, stop, count)
            cfg.lam = complex(start, args.lambda_im)
    elif args.command == "poles":
        cfg.mu = _parse_mu(args.mu) if args.mu else ()
        cfg.re_min, cfg.re_max = args.re_min, args.re_max
        if cfg.re_min > cfg.re_max:
            raise _CliError("--re-min must be <= --re-max")
    elif args.command == "verify":
        cfg.suites = tuple(args.suite) if args.suite else tuple(verify_mod.SUITE_NAMES)
        unknown = [s for s in cfg.suites if s not in verify_mod.SUITE_NAMES]
        if unknown:
            raise _CliError(f"unknown suite(s): {', '.join(unknown)}")
        cfg.seed = args.seed
        cfg.samples = args.samples
        cfg.grid_order = args.grid_order
        cfg.tolerances = _parse_tolerances(args.tolerance)
        if cfg.samples < 2:
            raise _CliError("--samples must be >= 2 (the standard error needs two samples)")
    return cfg


# ---------------------------------------------------------------------------
# Subcommand bodies.
# ---------------------------------------------------------------------------


def _cmd_spectrum(cfg):
    sig = cfg.signature()
    rows = []
    for mu in enumerate_ktypes(sig, cfg.max_degree):
        row = {
            "mu": list(mu.m),
            "degree": mu.degree,
            "omega": omega(sig, mu),
            "eta": eta(sig, mu, cfg.lam).to_json(),
        }
        row["nu"] = nu(sig, mu, cfg.lam).to_json() if sig.split_rank_equal else None
        rows.append(row)
    return {"rows": rows}, 0


def _cmd_cp(cfg):
    sig = cfg.signature()
    if cfg.lam_grid:
        start, stop, count = cfg.lam_grid
        if count == 1:
            res = [start]
        else:
            step = (stop - start) / (count - 1)
            res = [start + i * step for i in range(int(count))]
        lams = [complex(x, cfg.lam.imag) for x in res]
    else:
        lams = [cfg.lam]
    rows = [{"lambda": {"re": lam.real, "im": lam.imag}, "cp": c_p(sig, lam).to_json()}
            for lam in lams]
    return {"rows": rows}, 0


def _eta_factor_hits(sig, mu, re_min, re_max):
    # Real-axis crossings of the singular hyperplanes of the four Gamma_{p,d}
    # factor groups in the eigenvalue formula: component j of a factor is
    # singular when its argument minus (d/2) j is a non-positive integer -k,
    # i.e. along lambda = base_j +/- 2k.
    d, rho, p = sig.d, sig.rho, sig.p
    hits = []

    def scan(name, side, base_of, direction):
        for j in range(p):
            base = base_of(j)
            if direction > 0:
                k_lo = max(0, math.ceil((re_min - base) / 2.0 - 1e-12))
                k_hi = math.floor((re_max - base) / 2.0 + 1e-12)
            else:
                k_lo = max(0, math.ceil((base - re_max) / 2.0 - 1e-12))
                k_hi = math.floor((base - re_min) / 2.0 + 1e-12)
            for k in range(k_lo, k_hi + 1):
                hits.append({"factor": name, "side": side, "j": j + 1, "k": k,
                             "lambda_re": base + direction * 2.0 * k})

    m = mu.m
    # Gamma_{p,d}((lambda - rho + dp)/2): poles of the eigenvalue.
    scan("cos-kernel", "numerator", lambda j: rho - d * p + d * j, -1)
    # Gamma_{p,d}((-lambda + rho + mu)/2): poles.
    scan("ktype-shift", "numerator", lambda j: rho + m[j] - d * j, +1)
    # 1 / Gamma_{p,d}((-lambda + rho)/2): zeros.
    scan("weight", "denominator", lambda j: rho - d * j, +1)
    # 1 / Gamma_{p,d}((lambda + rho + mu)/2): zeros.
    scan("kernel-dual", "denominator", lambda j: -rho - m[j] + d * j, -1)
    hits.sort(key=lambda h: (h["lambda_re"], h["factor"], h["j"], h["k"]))
    return hits


def _cmd_poles(cfg):
    sig = cfg.signature()
    mu = ktype(sig, cfg.mu) if cfg.mu else ktype(sig, (0,) * sig.p)
    rows = []
    for hit in _eta_factor_hits(sig, mu, cfg.re_min, cfg.re_max):
        net = eta(sig, mu, complex(hit["lambda_re"], 0.0))
        rows.append({**hit, "eta": net.to_json()})
    return {"rows": rows}, 0


def _cmd_verify(cfg):
    suites = verify_mod.run_suites(cfg.suites, seed=cfg.seed, samples=cfg.samples,
                                   workers=cfg.workers, grid_order=cfg.grid_order,
                                   tolerances=cfg.tolerances)
    passed = all(s["passed"] for s in suites)
    return {"suites": suites, "passed": passed}, (0 if passed else 2)


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "cp": _cmd_cp,
    "poles": _cmd_poles,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# Report rendering.
# ---------------------------------------------------------------------------


def _sv_csv_cells(sv):
    # tag, re, im, order
    if sv is None:
        return ["", "", "", ""]
    if sv["tag"] == "finite":
        return ["finite", repr(sv["re"]), repr(sv["im"]), ""]
    return [sv["tag"], "", "", str(sv["order"])]


def _render_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    command = report["command"]
    if command == "spectrum":
        writer.writerow(["mu", "degree", "omega",
                         "eta_tag", "eta_re", "eta_im", "eta_order",
                         "nu_tag", "nu_re", "nu_im", "nu_order"])
        for row in report["rows"]:
            writer.writerow([" ".join(str(x) for x in row["mu"]), row["degree"],
                             repr(row["omega"]),
                             *_sv_csv_cells(row["eta"]), *_sv_csv_cells(row["nu"])])
    elif command == "cp":
        writer.writerow(["lambda_re", "lambda_im", "cp_tag", "cp_re", "cp_im", "cp_order"])
        for row in report["rows"]:
            writer.writerow([repr(row["lambda"]["re"]), repr(row["lambda"]["im"]),
                             *_sv_csv_cells(row["cp"])])
    elif command == "poles":
        writer.writerow(["lambda_re", "factor", "side", "j", "k",
                         "eta_tag", "eta_re", "eta_im", "eta_order"])
        for row in report["rows"]:
            writer.writerow([repr(row["lambda_re"]), row["factor"], row["side"],
                             row["j"], row["k"], *_sv_csv_cells(row["eta"])])
    else:  # verify
        writer.writerow(["suite", "passed", "tolerance", "measured", "detail"])
        for row in report["suites"]:
            writer.writerow([row["name"], row["passed"], repr(row["tolerance"]),
                             repr(row["measured"]), row["detail"]])
    return buf.getvalue()


def _emit(report, cfg):
    if cfg.fmt == "json":
        text = json.dumps(report, separators=(",", ":"), sort_keys=False) + "\n"
    else:
        text = _render_csv(report)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(cfg):
    """Execute a validated RunConfig; returns (report dict, exit status)."""
    body, status = _COMMANDS[cfg.command](cfg)
    report = {"schema": SCHEMA_NAME, "command": cfg.command, "config": cfg.to_json()}
    report.update(body)
    return report, status


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_glue_signed_values(list(argv)))
        cfg = _config_from_args(args)
        report, status = run(cfg)
    except (_CliError, ValueError) as exc:
        err = {"schema": SCHEMA_NAME, "command": "error",
               "error": {"type": "invalid-config", "message": str(exc)}}
        sys.stderr.write(json.dumps(err, separators=(",", ":")) + "\n")
        return 1
    _emit(report, cfg)
    return status


if __name__ == "__main__":
    sys.exit(main())
