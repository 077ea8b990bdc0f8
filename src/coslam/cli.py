"""Command-line front end.  It only parses and renders the spectrum tables,
c-function scans, pole loci and verification reports that coslam computes.

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
import functools
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from dataclasses import field as _field

import numpy as np

from . import verify as verify_mod
from .spectral import (FieldTag, GrassmannSignature, SpectralArray, c_p, enumerate_ktypes, eta,
                       factor_crossings, nu, omega)

__all__ = ["RunConfig", "main", "run"]

SCHEMA_NAME = "coslam-report-v1"

_ENV_WORKERS = "COSLAM_WORKERS"

# Upper limits on the sizes an invocation may ask for.
MAX_GRID_COUNT = 1_000_000
MAX_DEGREE = 64
MAX_P = 16  # spectrum/cp/poles; the K-type enumeration recurses p levels deep
MAX_SAMPLES = 100_000_000
MAX_WORKERS = 1_024
MAX_GRID_ORDER = 128  # the quadrature suite powers 2 * order^3 kernel entries


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
    if not (math.isfinite(re) and math.isfinite(im)):
        raise _CliError(f"--lambda must be finite, got {text!r}")
    return complex(re, im)


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


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
        # a failing row reads the largest double, which no tolerance may reach
        if not 0.0 < out[name] < sys.float_info.max:
            raise _CliError(f"tolerance override {item!r} must be positive and below "
                            f"{sys.float_info.max!r}")
    return out


def _workers_arg(text):
    # Also converts $COSLAM_WORKERS, read per call rather than into the parser.
    try:
        return int(text)
    except ValueError:
        raise _CliError(f"--workers and ${_ENV_WORKERS} must be integers, got {text!r}") from None


# Options whose value may be a negative number.  argparse reads a separate
# value such as "-1.5,0" as an option, so it is glued on as --opt=value.
_SIGNED_OPTIONS = frozenset({"--lambda", "--lambda-grid", "--lambda-im", "--re-min", "--re-max"})
_SIGNED_VALUE = re.compile(r"-([\d.]|inf|nan)", re.IGNORECASE)


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


@functools.lru_cache(maxsize=None)
def _build_parser():
    parser = _Parser(prog="coslam", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_sig=True):
        if with_sig:
            sp.add_argument("--field", default="R", choices=["R", "C", "H"],
                            help="base field of the Grassmannian")
            sp.add_argument("--n", type=int, default=2, help="ambient space K^(n+1)")
            sp.add_argument("--p", type=int, default=1,
                            help=f"subspace dimension, at most {MAX_P}")
        sp.add_argument("--format", dest="fmt", default="json", choices=["json", "csv"])
        sp.add_argument("--output", default="", help="output path (default: stdout)")
        sp.add_argument("--workers", type=_workers_arg, default=None,
                        help=f"Monte Carlo worker streams, at most {MAX_WORKERS} "
                             f"(default ${_ENV_WORKERS} or 1)")

    sp = sub.add_parser("spectrum", help="table of eigenvalues over the K-type lattice")
    common(sp)
    sp.add_argument("--lambda", dest="lam", default="3.5", help="spectral parameter RE[,IM]")
    sp.add_argument("--max-degree", type=int, default=6, help=f"at most {MAX_DEGREE}")

    sp = sub.add_parser("cp", help="c-function values with pole annotations")
    common(sp)
    sp.add_argument("--lambda", dest="lam", default=None, help="spectral parameter RE[,IM]")
    sp.add_argument("--lambda-grid", default=None, metavar="START:STOP:COUNT",
                    help=f"real-axis grid instead of a single value, COUNT <= {MAX_GRID_COUNT}")
    sp.add_argument("--lambda-im", type=_finite_float, default=0.0,
                    help="imaginary part added to every grid point")

    sp = sub.add_parser("poles", help="singular hyperplane crossings along a real lambda line")
    common(sp)
    sp.add_argument("--mu", default="", help="K-type, e.g. 2,0 (default: zero type)")
    sp.add_argument("--re-min", type=_finite_float, default=-10.0)
    sp.add_argument("--re-max", type=_finite_float, default=10.0)

    sp = sub.add_parser("verify", help="run self-check suites and report pass/fail")
    common(sp, with_sig=False)
    sp.add_argument("--suite", action="append", default=None,
                    help="suite name (repeatable); default: all of "
                         + ", ".join(verify_mod.SUITE_NAMES))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=100_000, help=f"at most {MAX_SAMPLES}")
    sp.add_argument("--grid-order", type=int, default=32, help=f"at most {MAX_GRID_ORDER}")
    sp.add_argument("--tolerance", action="append", default=None, metavar="NAME=VALUE",
                    help="override a suite tolerance (repeatable)")
    return parser


def _config_from_args(args):
    cfg = RunConfig(command=args.command)
    cfg.fmt = args.fmt
    cfg.output = args.output
    cfg.workers = (_workers_arg(os.environ.get(_ENV_WORKERS, "1"))
                   if args.workers is None else args.workers)
    if not 1 <= cfg.workers <= MAX_WORKERS:
        raise _CliError(f"--workers must be in [1, {MAX_WORKERS}], got {cfg.workers}")
    if args.command in ("spectrum", "cp", "poles"):
        cfg.field, cfg.n, cfg.p = args.field, args.n, args.p
        try:
            cfg.signature()
        except ValueError as exc:
            raise _CliError(str(exc)) from None
        if cfg.p > MAX_P:
            raise _CliError(f"--p must be at most {MAX_P}, got {cfg.p}")
    if args.command == "spectrum":
        cfg.lam = _parse_complex(args.lam)
        cfg.max_degree = args.max_degree
        if not 0 <= cfg.max_degree <= MAX_DEGREE:
            raise _CliError(f"--max-degree must be in [0, {MAX_DEGREE}], got {cfg.max_degree}")
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
            if not 1 <= count <= MAX_GRID_COUNT:
                raise _CliError(f"--lambda-grid COUNT must be in [1, {MAX_GRID_COUNT}], "
                                f"got {count}")
            # the last point also covers STOP - START; rounding can carry it past the range
            if not all(map(math.isfinite, (start, stop, _grid_points(start, stop, count)[-1]))):
                raise _CliError(f"--lambda-grid START, STOP and every grid point must be finite, "
                                f"got {args.lambda_grid!r}")
            cfg.lam_grid = (start, stop, count)
            cfg.lam = complex(start, args.lambda_im)
    elif args.command == "poles":
        cfg.mu = _parse_mu(args.mu) if args.mu else ()
        cfg.re_min, cfg.re_max = args.re_min, args.re_max
        if cfg.re_min > cfg.re_max:
            raise _CliError("--re-min must be <= --re-max")
        # each of the 4p factor lines crosses at most floor(span/2) + 1 times
        span = cfg.re_max - cfg.re_min
        if not (math.isfinite(span) and 4 * cfg.p * (span // 2 + 1) <= MAX_GRID_COUNT):
            raise _CliError(f"--re-min/--re-max span {span!r} may give more than "
                            f"{MAX_GRID_COUNT} rows at p = {cfg.p}")
    elif args.command == "verify":
        cfg.suites = tuple(args.suite) if args.suite else tuple(verify_mod.SUITE_NAMES)
        cfg.seed = args.seed
        cfg.samples = args.samples
        cfg.grid_order = args.grid_order
        cfg.tolerances = _parse_tolerances(args.tolerance)
        if cfg.samples < 2:
            raise _CliError("--samples must be >= 2 (the standard error needs two samples)")
        if cfg.samples > MAX_SAMPLES:
            raise _CliError(f"--samples must be at most {MAX_SAMPLES}, got {cfg.samples}")
        if not 1 <= cfg.grid_order <= MAX_GRID_ORDER:
            raise _CliError(f"--grid-order must be in [1, {MAX_GRID_ORDER}], "
                            f"got {cfg.grid_order}")
    return cfg


# ---------------------------------------------------------------------------
# Subcommand bodies.
# ---------------------------------------------------------------------------


# A spectrum/cp/poles report holds its rows as a _Rows: columns of plain
# values and the %-template of one row in the report's format.  %r writes a
# float as json and csv do; text columns (the spectral cells, cp's constant
# lambda_im) go in through %s.  A cell is its tag plus its value (finite) or
# its order (pole, zero); p != q gives no nu cell.
_CELL_TEXTS = {  # finite, pole, zero, none
    "json": ('{"tag":"finite","re":%r,"im":%r}', '{"tag":"pole","order":%d}',
             '{"tag":"zero","order":%d}', "null"),
    "csv": ("finite,%r,%r,", "pole,,,%d", "zero,,,%d", ",,,"),
}
_CSV_HEADERS = {
    "spectrum": "mu,degree,omega,eta_tag,eta_re,eta_im,eta_order,nu_tag,nu_re,nu_im,nu_order",
    "cp": "lambda_re,lambda_im,cp_tag,cp_re,cp_im,cp_order",
    "poles": "lambda_re,factor,side,j,k,eta_tag,eta_re,eta_im,eta_order",
}
_ROW_TEMPLATES = {  # (command, format): row template, the columns it reads
    ("spectrum", "json"): ('{"mu":[%s],"degree":%d,"omega":%r,"eta":%s,"nu":%s}',
                           "mu degree omega eta nu"),
    ("spectrum", "csv"): ("%s,%d,%r,%s,%s", "mu degree omega eta nu"),
    ("cp", "json"): ('{"lambda":{"re":%r,"im":%s},"cp":%s}', "lambda_re lambda_im cp"),
    ("cp", "csv"): ("%r,%s,%s", "lambda_re lambda_im cp"),
    ("poles", "json"): ('{"factor":"%s","side":"%s","j":%d,"k":%d,"lambda_re":%r,"eta":%s}',
                        "factor side j k lambda_re eta"),
    ("poles", "csv"): ("%r,%s,%s,%d,%d,%s", "lambda_re factor side j k eta"),
}


@dataclass(frozen=True)
class _Rows:
    template: str
    columns: list


def _rows(cfg, **columns):
    template, names = _ROW_TEMPLATES[cfg.command, cfg.fmt]
    return {"rows": _Rows(template, [columns[name] for name in names.split()])}


def _cell_texts(fmt, *columns):
    """The text of every cell of SpectralArray columns of one length, per
    column, from one SpectralArray.value call with the poles as zero markers,
    so a pole prints its order; a cell with no finite double raises that
    call's OverflowError, naming the report's first such cell."""
    order = np.array([c.order for c in columns]).T.ravel()
    log = np.array([c.log for c in columns]).T.ravel()
    value = SpectralArray(-np.abs(order), log).value
    finite, pole, zero, _ = _CELL_TEXTS[fmt]
    texts = [finite % (re, im) if o == 0 else pole % o if o > 0 else zero % -o
             for o, re, im in zip(order.tolist(), value.real.tolist(), value.imag.tolist())]
    return [texts[i::len(columns)] for i in range(len(columns))]


def _cmd_spectrum(cfg):
    sig = cfg.signature()
    mus = enumerate_ktypes(sig, cfg.max_degree)
    if sig.split_rank_equal:
        etas, nus = _cell_texts(cfg.fmt, eta(sig, mus, cfg.lam), nu(sig, mus, cfg.lam))
    else:
        (etas,) = _cell_texts(cfg.fmt, eta(sig, mus, cfg.lam))
        nus = [_CELL_TEXTS[cfg.fmt][3]] * len(mus)
    sep = "," if cfg.fmt == "json" else " "
    return _rows(cfg, mu=[sep.join(map(str, mu.m)) for mu in mus],
                 degree=[mu.degree for mu in mus], omega=omega(sig, mus).tolist(),
                 eta=etas, nu=nus), 0


def _grid_points(start, stop, count):
    """Real parts of the `--lambda-grid START:STOP:COUNT` points; a point
    past the double range reads inf or nan, without a numpy warning."""
    if count == 1:
        return np.array([start])
    with np.errstate(over="ignore", invalid="ignore"):
        return start + np.arange(count) * ((stop - start) / (count - 1))


def _cmd_cp(cfg):
    sig = cfg.signature()
    start, stop, count = cfg.lam_grid or (cfg.lam.real, cfg.lam.real, 1)
    lams = np.full(count, cfg.lam)
    lams.real = _grid_points(start, stop, count)
    (cps,) = _cell_texts(cfg.fmt, c_p(sig, lams))
    return _rows(cfg, lambda_re=lams.real.tolist(), lambda_im=[repr(cfg.lam.imag)] * count,
                 cp=cps), 0


def _cmd_poles(cfg):
    sig = cfg.signature()
    mu = cfg.mu or (0,) * sig.p
    lam, factor, side, j, k = factor_crossings(sig, mu, cfg.re_min, cfg.re_max)
    (etas,) = _cell_texts(cfg.fmt, eta(sig, mu, lam))
    return _rows(cfg, lambda_re=lam.tolist(), factor=factor, side=side, j=j, k=k, eta=etas), 0


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


def _emit(report, cfg):
    rows = report.get("rows")
    if isinstance(rows, _Rows):
        lines = [rows.template % row for row in zip(*rows.columns)]
        if cfg.fmt == "csv":
            text = "\n".join([_CSV_HEADERS[cfg.command], *lines]) + "\n"
        else:
            head = json.dumps({key: value for key, value in report.items() if key != "rows"},
                              separators=(",", ":"), sort_keys=False, allow_nan=False)
            text = f'{head[:-1]},"rows":[{",".join(lines)}]}}\n'
    elif cfg.fmt == "json":
        text = json.dumps(report, separators=(",", ":"), sort_keys=False, allow_nan=False) + "\n"
    else:  # verify
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "passed", "tolerance", "measured", "detail"])
        writer.writerows([row["name"], row["passed"], repr(row["tolerance"]),
                          repr(row["measured"]), row["detail"]] for row in report["suites"])
        text = buf.getvalue()
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
        _emit(report, cfg)
    except (_CliError, ValueError, OverflowError, OSError) as exc:
        err = {"schema": SCHEMA_NAME, "command": "error",
               "error": {"type": "invalid-config", "message": str(exc)}}
        sys.stderr.write(json.dumps(err, separators=(",", ":")) + "\n")
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
