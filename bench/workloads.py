"""The three benchmark workloads: their seeded inputs, one timed pass over
them, and the checks on every output.

A workload builds its op list from the seed once (this is part of set-up)
and then runs it pass after pass.  `run_pass` returns, per op, the latency
in seconds, the output as bytes (the report, or the raw bytes of an oracle
result; they make the fingerprint) and the output itself; `check` turns the
outputs of one pass into one failure
reason (or None) per op plus the number of values the pass emitted.
Checks never run inside a timed region.

The op lists keep their cost structure fixed across seeds (which command on
which signature at which size); the seed draws the parameter values and
the order of the ops.  That keeps run-to-run spread down while every seed
still sends different inputs.
"""

import contextlib
import csv
import io
import json
import random
import time
from importlib import resources

import numpy as np

from coslam import cli, spectral, transform, verify

D = {"R": 1, "C": 2, "H": 4}


def _call_cli(argv):
    """One in-process CLI call; returns (report bytes, (exit status, stdout, stderr))."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return out.getvalue().encode(), (status, out.getvalue(), err.getvalue())


class _OpList:
    """A workload whose ops are independent calls, timed one by one."""

    def run_pass(self, tracer=None):
        """Run every op once: a list of (seconds, output bytes, output)."""
        results = []
        for k, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = k
            t0 = time.perf_counter()
            try:
                data, out = self.call(op)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                data, out = repr(exc).encode(), exc
            results.append((time.perf_counter() - t0, data, out))
        return results


def _schema_validator():
    import jsonschema

    with resources.files("coslam").joinpath("schemas/report-v1.json").open() as fh:
        return jsonschema.Draft7Validator(json.load(fh))


def _schema_error(validator, text):
    try:
        report = json.loads(text)
    except ValueError as exc:
        return None, f"report is not JSON: {exc}"
    err = next(iter(validator.iter_errors(report)), None)
    return report, (f"schema: {err.message}" if err is not None else None)


# ---------------------------------------------------------------------------
# verify-default: `coslam verify --samples 100000 --workers W --seed SEED`.
# ---------------------------------------------------------------------------


class VerifyDefault:
    """One in-process `coslam verify` per pass; an op is one suite row."""

    name = "verify-default"
    cli = True

    def __init__(self, seed, size, workers):
        samples = 100_000 if size == "full" else 2_000
        self.argv = ["verify", "--samples", str(samples), "--workers", str(workers),
                     "--seed", str(seed)]
        self.ops = list(verify.SUITE_NAMES)

    def run_pass(self, tracer=None):
        """One verify call: per suite row (seconds, output bytes, output)."""
        times = {}
        suites = dict(verify.SUITES)

        def timed(name, fn):
            def run(*args, **kwargs):
                if tracer is not None:
                    tracer.op_id = self.ops.index(name)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    times[name] = time.perf_counter() - t0
            return run

        for name, fn in suites.items():
            verify.SUITES[name] = timed(name, fn)
        try:
            data, out = _call_cli(self.argv)
        except Exception as exc:  # counted against every suite row
            data, out = repr(exc).encode(), exc
        finally:
            verify.SUITES.update(suites)
        # Every suite row shares the one report; the first op carries its bytes.
        return [(times.get(name, 0.0), data if i == 0 else b"", out)
                for i, name in enumerate(self.ops)]

    def check(self, outputs):
        """Per suite row a failure reason or None; values are the suite rows."""
        out = outputs[0]
        if isinstance(out, Exception):
            return [f"raised {out!r}"] * len(self.ops), 0
        status, text, _ = out
        report, err = _schema_error(_schema_validator(), text)
        if err is None and status != 0:
            err = f"exit status {status}"
        rows = {row["name"]: row for row in report.get("suites", [])} if report else {}
        reasons = []
        for name in self.ops:
            row = rows.get(name)
            if err is not None:
                reasons.append(err)
            elif row is None:
                reasons.append("suite row missing")
            elif not row["passed"]:
                reasons.append(f"suite failed: measured {row['measured']!r} > "
                               f"tolerance {row['tolerance']!r} ({row.get('detail', '')})")
            elif not row["measured"] <= row["tolerance"]:
                reasons.append(f"suite {name} reports passed with measured {row['measured']!r} "
                               f"> tolerance {row['tolerance']!r}")
            else:
                reasons.append(None)
        return reasons, len(rows)


# ---------------------------------------------------------------------------
# closed-form-scan: spectrum / cp / cp --lambda-grid / poles CLI calls.
# ---------------------------------------------------------------------------

# Signatures over R, C and H up to n = 7, including p = q cases (where the
# spectrum also carries nu, and over R the sign-exceptional K-types).
_CF_SIGNATURES = [
    ("R", 2, 1), ("R", 3, 2), ("R", 5, 3), ("R", 7, 4), ("R", 6, 2),
    ("C", 2, 1), ("C", 3, 1), ("C", 4, 2), ("C", 7, 3),
    ("H", 2, 1), ("H", 3, 2), ("H", 5, 2), ("H", 6, 1), ("H", 7, 3),
]
# Per signature and pass: (command, size) slots.  Sizes: spectrum max degree,
# cp grid point count.
_CF_SLOTS = [
    ("spectrum", 4), ("spectrum", 6), ("spectrum", 6), ("spectrum", 8), ("spectrum", 8),
    ("cp", 1), ("cp", 1), ("cp", 1), ("cp", 1),
    ("cp-grid", 101), ("cp-grid", 101), ("cp-grid", 201), ("cp-grid", 301),
    ("poles", 24), ("poles", 24), ("poles", 24), ("poles", 24),
]
_MP_SAMPLE = 240  # spectral cells checked against mpmath per run
_REL_TOL = 1e-12
_CSV_HEADERS = {
    "spectrum": ["mu", "degree", "omega", "eta_tag", "eta_re", "eta_im", "eta_order",
                 "nu_tag", "nu_re", "nu_im", "nu_order"],
    "cp": ["lambda_re", "lambda_im", "cp_tag", "cp_re", "cp_im", "cp_order"],
    "poles": ["lambda_re", "factor", "side", "j", "k",
              "eta_tag", "eta_re", "eta_im", "eta_order"],
}


def _fmt(x):
    return repr(float(x))


def _lam_arg(lam):
    return f"{_fmt(lam.real)},{_fmt(lam.imag)}"


class ClosedFormScan(_OpList):
    """In-process CLI calls that touch only cli, spectral and scalar."""

    name = "closed-form-scan"
    cli = True

    def __init__(self, seed, size, workers):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
        ops = []
        for i, (field, n, p) in enumerate(_CF_SIGNATURES):
            sig = spectral.GrassmannSignature(n, p, spectral.FieldTag.from_label(field))
            for j, (cmd, size_) in enumerate(_CF_SLOTS):
                fmt = "json" if (i + j) % 2 == 0 else "csv"
                # `--flag=VALUE`: argparse reads a separate "-1.5,0" as an option.
                base = [f"--field={field}", f"--n={n}", f"--p={p}", f"--format={fmt}"]
                complex_lam = j % 2 == 1
                im = float(rng.uniform(-50.0, 50.0)) if complex_lam else 0.0
                if cmd == "spectrum":
                    lam = complex(rng.uniform(-20.0, 40.0), im)
                    argv = ["spectrum", *base, f"--lambda={_lam_arg(lam)}",
                            f"--max-degree={size_}"]
                    info = {"lam": lam}
                elif cmd == "cp":
                    lam = complex(rng.uniform(-20.0, 40.0), im)
                    argv = ["cp", *base, f"--lambda={_lam_arg(lam)}"]
                    info = {"lam": lam}
                elif cmd == "cp-grid":
                    start = float(rng.uniform(-10.0, 10.0))
                    stop = start + 30.0
                    argv = ["cp", *base, f"--lambda-grid={_fmt(start)}:{_fmt(stop)}:{size_}",
                            f"--lambda-im={_fmt(im)}"]
                    info = {"grid": (start, stop, size_, im)}
                else:
                    mus = spectral.enumerate_ktypes(sig, 6)
                    mu = mus[int(rng.integers(len(mus)))].m
                    lo = float(rng.uniform(-20.0, 0.0))
                    argv = ["poles", *base, "--mu=" + ",".join(str(m) for m in mu),
                            f"--re-min={_fmt(lo)}", f"--re-max={_fmt(lo + size_)}"]
                    info = {"mu": mu, "range": (lo, lo + size_)}
                ops.append({"argv": argv, "cmd": argv[0], "fmt": fmt,
                            "sig": (field, n, p), **info})
        order = rng.permutation(len(ops))
        self.ops = [ops[k] for k in order]
        if size != "full":
            self.ops = self.ops[:24]
        self.seed = seed

    @staticmethod
    def call(op):
        return _call_cli(op["argv"])

    # -- checks ---------------------------------------------------------------

    def _cells(self, op, text):
        """The spectral cells of one report, and its row count.

        A cell is a dict: kind (eta, nu or cp), mu, lam, tag, value (finite
        cells) and order (pole and zero markers).
        """
        p = op["sig"][2]
        zero = (0,) * p
        cells = []

        def cell(kind, mu, lam, sv):
            finite = sv["tag"] == "finite"
            cells.append({"kind": kind, "mu": tuple(mu), "lam": lam, "tag": sv["tag"],
                          "value": complex(float(sv["re"]), float(sv["im"])) if finite else None,
                          "order": None if finite else int(sv["order"])})

        if op["fmt"] == "json":
            rows = json.loads(text)["rows"]
            for row in rows:
                if op["cmd"] == "spectrum":
                    cell("eta", row["mu"], op["lam"], row["eta"])
                    if row["nu"] is not None:
                        cell("nu", row["mu"], op["lam"], row["nu"])
                elif op["cmd"] == "cp":
                    cell("cp", zero, complex(row["lambda"]["re"], row["lambda"]["im"]), row["cp"])
                else:
                    cell("eta", op["mu"], complex(row["lambda_re"], 0.0), row["eta"])
            return cells, len(rows)

        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != _CSV_HEADERS[op["cmd"]]:
            raise ValueError(f"CSV header {rows[0]} is not the documented column order")

        def sv(tag, re, im, order):
            return {"tag": tag, "re": re, "im": im, "order": order}

        for r in rows[1:]:
            if op["cmd"] == "spectrum":
                mu = tuple(int(x) for x in r[0].split())
                cell("eta", mu, op["lam"], sv(*r[3:7]))
                if r[7]:
                    cell("nu", mu, op["lam"], sv(*r[7:11]))
            elif op["cmd"] == "cp":
                cell("cp", zero, complex(float(r[0]), float(r[1])), sv(*r[2:6]))
            else:
                cell("eta", op["mu"], complex(float(r[0]), 0.0), sv(*r[5:9]))
        return cells, len(rows) - 1

    def _structure_error(self, op, report_rows, cells):
        if op["cmd"] == "cp" and "grid" in op:
            start, stop, count, im = op["grid"]
            if report_rows != count:
                return f"{report_rows} grid rows, expected {count}"
            step = (stop - start) / (count - 1)
            for i, c in enumerate(cells):
                if c["lam"] != complex(start + i * step, im):
                    return f"grid row {i} at lambda {c['lam']}"
        elif op["cmd"] == "cp":
            if report_rows != 1 or cells[0]["lam"] != op["lam"]:
                return "cp row does not echo the requested lambda"
        elif op["cmd"] == "poles":
            lo, hi = op["range"]
            if any(not lo <= c["lam"].real <= hi for c in cells):
                return "pole crossing outside the requested range"
        elif report_rows == 0:
            return "empty spectrum"
        return None

    def check(self, outputs):
        """Per op a failure reason or None; values are the spectral cells emitted."""
        validator = _schema_validator()
        reasons = []
        all_cells = []
        for k, (op, out) in enumerate(zip(self.ops, outputs)):
            if isinstance(out, Exception):
                reasons.append(f"raised {out!r}")
                continue
            status, text, err = out
            if status != 0:
                reasons.append(f"exit status {status}: {err}")
                continue
            if op["fmt"] == "json":
                _, schema_err = _schema_error(validator, text)
                if schema_err is not None:
                    reasons.append(schema_err)
                    continue
            try:
                cells, nrows = self._cells(op, text)
            except (ValueError, KeyError, IndexError) as exc:
                reasons.append(f"unreadable report: {exc}")
                continue
            reasons.append(self._structure_error(op, nrows, cells))
            all_cells.extend((k, c) for c in cells)
        picked = random.Random(self.seed).sample(all_cells, min(_MP_SAMPLE, len(all_cells)))
        for k, c in picked:
            err = _mp_check(self.ops[k]["sig"], c)
            if err is not None and reasons[k] is None:
                reasons[k] = err
        return reasons, len(all_cells)


def _mp_eval(sig, cell, h):
    """The Gindikin-Gamma formula for one cell, in mpmath at lambda + h."""
    import mpmath as mp

    field, n, p = sig
    d = D[field]
    lam = mp.mpc(cell["lam"].real, cell["lam"].imag) + h
    mu = cell["mu"]
    zero = (0,) * p

    def gind(twice, shifts, inverse=False):
        g = mp.rgamma if inverse else mp.gamma
        out = mp.mpf(1)
        for j in range(p):
            out *= g((twice + shifts[j]) / 2 - mp.mpf(d) * j / 2)
        return out

    rho = mp.mpf(d * (n + 1)) / 2
    if cell["kind"] == "cp":
        return (gind(d * (n + 1), zero) * gind(d * p, zero, True)
                * gind(lam - rho + d * p, zero) * gind(lam + rho, zero, True))
    if cell["kind"] == "eta":
        sign = -1 if (sum(mu) // 2) % 2 else 1
        head = gind(d * (n + 1), zero) * gind(d * p, zero, True) * gind(lam - rho + d * p, zero)
    else:
        sign = 1
        head = gind(2 * rho, zero) * gind(rho, zero, True) * gind(lam, zero)
    return sign * head * (gind(-lam + rho, mu) * gind(-lam + rho, zero, True)
                          * gind(lam + rho, mu, True))


def _mp_check(sig, cell):
    """Compare one cell with an independent 50-digit evaluation.

    Evaluating at lambda + h with h = 1e-30 lands off every singular
    hyperplane, so removable singularities come out as their limits.  A
    pole or zero marker is checked by its order: the slope of log|value|
    against log h between h = 1e-30 and h = 1e-35.
    """
    import mpmath as mp

    with mp.workdps(50):
        v1 = _mp_eval(sig, cell, mp.mpf("1e-30"))
        if cell["tag"] == "finite":
            rel = float(abs(mp.mpc(cell["value"]) - v1) / abs(v1))
            if not rel <= _REL_TOL:
                return (f"{cell['kind']}{cell['mu']} at lambda={cell['lam']}: relative error "
                        f"{rel:.2e} against mpmath (tolerance {_REL_TOL:g})")
            return None
        v2 = _mp_eval(sig, cell, mp.mpf("1e-35"))
        slope = float((mp.log(abs(v2)) - mp.log(abs(v1))) / mp.log(mp.mpf("1e-5")))
        expected = -cell["order"] if cell["tag"] == "pole" else cell["order"]
        if abs(slope - expected) > 0.01:
            return (f"{cell['kind']}{cell['mu']} at lambda={cell['lam']}: {cell['tag']} of order "
                    f"{cell['order']}, mpmath gives order {slope:.3f}")
    return None


# ---------------------------------------------------------------------------
# quadrature-oracles: sphere quadrature, Funk-Hecke and Selberg oracles.
# ---------------------------------------------------------------------------

# (n, grid order, complex lambda): stacked zonal functions of degrees 0..5
# about a seeded axis.  The complex-lambda power path is the slow one.
_SPHERE_SLOTS = [
    (2, 64, False), (2, 48, False), (2, 32, True), (2, 32, True),
    (1, 32, False), (1, 64, False), (1, 32, True), (1, 64, True),
    (1, 48, False), (1, 40, False), (1, 48, True), (1, 40, True),
]
_SPHERE_DEGREES = 6
_FH_OPS = 40
_SELBERG_OPS = 20
_FH_TOL = 1e-7
_SELBERG_TOL = 1e-6
_ODD_TOL = 1e-10


def _gap(rng, lo, hi):
    # A real offset lambda - rho in [lo, hi] kept 0.3 away from the even
    # integers, where sphere_eta(n, m, .) has zeros for m > 0 and a relative
    # error would be meaningless.
    while True:
        g = float(rng.uniform(lo, hi))
        if abs(g - 2.0 * round(g / 2.0)) >= 0.3:
            return g


class QuadratureOracles(_OpList):
    """Deterministic quadrature oracles of `transform` against the closed forms."""

    name = "quadrature-oracles"
    cli = False

    def __init__(self, seed, size, workers):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 202]))
        sphere = _SPHERE_SLOTS if size == "full" else _SPHERE_SLOTS[4:8]
        ops = []
        for n, order, is_complex in sphere:
            grid = transform.sphere_grid(n, order)
            axis = rng.standard_normal(n + 1)
            axis /= np.linalg.norm(axis)
            t = grid.points @ axis
            f = np.stack([transform.zonal_values(n, m, t) for m in range(_SPHERE_DEGREES)],
                         axis=1)
            rho = (n + 1) / 2.0
            lam = complex(rho + float(rng.uniform(2.0, 4.0)),
                          float(rng.uniform(0.5, 2.0)) * rng.choice([-1.0, 1.0])
                          if is_complex else 0.0)
            ops.append({"kind": "sphere", "n": n, "order": order, "lam": lam,
                        "grid": grid, "f": f})
        for i in range(_FH_OPS if size == "full" else 4):
            n, m = 2 + i % 5, 2 * ((i // 5) % 5)
            rho = (n + 1) / 2.0
            im = float(rng.uniform(-5.0, 5.0)) if i % 2 else 0.0
            ops.append({"kind": "funk-hecke", "n": n, "m": m,
                        "lam": complex(rho + _gap(rng, 0.3, 4.0), im)})
        for i in range(_SELBERG_OPS if size == "full" else 2):
            ops.append({"kind": "selberg", "p": 1 + i % 2, "alpha": float(rng.uniform(0.4, 1.6)),
                        "g1": float(rng.uniform(1.0, 3.0)), "g2": float(rng.uniform(1.0, 3.0))})
        self.ops = [ops[k] for k in rng.permutation(len(ops))]

    @staticmethod
    def call(op):
        if op["kind"] == "sphere":
            out = transform.cos_transform_sphere(op["n"], op["lam"], op["f"], op["grid"])
        elif op["kind"] == "funk-hecke":
            out = transform.funk_hecke_1d(op["n"], op["m"], op["lam"])
        else:
            out = transform.selberg_oracle(op["p"], op["alpha"], op["g1"], op["g2"])
        return np.asarray(out).tobytes(), out

    def check(self, outputs):
        """Per op a failure reason or None; values are the eigenvalue estimates
        returned (one per stacked function, one per 1-D oracle call)."""
        reasons = []
        for op, out in zip(self.ops, outputs):
            if isinstance(out, Exception):
                reasons.append(f"raised {out!r}")
            elif op["kind"] == "sphere":
                tol = transform.sphere_quadrature_tolerance(op["lam"], op["n"], op["order"])
                reason = None
                for m in range(_SPHERE_DEGREES):
                    if m % 2:
                        err, bound = float(np.abs(out[:, m]).max()), _ODD_TOL
                    else:
                        ev = spectral.sphere_eta(op["n"], m, op["lam"]).value
                        err, bound = float(np.abs(out[:, m] - ev * op["f"][:, m]).max()), tol
                    if not err <= bound:
                        reason = f"S^{op['n']} order {op['order']} degree {m}: error {err:.2e} > {bound:.1e}"
                        break
                reasons.append(reason)
            elif op["kind"] == "funk-hecke":
                got = complex(out)
                ref = spectral.sphere_eta(op["n"], op["m"], op["lam"]).value
                rel = abs(got - ref) / abs(ref)
                reasons.append(None if rel <= _FH_TOL else
                               f"funk_hecke_1d{(op['n'], op['m'], op['lam'])}: relative error {rel:.2e}")
            else:
                got = float(out)
                ref = transform.selberg_closed(op["p"], op["alpha"], op["g1"], op["g2"]).value.real
                err = abs(got - ref) / max(1.0, abs(ref))
                reasons.append(None if err <= _SELBERG_TOL else
                               f"selberg_oracle p={op['p']}: error {err:.2e}")
        values = sum(_SPHERE_DEGREES if op["kind"] == "sphere" else 1 for op in self.ops)
        return reasons, values


WORKLOADS = {w.name: w for w in (VerifyDefault, ClosedFormScan, QuadratureOracles)}


def count_failed(reasons, differs, passes):
    """Failed ops over all passes.

    reasons: the check of the first pass, one entry per op; differs: per op,
    the later passes whose output differed from the first pass.  An op that
    fails its check fails in every pass, since later passes must repeat it.
    """
    return sum(passes if r is not None else d for r, d in zip(reasons, differs))

