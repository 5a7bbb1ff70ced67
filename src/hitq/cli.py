"""Command-line driver: degree sweeps, invariants, transfer reports, verification."""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import click

from . import action, dual, hit, lam, poly, transfer

LONG_THRESHOLD = 80


@dataclass
class JobSpec:
    """Validated parameters of one CLI invocation."""

    command: str
    q: int
    degrees: tuple
    group: str = "gl"
    by_weight: bool = False
    omega: tuple | None = None
    fmt: str = "text"
    cache: str | None = None
    jobs: int = 1
    allow_long: bool = False
    long_threshold: int = LONG_THRESHOLD

    def validate(self) -> None:
        if self.q < 1:
            raise click.UsageError("--q must be at least 1")
        if not self.degrees:
            raise click.UsageError("no degrees given")
        for n in self.degrees:
            if n < 0:
                raise click.UsageError(f"degree {n} is negative")
            if n > self.long_threshold and not self.allow_long:
                raise click.UsageError(
                    f"degree {n} exceeds the long-job threshold "
                    f"({self.long_threshold}); rerun with --allow-long"
                )
        if self.omega is not None:
            if len(self.degrees) != 1:
                raise click.UsageError("--omega requires a single --n")
            if poly.weight_degree(self.omega) != self.degrees[0]:
                raise click.UsageError(
                    f"weight vector {self.omega} has degree "
                    f"{poly.weight_degree(self.omega)}, not {self.degrees[0]}"
                )


def _parse_ints(text: str, what: str) -> tuple:
    try:
        return tuple(int(s) for s in text.replace(" ", "").split(",") if s)
    except ValueError:
        raise click.UsageError(f"cannot parse {what} list {text!r}")


def _spec(command, q, n, degrees, fmt, cache, jobs, allow_long, long_threshold,
          group="gl", by_weight=False, omega=None) -> JobSpec:
    if (n is None) == (degrees is None):
        raise click.UsageError("provide exactly one of --n or --degrees")
    degs = (n,) if n is not None else _parse_ints(degrees, "degree")
    om = _parse_ints(omega, "weight") if omega is not None else None
    spec = JobSpec(command, q, degs, group, by_weight, om, fmt, cache,
                   jobs if jobs > 0 else (os.cpu_count() or 1),
                   allow_long, long_threshold)
    spec.validate()
    _override_cache(spec.cache)
    return spec


def _override_cache(cache: str | None) -> None:
    """Point HITQ_CACHE at `cache` until the current command returns."""
    if not cache:
        return
    before = os.environ.get("HITQ_CACHE")
    os.environ["HITQ_CACHE"] = cache
    restore = ((lambda: os.environ.pop("HITQ_CACHE", None)) if before is None
               else (lambda: os.environ.update(HITQ_CACHE=before)))
    click.get_current_context().call_on_close(restore)


def _common_options(f):
    decs = [
        click.option("--q", "q", type=int, required=True,
                     help="number of polynomial variables"),
        click.option("--n", "n", type=int, default=None, help="single degree"),
        click.option("--degrees", default=None, metavar="N1,N2,...",
                     help="comma-separated degree sweep"),
        click.option("--format", "fmt",
                     type=click.Choice(["json", "csv", "text"]),
                     default="text", show_default=True),
        click.option("--cache", type=click.Path(file_okay=False), default=None,
                     help="cache directory (overrides HITQ_CACHE)"),
        click.option("--jobs", type=int, default=0, metavar="N",
                     help="parallel workers over degrees (0 = all cores)"),
        click.option("--allow-long", is_flag=True,
                     help="permit degrees above the long-job threshold"),
        click.option("--long-threshold", type=int, default=LONG_THRESHOLD,
                     show_default=True,
                     help="degree above which jobs are refused"),
    ]
    for dec in reversed(decs):
        f = dec(f)
    return f


# --- parallel degree sweeps ---------------------------------------------------

def _init_worker(cache: str | None) -> None:
    if cache:
        os.environ["HITQ_CACHE"] = cache


def _map_jobs(spec: JobSpec, fn, argslist: list) -> list:
    if spec.jobs > 1 and len(argslist) > 1:
        workers = min(spec.jobs, len(argslist))
        with ProcessPoolExecutor(workers, initializer=_init_worker,
                                 initargs=(spec.cache,)) as pool:
            return list(pool.map(fn, argslist))
    return [fn(a) for a in argslist]


def _basis_job(args):
    q, n, with_weights = args
    qb = hit.quotient_basis(q, n)
    weights = None
    if with_weights:
        weights = list(hit.weight_dimensions(qb).items())
    return qb.dim, weights


def _invariants_job(args):
    q, n, group = args
    qb = hit.quotient_basis(q, n)
    gens = action.group_generators(q, group)
    return qb.dim, len(action.invariant_subspace(qb, gens))


def _primitives_job(args):
    q, n = args
    return len(dual.primitive_basis(q, n))


def _transfer_job(args):
    q, n = args
    rep = transfer.transfer_image_report(q, n)
    gens = []
    for e, z, ident in rep.generators:
        gens.append({
            "element": {"q": q, "n": n, "terms": sorted(list(m) for m in e)},
            "cycle": {"terms": lam.to_display(z)},
            "classes": list(ident) if isinstance(ident, tuple) else ident,
        })
    return {"generators": gens, "image": sorted(rep.image),
            "unidentified": rep.unidentified}


# --- report emission ----------------------------------------------------------

def _omega_str(omega) -> str:
    return "(" + ",".join(str(w) for w in omega) + ")"


def _emit(spec: JobSpec, payload: dict, rows: list, lines: list) -> None:
    if spec.fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    elif spec.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["q", "n", "omega", "dim", "kind"])
        for q, n, omega, dim, kind in rows:
            writer.writerow(
                [q, n, "" if omega is None else _omega_str(omega), dim, kind])
        click.echo(buf.getvalue().rstrip("\n"))
    else:
        for line in lines:
            click.echo(line)


@click.group()
def main():
    """GF(2) workbench for hit-problem quotients, invariants, and the transfer."""


@main.command()
@_common_options
@click.option("--by-weight", is_flag=True,
              help="also report per weight-vector dimensions")
@click.option("--omega", default=None, metavar="W1,W2,...",
              help="restrict to a single weight-vector block")
def basis(q, n, degrees, fmt, cache, jobs, allow_long, long_threshold,
          by_weight, omega):
    """Dimensions of the quotients Q^q_n over the admissible basis."""
    spec = _spec("basis", q, n, degrees, fmt, cache, jobs, allow_long,
                 long_threshold, by_weight=by_weight, omega=omega)
    rows, lines, results = [], [], []
    if spec.omega is not None:
        d = spec.degrees[0]
        dim = hit.weight_quotient(spec.q, d, spec.omega).dim
        results.append({"n": d, "omega": list(spec.omega), "dim": dim})
        rows.append((spec.q, d, spec.omega, dim, "weight"))
        lines.append(f"Q^{spec.q}_{d} | omega={_omega_str(spec.omega)}: dim = {dim}")
    else:
        out = _map_jobs(spec, _basis_job,
                        [(spec.q, d, spec.by_weight) for d in spec.degrees])
        for d, (dim, weights) in zip(spec.degrees, out):
            entry = {"n": d, "dim": dim}
            rows.append((spec.q, d, None, dim, "total"))
            lines.append(f"Q^{spec.q}_{d}: dim = {dim}")
            if weights is not None:
                entry["weights"] = [{"omega": list(om), "dim": dw}
                                    for om, dw in weights]
                for om, dw in weights:
                    rows.append((spec.q, d, om, dw, "weight"))
                    lines.append(f"  omega={_omega_str(om)}: dim = {dw}")
            results.append(entry)
    _emit(spec, {"command": "basis", "q": spec.q, "results": results},
          rows, lines)


@main.command()
@_common_options
@click.option("--group", type=click.Choice(["sigma", "gl"]), default="gl",
              show_default=True, help="symmetric group or full GL(q)")
def invariants(q, n, degrees, fmt, cache, jobs, allow_long, long_threshold,
               group):
    """Dimensions of the group-invariant subspaces of Q^q_n."""
    spec = _spec("invariants", q, n, degrees, fmt, cache, jobs, allow_long,
                 long_threshold, group=group)
    out = _map_jobs(spec, _invariants_job,
                    [(spec.q, d, spec.group) for d in spec.degrees])
    rows, lines, results = [], [], []
    for d, (dim, inv) in zip(spec.degrees, out):
        results.append({"n": d, "dim": dim, "invariants": inv})
        rows.append((spec.q, d, None, inv, f"invariant-{spec.group}"))
        lines.append(f"(Q^{spec.q}_{d})^{spec.group}: dim = {inv}")
    _emit(spec, {"command": "invariants", "q": spec.q, "group": spec.group,
                 "results": results}, rows, lines)


@main.command()
@_common_options
def primitives(q, n, degrees, fmt, cache, jobs, allow_long, long_threshold):
    """Dimensions of the spaces of Steenrod-annihilated dual elements."""
    spec = _spec("primitives", q, n, degrees, fmt, cache, jobs, allow_long,
                 long_threshold)
    out = _map_jobs(spec, _primitives_job,
                    [(spec.q, d) for d in spec.degrees])
    rows, lines, results = [], [], []
    for d, dim in zip(spec.degrees, out):
        results.append({"n": d, "dim": dim})
        rows.append((spec.q, d, None, dim, "primitive"))
        lines.append(f"primitives(q={spec.q}, n={d}): dim = {dim}")
    _emit(spec, {"command": "primitives", "q": spec.q, "results": results},
          rows, lines)


@main.command("transfer")
@_common_options
def transfer_cmd(q, n, degrees, fmt, cache, jobs, allow_long, long_threshold):
    """Transfer images of the coinvariant generators, identified in homology."""
    spec = _spec("transfer", q, n, degrees, fmt, cache, jobs, allow_long,
                 long_threshold)
    out = _map_jobs(spec, _transfer_job, [(spec.q, d) for d in spec.degrees])
    rows, lines, results = [], [], []
    for d, rep in zip(spec.degrees, out):
        results.append({"n": d, **rep})
        rows.append((spec.q, d, None, len(rep["generators"]), "transfer"))
        if not rep["generators"]:
            lines.append(f"n={d}: Im Tr_{spec.q} = 0 (no coinvariant generators)")
            continue
        shown = list(rep["image"])
        if rep["unidentified"]:
            shown.append(f"{rep['unidentified']} unidentified")
        if not shown:
            lines.append(f"n={d}: Im Tr_{spec.q} = 0 (boundary image)")
            continue
        lines.append(
            f"n={d}: Im Tr_{spec.q} = ⟨{', '.join(shown)}⟩ "
            f"({len(rep['generators'])} generator(s))")
    _emit(spec, {"command": "transfer", "q": spec.q, "results": results},
          rows, lines)


# --- verification suites --------------------------------------------------------

def _suite_paper_dims():
    for n, want in ((9, 46), (21, 94), (45, 105), (65, 150)):
        yield f"dim Q^4_{n} = {want}", hit.quotient_basis(4, n).dim == want
    ok = all(hit.quotient_basis(1, n).dim == (1 if (n + 1) & n == 0 else 0)
             for n in range(21))
    yield "q=1 dims are 1 exactly at n = 2^k - 1 (n <= 20)", ok
    ok = True
    for n in range(25):
        total = sum(hit.weight_quotient(4, n, om).dim
                    for om in hit.enumerate_weights(4, n))
        ok = ok and total == hit.quotient_basis(4, n).dim
    yield "weight-block dims sum to dim Q^4_n (n <= 24)", ok


def _suite_paper_invariants():
    qb9 = hit.quotient_basis(4, 9)
    sig = len(action.invariant_subspace(qb9, action.sigma_generators(4)))
    yield "dim (Q^4_9)^sigma = 4", sig == 4
    for n, want in ((9, 1), (10, 0), (17, 1), (21, 0), (22, 1), (37, 0),
                    (45, 1), (46, 0)):
        qb = hit.quotient_basis(4, n)
        got = len(action.invariant_subspace(qb, action.gl_generators(4)))
        yield f"dim (Q^4_{n})^gl = {want}", got == want
    for n in (10, 22, 46):
        got = len(action.kernel_invariants(4, n, action.gl_generators(4)))
        yield f"(Ker Sq^0)^gl = 0 at n = {n}", got == 0


def _suite_paper_transfer():
    for n, want in ((9, ("h_1c_0",)), (17, ("e_0",)), (21, ())):
        rep = transfer.transfer_image_report(4, n)
        label = f"Im Tr_4 at n={n} is {want if want else '0'}"
        yield label, tuple(sorted(rep.image)) == want and rep.unidentified == 0
    yield ("theta/psi square compatibility at n=9",
           transfer.sq0_compat_check(4, 9))


def _suite_lambda_props():
    ok = all(lam.normalize([(i, 2 * i + 1)]) == lam.ZERO for i in range(11))
    yield "lambda_i lambda_{2i+1} rewrites to 0 (i <= 10)", ok
    ok = True
    for s in range(1, 5):
        for n in range(25):
            for w in lam.admissible_basis(s, n):
                ok = ok and not lam.differential(lam.differential([w]))
    yield "d(d(w)) = 0 for admissible words, length <= 4, degree <= 24", ok
    ok = True
    for n in range(21):
        for a in range(n + 1):
            for b in range(n - a + 1):
                w = (a, b, n - a - b)
                ok = ok and (lam.differential([w])
                             == lam.differential(lam.normalize([w])))
    yield "d agrees before/after normalization (length 3, degree <= 20)", ok
    ok = True
    for s in range(1, 4):
        for n in range(21):
            for w in lam.admissible_basis(s, n):
                ok = ok and (lam.theta(lam.differential([w]))
                             == lam.differential(lam.theta([w])))
    yield "theta is a chain map (length <= 3, degree <= 20)", ok
    e0 = dict(lam.catalog(4, 17))["e_0"]
    yield "the degree-17 catalog cycle e_0 has d = 0", not lam.differential(e0)


SUITES = {
    "paper-dims": _suite_paper_dims,
    "paper-invariants": _suite_paper_invariants,
    "paper-transfer": _suite_paper_transfer,
    "lambda-props": _suite_lambda_props,
}


@main.command()
@click.argument("suite_name", required=False)
@click.option("--suite", "suite_opt", default=None,
              help="suite name (alternative to the positional argument)")
@click.option("--cache", type=click.Path(file_okay=False), default=None,
              help="cache directory (overrides HITQ_CACHE)")
def verify(suite_name, suite_opt, cache):
    """Run a named verification suite; exit 1 on any mismatch."""
    name = suite_opt or suite_name
    available = ", ".join(sorted(SUITES))
    if not name:
        raise click.UsageError(f"provide a suite name; available: {available}")
    if name not in SUITES:
        raise click.UsageError(f"unknown suite {name!r}; available: {available}")
    _override_cache(cache)
    npass = nfail = 0
    for label, ok in SUITES[name]():
        click.echo(("PASS " if ok else "FAIL ") + label)
        if ok:
            npass += 1
        else:
            nfail += 1
    click.echo(f"{name}: {npass} passed, {nfail} failed")
    if nfail:
        raise SystemExit(1)


__all__ = ["JobSpec", "main", "SUITES", "LONG_THRESHOLD"]
