"""Command-line driver: degree sweeps, invariants, transfer reports, verification."""

from __future__ import annotations

import csv
import io
import json
import os

import click

from . import action, dual, hit, lam, poly, transfer

LONG_THRESHOLD = 80


def _parse_ints(text: str, what: str) -> tuple:
    try:
        return tuple(int(s) for s in text.replace(" ", "").split(",") if s)
    except ValueError:
        raise click.UsageError(f"cannot parse {what} list {text!r}")


def _degrees(opts: dict) -> tuple:
    """The degrees of --n or --degrees, after the --q, --jobs and long-job checks."""
    n, degrees = opts["n"], opts["degrees"]
    if (n is None) == (degrees is None):
        raise click.UsageError("provide exactly one of --n or --degrees")
    degs = (n,) if n is not None else _parse_ints(degrees, "degree")
    if opts["q"] < 1:
        raise click.UsageError("--q must be at least 1")
    if opts["jobs"] < 0:
        raise click.UsageError("--jobs must be at least 0")
    if not degs:
        raise click.UsageError("no degrees given")
    for d in degs:
        if d < 0:
            raise click.UsageError(f"degree {d} is negative")
        if d > LONG_THRESHOLD and not opts["allow_long"]:
            raise click.UsageError(
                f"degree {d} exceeds the long-job threshold "
                f"({LONG_THRESHOLD}); rerun with --allow-long"
            )
    return degs


def _override_cache(cache: str | None) -> None:
    """Point HITQ_CACHE at `cache` until the current command returns."""
    if not cache:
        return
    before = os.environ.get("HITQ_CACHE")
    os.environ["HITQ_CACHE"] = cache
    restore = ((lambda: os.environ.pop("HITQ_CACHE", None)) if before is None
               else (lambda: os.environ.update(HITQ_CACHE=before)))
    click.get_current_context().call_on_close(restore)


_CACHE_OPTION = click.option(
    "--cache", type=click.Path(file_okay=False), default=None,
    help="cache directory (overrides HITQ_CACHE)")


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
        _CACHE_OPTION,
        click.option("--jobs", type=int, default=0, metavar="N",
                     help="parallel workers over degrees (0 = all cores)"),
        click.option("--allow-long", is_flag=True,
                     help=f"permit degrees above {LONG_THRESHOLD}"),
    ]
    for dec in reversed(decs):
        f = dec(f)
    return f


# --- degree jobs: (q, n, arg) -> (JSON entry, CSV rows, text lines) -----------

def _omega_str(omega) -> str:
    return "(" + ",".join(str(w) for w in omega) + ")"


def _basis_job(q, n, by_weight):
    qb = hit.quotient_basis(q, n)
    entry = {"n": n, "dim": qb.dim}
    rows = [(q, n, "", qb.dim, "total")]
    lines = [f"Q^{q}_{n}: dim = {qb.dim}"]
    if by_weight:
        weights = hit.weight_dimensions(qb).items()
        entry["weights"] = [{"omega": list(om), "dim": d} for om, d in weights]
        rows += [(q, n, _omega_str(om), d, "weight") for om, d in weights]
        lines += [f"  omega={_omega_str(om)}: dim = {d}" for om, d in weights]
    return entry, rows, lines


def _block_job(q, n, omega):
    block = hit.weight_quotient(q, n, omega)
    omega, dim = block.omega, block.dim  # omega without trailing zeros
    return ({"n": n, "omega": list(omega), "dim": dim},
            [(q, n, _omega_str(omega), dim, "weight")],
            [f"Q^{q}_{n} | omega={_omega_str(omega)}: dim = {dim}"])


def _invariants_job(q, n, group):
    qb = hit.quotient_basis(q, n)
    inv = len(action.invariant_subspace(qb, action.group_generators(q, group)))
    return ({"n": n, "dim": qb.dim, "invariants": inv},
            [(q, n, "", inv, f"invariant-{group}")],
            [f"(Q^{q}_{n})^{group}: dim = {inv}"])


def _primitives_job(q, n, _):
    dim = len(dual.primitive_basis(q, n))
    return ({"n": n, "dim": dim}, [(q, n, "", dim, "primitive")],
            [f"primitives(q={q}, n={n}): dim = {dim}"])


def _transfer_job(q, n, _):
    rep = transfer.transfer_image_report(q, n)
    gens = [{
        "element": {"q": q, "n": n, "terms": sorted(list(m) for m in e)},
        "cycle": {"terms": lam.to_display(z)},
        "classes": list(ident) if isinstance(ident, tuple) else ident,
    } for e, z, ident in rep.generators]
    image = sorted(rep.image)
    shown = image + ([f"{rep.unidentified} unidentified"]
                     if rep.unidentified else [])
    if not gens:
        line = f"n={n}: Im Tr_{q} = 0 (no coinvariant generators)"
    elif not shown:
        line = f"n={n}: Im Tr_{q} = 0 (boundary image)"
    else:
        line = (f"n={n}: Im Tr_{q} = ⟨{', '.join(shown)}⟩ "
                f"({len(gens)} generator(s))")
    entry = {"n": n, "generators": gens, "image": image,
             "unidentified": rep.unidentified}
    return entry, [(q, n, "", len(gens), "transfer")], [line]


# --- the degree sweep -----------------------------------------------------------

def _init_worker(cache: str | None) -> None:
    if cache:
        os.environ["HITQ_CACHE"] = cache


def _sweep(head: dict, job, arg, degs: tuple, opts: dict) -> None:
    """Run job(q, n, arg) for each degree, in order, and print the report."""
    q, cache = opts["q"], opts["cache"]
    _override_cache(cache)
    jobs = opts["jobs"] if opts["jobs"] > 0 else (os.cpu_count() or 1)
    workers = min(jobs, len(degs))
    if workers > 1:
        # imported here: one worker, the common case, skips its start-up cost
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers, initializer=_init_worker,
                                 initargs=(cache,)) as pool:
            out = list(pool.map(job, [q] * len(degs), degs, [arg] * len(degs)))
    else:
        out = [job(q, d, arg) for d in degs]
    if opts["fmt"] == "json":
        payload = {**head, "q": q, "results": [entry for entry, _, _ in out]}
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    elif opts["fmt"] == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["q", "n", "omega", "dim", "kind"])
        for _, rows, _ in out:
            writer.writerows(rows)
        click.echo(buf.getvalue().rstrip("\n"))
    else:
        for _, _, lines in out:
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
def basis(by_weight, omega, **opts):
    """Dimensions of the quotients Q^q_n over the admissible basis."""
    degs = _degrees(opts)
    job, arg = _basis_job, by_weight
    if omega is not None:
        job, arg = _block_job, _parse_ints(omega, "weight")
        if len(degs) != 1:
            raise click.UsageError("--omega requires a single --n")
        if min(arg, default=0) < 0:
            raise click.UsageError(f"weight vector {arg} has a negative entry")
        if poly.weight_degree(arg) != degs[0]:
            raise click.UsageError(
                f"weight vector {arg} has degree {poly.weight_degree(arg)}, "
                f"not {degs[0]}")
    _sweep({"command": "basis"}, job, arg, degs, opts)


@main.command()
@_common_options
@click.option("--group", type=click.Choice(["sigma", "gl"]), default="gl",
              show_default=True, help="symmetric group or full GL(q)")
def invariants(group, **opts):
    """Dimensions of the group-invariant subspaces of Q^q_n."""
    _sweep({"command": "invariants", "group": group}, _invariants_job, group,
           _degrees(opts), opts)


@main.command()
@_common_options
def primitives(**opts):
    """Dimensions of the spaces of Steenrod-annihilated dual elements."""
    _sweep({"command": "primitives"}, _primitives_job, None, _degrees(opts), opts)


@main.command("transfer")
@_common_options
def transfer_cmd(**opts):
    """Transfer images of the coinvariant generators, identified in homology."""
    _sweep({"command": "transfer"}, _transfer_job, None, _degrees(opts), opts)


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
@_CACHE_OPTION
def verify(suite_name, cache):
    """Run a named verification suite; exit 1 on any mismatch."""
    available = ", ".join(sorted(SUITES))
    if not suite_name:
        raise click.UsageError(f"provide a suite name; available: {available}")
    if suite_name not in SUITES:
        raise click.UsageError(
            f"unknown suite {suite_name!r}; available: {available}")
    _override_cache(cache)
    npass = nfail = 0
    for label, ok in SUITES[suite_name]():
        click.echo(("PASS " if ok else "FAIL ") + label)
        if ok:
            npass += 1
        else:
            nfail += 1
    click.echo(f"{suite_name}: {npass} passed, {nfail} failed")
    if nfail:
        raise SystemExit(1)


__all__ = ["main", "SUITES", "LONG_THRESHOLD"]
