"""Command-line driver: degree sweeps, invariants, transfer reports, verification."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os

# the jobs and suites import action, dual, lam and transfer: only what runs loads
from . import hit, poly

LONG_THRESHOLD = 80


class UsageError(Exception):
    """A bad command line: printed under the command's usage, exit code 2."""


def _parse_ints(text: str, what: str) -> tuple:
    try:
        return tuple(int(s) for s in text.replace(" ", "").split(","))
    except ValueError:
        raise UsageError(f"cannot parse {what} list {text!r}")


def _degrees(opts) -> tuple:
    """The degrees of --n or --degrees, after the --q, --jobs and long-job checks."""
    n, degrees = opts.n, opts.degrees
    if (n is None) == (degrees is None):
        raise UsageError("provide exactly one of --n or --degrees")
    degs = (n,) if n is not None else _parse_ints(degrees, "degree")
    if opts.q < 1:
        raise UsageError("--q must be at least 1")
    if opts.jobs < 0:
        raise UsageError("--jobs must be at least 0")
    for d in degs:
        if d < 0:
            raise UsageError(f"degree {d} is negative")
        if d > LONG_THRESHOLD and not opts.allow_long:
            raise UsageError(
                f"degree {d} exceeds the long-job threshold "
                f"({LONG_THRESHOLD}); rerun with --allow-long"
            )
    return degs


def _directory(path: str) -> str:
    """--cache: a directory, or a path not made yet, but never a file."""
    if os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"Directory {path!r} is a file.")
    return path


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
    block = hit.weight_quotient(hit.quotient_basis(q, n), omega)
    omega, dim = block.omega, block.dim  # omega without trailing zeros
    return ({"n": n, "omega": list(omega), "dim": dim},
            [(q, n, _omega_str(omega), dim, "weight")],
            [f"Q^{q}_{n} | omega={_omega_str(omega)}: dim = {dim}"])


def _invariants_job(q, n, group):
    from . import action
    qb = hit.quotient_basis(q, n)
    inv = len(action.invariant_subspace(qb, action.group_generators(q, group)))
    return ({"n": n, "dim": qb.dim, "invariants": inv},
            [(q, n, "", inv, f"invariant-{group}")],
            [f"(Q^{q}_{n})^{group}: dim = {inv}"])


def _primitives_job(q, n, _):
    from . import dual
    dim = len(dual.primitive_basis(q, n))
    return ({"n": n, "dim": dim}, [(q, n, "", dim, "primitive")],
            [f"primitives(q={q}, n={n}): dim = {dim}"])


def _transfer_job(q, n, _):
    from . import lam, transfer
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


def _sweep(opts, degs: tuple, job, arg=None, **head) -> None:
    """Run job(q, n, arg) for each degree, in order, and print the report."""
    q = opts.q
    cores = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):  # the cores this process may run on
        cores = min(cores, len(os.sched_getaffinity(0)))
    workers = min(opts.jobs or cores, cores, len(degs))
    if workers > 1:
        # imported here: one worker, the common case, skips its start-up cost
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers, initializer=_init_worker,
                                 initargs=(opts.cache,)) as pool:
            out = list(pool.map(job, [q] * len(degs), degs, [arg] * len(degs)))
    else:
        out = [job(q, d, arg) for d in degs]
    if opts.fmt == "json":
        payload = {"command": opts.command, **head, "q": q,
                   "results": [entry for entry, _, _ in out]}
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif opts.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["q", "n", "omega", "dim", "kind"])
        for _, rows, _ in out:
            writer.writerows(rows)
        print(buf.getvalue().rstrip("\n"))
    else:
        for _, _, lines in out:
            for line in lines:
                print(line)


# --- commands: each takes the parsed options ------------------------------------

def basis(opts) -> None:
    """Dimensions of the quotients Q^q_n over the admissible basis."""
    degs = _degrees(opts)
    job, arg = _basis_job, opts.by_weight
    if opts.omega is not None:
        job, arg = _block_job, _parse_ints(opts.omega, "weight")
        if len(degs) != 1:
            raise UsageError("--omega requires a single --n")
        if opts.by_weight:
            raise UsageError("--omega and --by-weight are mutually exclusive")
        if min(arg) < 0:
            raise UsageError(f"weight vector {arg} has a negative entry")
        if poly.weight_degree(arg) != degs[0]:
            raise UsageError(
                f"weight vector {arg} has degree {poly.weight_degree(arg)}, "
                f"not {degs[0]}")
    _sweep(opts, degs, job, arg)


def invariants(opts) -> None:
    """Dimensions of the group-invariant subspaces of Q^q_n."""
    _sweep(opts, _degrees(opts), _invariants_job, opts.group, group=opts.group)


def primitives(opts) -> None:
    """Dimensions of the spaces of Steenrod-annihilated dual elements."""
    _sweep(opts, _degrees(opts), _primitives_job)


def transfer_cmd(opts) -> None:
    """Transfer images of the coinvariant generators, identified in homology."""
    _sweep(opts, _degrees(opts), _transfer_job)


def verify(opts) -> None:
    """Run a named verification suite; exit 1 on any mismatch."""
    name, available = opts.suite_name, ", ".join(sorted(SUITES))
    if not name:
        raise UsageError(f"provide a suite name; available: {available}")
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; available: {available}")
    oks = []
    for label, ok in SUITES[name]():
        print(("PASS " if ok else "FAIL ") + label)
        oks.append(ok)
    nfail = sum(not ok for ok in oks)
    print(f"{name}: {len(oks) - nfail} passed, {nfail} failed")
    if nfail:
        raise SystemExit(1)


# --- verification suites --------------------------------------------------------

def _suite_paper_dims():
    for n, want in ((9, 46), (21, 94), (45, 105), (65, 150)):
        yield f"dim Q^4_{n} = {want}", hit.quotient_basis(4, n).dim == want
    ok = all(hit.quotient_basis(1, n).dim == (1 if (n + 1) & n == 0 else 0)
             for n in range(21))
    yield "q=1 dims are 1 exactly at n = 2^k - 1 (n <= 20)", ok
    ok = all(sum(hit.weight_quotient(qb, om).dim
                 for om in poly.weight_vectors(4, qb.n)) == qb.dim
             for qb in (hit.quotient_basis(4, n) for n in range(25)))
    yield "weight-block dims sum to dim Q^4_n (n <= 24)", ok


def _suite_paper_invariants():
    # one quotient at a time: each degree's invariants are computed once, and
    # the Kameko verdicts wait for the GL lines, which print first
    from . import action
    gl, kameko = action.gl_generators(4), []
    for n, want in ((9, 1), (10, 0), (17, 1), (21, 0), (22, 1), (37, 0),
                    (45, 1), (46, 0)):
        qb = hit.quotient_basis(4, n)
        if n == 9:
            sig = len(action.invariant_subspace(qb, action.sigma_generators(4)))
            yield "dim (Q^4_9)^sigma = 4", sig == 4
        inv = action.invariant_subspace(qb, gl)
        yield f"dim (Q^4_{n})^gl = {want}", len(inv) == want
        if n in (10, 22, 46):
            got = len(action.kernel_invariants(qb, inv))
            kameko.append((f"(Ker Sq^0)^gl = 0 at n = {n}", got == 0))
        del qb  # before the next degree is fetched
    yield from kameko


def _suite_paper_transfer():
    from . import transfer
    reports = {}
    for n, want in ((9, ("h_1c_0",)), (17, ("e_0",)), (21, ())):
        rep = reports[n] = transfer.transfer_image_report(4, n)
        label = f"Im Tr_4 at n={n} is {want if want else '0'}"
        yield label, tuple(sorted(rep.image)) == want and rep.unidentified == 0
    yield ("theta/psi square compatibility at n=9",
           transfer.sq0_compat_check(reports[9]))


def _suite_lambda_props():
    from . import lam
    ok = all(lam.normalize([(i, 2 * i + 1)]) == lam.ZERO for i in range(11))
    yield "lambda_i lambda_{2i+1} rewrites to 0 (i <= 10)", ok
    ok = all(not lam.differential(lam.differential([w]))
             for s in range(1, 5) for n in range(25)
             for w in lam.admissible_basis(s, n))
    yield "d(d(w)) = 0 for admissible words, length <= 4, degree <= 24", ok
    ok = all(lam.differential([w]) == lam.differential(lam.normalize([w]))
             for n in range(21) for a in range(n + 1)
             for w in ((a, b, n - a - b) for b in range(n - a + 1)))
    yield "d agrees before/after normalization (length 3, degree <= 20)", ok
    ok = all(lam.theta(lam.differential([w])) == lam.differential(lam.theta([w]))
             for s in range(1, 4) for n in range(21)
             for w in lam.admissible_basis(s, n))
    yield "theta is a chain map (length <= 3, degree <= 20)", ok
    e0 = dict(lam.catalog(4, 17))["e_0"]
    yield "the degree-17 catalog cycle e_0 has d = 0", not lam.differential(e0)


SUITES = {
    "paper-dims": _suite_paper_dims,
    "paper-invariants": _suite_paper_invariants,
    "paper-transfer": _suite_paper_transfer,
    "lambda-props": _suite_lambda_props,
}


# --- the parser -----------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hitq", allow_abbrev=False, description=(
        "GF(2) workbench for hit-problem quotients, invariants, and the transfer."))
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")
    for run in (basis, invariants, primitives, transfer_cmd, verify):
        sub = commands.add_parser(run.__name__.removesuffix("_cmd"),
                                  help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run, parser=sub)
        if run is verify:
            sub.add_argument("suite_name", nargs="?")
        else:
            sub.add_argument("--q", type=int, required=True, metavar="INTEGER",
                             help="number of polynomial variables")
            sub.add_argument("--n", type=int, metavar="INTEGER",
                             help="single degree")
            sub.add_argument("--degrees", metavar="N1,N2,...",
                             help="comma-separated degree sweep")
            sub.add_argument("--format", dest="fmt", default="text",
                             choices=("json", "csv", "text"),
                             help="[default: %(default)s]")
            sub.add_argument("--jobs", type=int, default=0, metavar="N",
                             help="parallel workers, capped at the cores (0 = all)")
            sub.add_argument("--allow-long", action="store_true",
                             help=f"permit degrees above {LONG_THRESHOLD}")
        sub.add_argument("--cache", type=_directory, metavar="DIRECTORY",
                         help="cache directory (overrides HITQ_CACHE)")
        if run is basis:
            sub.add_argument("--by-weight", action="store_true",
                             help="also report per weight-vector dimensions")
            sub.add_argument("--omega", metavar="W1,W2,...",
                             help="restrict to a single weight-vector block")
        elif run is invariants:
            sub.add_argument(
                "--group", choices=("sigma", "gl"), default="gl",
                help="symmetric group or full GL(q) [default: %(default)s]")
    return parser


def main(args=None) -> None:
    """Run one command line (default ``sys.argv[1:]``); exit 1 when a verify
    suite fails, 2 on a usage error.  --cache sets HITQ_CACHE for it only."""
    opts = _parser().parse_args(args)
    before = os.environ.get("HITQ_CACHE")
    if opts.cache:
        os.environ["HITQ_CACHE"] = opts.cache
    try:
        opts.run(opts)
    except UsageError as exc:
        opts.parser.error(str(exc))
    finally:
        if before is None:
            os.environ.pop("HITQ_CACHE", None)
        else:
            os.environ["HITQ_CACHE"] = before


__all__ = ["main", "SUITES", "LONG_THRESHOLD"]
