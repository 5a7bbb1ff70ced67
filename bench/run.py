"""hitq benchmark: closed-loop CLI workloads, measured end to end or per layer.

    python3 bench/run.py --workload cold-basis --seed 1 --seconds 30 --trace 0

One client runs a workload's command list back to back, each command a fresh
``hitq`` process with ``--jobs 1`` (closed loop, one client).  Passes follow
each other until ``--seconds`` have passed; the last one runs to its end.  The
seed only permutes the command order within each pass; every output is
deterministic and is checked against ``expected.json``.

``--trace 0`` prints the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` runs every pass twice, plain and under ``traced.py``, checks the
two stdouts are byte-identical, and prints the per-layer metrics.  The last
stdout line is the JSON result.  Each run uses its own cache directories under
``.bench_tmp/`` in the checkout and deletes them; ``~/.cache/hitq`` is never
used.  See README.md for the workloads and the layer -> metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import traced

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP_ROOT = ROOT / ".bench_tmp"
HITQ = ("-c", "from hitq.cli import main; main()")
RUN_LIMIT_S = 165  # a run, set-up included, must end well within 180 s
COLD_SETUPS = 15  # set-up repeats when set-up is only an empty cache
STARTUP_PROBES = 5
MIB = 1 << 20


@dataclass(frozen=True)
class Workload:
    prefill: tuple  # q = 4 degrees built in set-up; () means a cold cache per pass
    commands: tuple


WORKLOADS = {
    # the hit engine end to end: universe, seeding, Sq^{2^i} stream,
    # elimination and the cache write, plus q = 5 row memory
    "cold-basis": Workload((), (
        "basis --q 4 --degrees 21,33,45 --by-weight",
        "basis --q 5 --degrees 20,24 --by-weight",
    )),
    # the read side of the cache: loads, weight blocks, group actions,
    # the lambda algebra and process start-up; no elimination at all
    "warm-tables": Workload((3, 9, 10, 17, 21, 22, 37, 45, 46), (
        "basis --q 4 --degrees 9,21,45 --by-weight",
        "basis --q 4 --n 9 --omega 3,3",
        "invariants --q 4 --degrees 9,17,21,37,45 --group gl",
        "invariants --q 4 --n 9 --group sigma",
        "verify paper-invariants",
        "verify paper-transfer",
        "verify lambda-props",
    )),
    # the primitive kernel, psi and class identification over a warm cache
    "transfer-primitives": Workload((9, 17, 21, 45), (
        "primitives --q 4 --degrees 24,33",
        "transfer --q 4 --degrees 9,17,21,45",
    )),
}


class SetupError(RuntimeError):
    pass


# --- child processes -----------------------------------------------------------

@dataclass
class Proc:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    rss_mib: float


def spawn(argv: list, cache: Path, timeout: float, scratch: Path) -> Proc:
    """Run one child to completion; its own rusage comes from os.wait4."""
    env = dict(os.environ, HITQ_CACHE=str(cache), PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    with tempfile.TemporaryFile(dir=scratch) as out, \
            tempfile.TemporaryFile(dir=scratch) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, out.read(), err.read(), wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


PROBE = [sys.executable, *HITQ, "--help"]  # start-up only


def hitq_argv(args: list, cache: Path, spans: Path | None = None) -> list:
    jobs = [] if args[0] == "verify" else ["--jobs", "1"]
    args = [*args, *jobs, "--cache", str(cache)]
    if spans is None:
        return [sys.executable, *HITQ, *args]
    return [sys.executable, str(BENCH / "traced.py"), str(spans), *args]


# --- correctness -----------------------------------------------------------------

def _load_expected() -> dict:
    raw = json.loads((BENCH / "expected.json").read_text())
    return {
        "dim": {(e["q"], e["n"]): e["dim"] for e in raw["basis_dim"]},
        "weight": {(e["q"], e["n"], tuple(e["omega"])): e["dim"]
                   for e in raw["weight_dim"]},
        "invariants": {(e["q"], e["n"], e["group"]): e["dim"]
                       for e in raw["invariants"]},
        "verify": {e["suite"]: e["passed"] for e in raw["verify"]},
        "transfer": {(e["q"], e["n"]): tuple(e["image"])
                     for e in raw["transfer"]},
    }


EXPECTED = _load_expected()

DIM = re.compile(r"Q\^(\d+)_(\d+): dim = (\d+)$")
WEIGHT_ROW = re.compile(r"  omega=\([\d,]*\): dim = (\d+)$")
OMEGA = re.compile(r"Q\^(\d+)_(\d+) \| omega=\(([\d,]*)\): dim = (\d+)$")
INVARIANT = re.compile(r"\(Q\^(\d+)_(\d+)\)\^(\w+): dim = (\d+)$")
PRIMITIVE = re.compile(r"primitives\(q=(\d+), n=(\d+)\): dim = (\d+)$")
TRANSFER = re.compile(r"n=(\d+): Im Tr_(\d+) = (0 \(.*\)|⟨(.*)⟩ \(\d+ generator\(s\)\))$")
VERIFY = re.compile(r"([\w-]+): (\d+) passed, (\d+) failed$")


def _option(args: list, name: str) -> str | None:
    return args[args.index(name) + 1] if name in args else None


def _degrees(args: list) -> list:
    if "--n" in args:
        return [int(_option(args, "--n"))]
    return [int(d) for d in _option(args, "--degrees").split(",")]


def check(args: list, proc: Proc) -> str | None:
    """None when the command exited 0 and printed the expected values."""
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {proc.returncode}: {' '.join(tail)}"
    lines = proc.stdout.decode().splitlines()
    command = args[0]
    if command == "verify":
        want = (args[1], EXPECTED["verify"][args[1]], 0)
        m = VERIFY.match(lines[-1]) if lines else None
        got = (m[1], int(m[2]), int(m[3])) if m else None
        if any(line.startswith("FAIL") for line in lines):
            got = "a FAIL line"
        return None if got == want else f"got {got}, want {want}"
    q, degrees = int(_option(args, "--q")), _degrees(args)
    if command == "basis" and "--omega" in args:
        omega = tuple(int(w) for w in _option(args, "--omega").split(","))
        want = {(q, degrees[0], omega): EXPECTED["weight"][(q, degrees[0], omega)]}
        got = {(int(m[1]), int(m[2]), tuple(int(w) for w in m[3].split(","))):
               int(m[4]) for m in map(OMEGA.match, lines) if m}
    elif command == "basis":
        want = {(q, n): EXPECTED["dim"][(q, n)] for n in degrees}
        got, key = {}, None
        for line in lines:
            if m := DIM.match(line):
                key = (int(m[1]), int(m[2]))
                got[key] = int(m[3])
            elif (m := WEIGHT_ROW.match(line)) and key:
                got[key + ("table",)] = got.get(key + ("table",), 0) + int(m[1])
        if "--by-weight" in args:
            # every weight table must sum to its dimension
            want.update({(q, n, "table"): want[(q, n)] for n in degrees})
    elif command == "invariants":
        group = _option(args, "--group")
        want = {(q, n, group): EXPECTED["invariants"][(q, n, group)]
                for n in degrees}
        got = {(int(m[1]), int(m[2]), m[3]): int(m[4])
               for m in map(INVARIANT.match, lines) if m}
    elif command == "primitives":
        # primitives are dual to the quotient: dim equals dim Q^q_n
        want = {(q, n): EXPECTED["dim"][(q, n)] for n in degrees}
        got = {(int(m[1]), int(m[2])): int(m[3])
               for m in map(PRIMITIVE.match, lines) if m}
    elif command == "transfer":
        want = {(q, n): EXPECTED["transfer"][(q, n)] for n in degrees}
        got = {(int(m[2]), int(m[1])): tuple(m[4].split(", ")) if m[4] else ()
               for m in map(TRANSFER.match, lines) if m}
    else:
        raise ValueError(f"no check for command {command!r}")
    return None if got == want else f"got {got}, want {want}"


# --- passes ------------------------------------------------------------------------

@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mib: float = 0.0
    cache_mib: float = 0.0
    outputs: list = field(default_factory=list)  # per command: stdout bytes
    failures: list = field(default_factory=list)  # (command, problem)
    spans: dict = field(default_factory=dict)  # span -> summed stats


def cache_mib(cache: Path) -> float:
    return sum(e.stat().st_size for e in os.scandir(cache) if e.is_file()) / MIB


def run_pass(commands: list, cache: Path, scratch: Path, limit: float,
             traced_run: bool = False) -> Pass:
    p = Pass()
    spans = scratch / "spans.json"
    t0 = time.perf_counter()
    for command in commands:
        args = command.split()
        argv = hitq_argv(args, cache, spans if traced_run else None)
        proc = spawn(argv, cache, limit - time.perf_counter(), scratch)
        p.cpu += proc.cpu
        p.rss_mib = max(p.rss_mib, proc.rss_mib)
        p.outputs.append(proc.stdout)
        problem = check(args, proc)
        if problem:
            p.failures.append((command, problem))
        if traced_run and spans.exists():
            for name, stats in json.loads(spans.read_text()).items():
                total = p.spans.setdefault(name, dict.fromkeys(stats, 0))
                for key, value in stats.items():
                    total[key] += value
            spans.unlink()
    p.wall = time.perf_counter() - t0
    p.cache_mib = cache_mib(cache)
    return p


def set_up(workload: Workload, scratch: Path, limit: float):
    """Fresh cache directory, a start-up probe, and the prefill; timed."""
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
    probe = spawn(PROBE, cache, limit - time.perf_counter(), scratch)
    if probe.returncode != 0:
        raise SetupError("hitq does not start: "
                         + probe.stderr.decode(errors="replace").strip())
    if workload.prefill:
        degrees = ",".join(map(str, workload.prefill))
        args = ["basis", "--q", "4", "--degrees", degrees]
        fill = spawn(hitq_argv(args, cache), cache, limit - time.perf_counter(),
                     scratch)
        if fill.returncode != 0:
            raise SetupError("cache prefill failed: "
                             + fill.stderr.decode(errors="replace").strip())
    return cache


# --- metrics ------------------------------------------------------------------------

def per_layer(passes: list, plain: list, startup: list) -> dict:
    """Every per-layer metric the trace can give, medians over traced passes."""
    out: dict = {}
    for name in traced.span_names():
        # counts repeat exactly from pass to pass; median_low keeps them whole
        for key, median in (("calls", statistics.median_low),
                            ("s", statistics.median),
                            ("self_s", statistics.median)):
            out[f"{name}.{key}"] = median(
                p.spans.get(name, {}).get(key, 0) for p in passes)
    inserts = passes[0].spans.get("linalg.EchelonBasis.insert", {})
    out["linalg.EchelonBasis.insert.useful_ratio"] = (
        inserts["useful"] / inserts["calls"] if inserts.get("calls") else 0.0)
    built, asked = out["hit.hit_subspace.calls"], out["hit.quotient_basis.calls"]
    out["hit.cache_hit_ratio"] = 1 - built / asked if asked else 0.0
    out["cli.startup_s"] = statistics.median(startup)
    out["trace.overhead_frac"] = (statistics.median(p.wall for p in passes)
                                  / statistics.median(p.wall for p in plain) - 1)
    return out


def end_to_end(passes: list, setups: list) -> dict:
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p.rss_mib for p in passes),
        "cache_mb": statistics.median(p.cache_mib for p in passes),
    }


def environment(seed: int) -> str:
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / MIB
    return (f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
            f"ram {ram:.0f} MiB, commit {commit}, seed {seed}")


# --- entry point ---------------------------------------------------------------------

def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            scratch: Path, limit: float) -> tuple:
    """Set up, then run passes; returns (metrics, attempted, failures)."""
    rng = random.Random(seed)
    setups, startup = [], []
    for _ in range(1 if workload.prefill else COLD_SETUPS):
        t0 = time.perf_counter()
        cache = set_up(workload, scratch, limit)
        setups.append(time.perf_counter() - t0)
    if trace:
        for _ in range(STARTUP_PROBES):
            startup.append(
                spawn(PROBE, cache, limit - time.perf_counter(), scratch).wall)

    def one_pass(commands: list, traced_run: bool) -> Pass:
        if workload.prefill:
            return run_pass(commands, cache, scratch, limit, traced_run)
        fresh = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
        try:
            return run_pass(commands, fresh, scratch, limit, traced_run)
        finally:
            shutil.rmtree(fresh)

    plain, traced_passes, failures, attempted = [], [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        commands = list(workload.commands)
        rng.shuffle(commands)
        p = one_pass(commands, traced_run=False)
        plain.append(p)
        attempted += len(commands)
        failures += p.failures
        if trace:
            t = one_pass(commands, traced_run=True)
            traced_passes.append(t)
            attempted += len(commands)
            failures += t.failures
            for command, a, b in zip(commands, p.outputs, t.outputs):
                if a != b:
                    failures.append((command, "traced stdout differs"))
        now = time.perf_counter()
        if now >= deadline or now + (now - t0) > limit:
            break
    if trace:
        metrics = per_layer(traced_passes, plain, startup)
    else:
        metrics = end_to_end(plain, setups)
    metrics["fail_frac"] = len(failures) / attempted
    metrics["passes"] = len(plain)
    return metrics, attempted, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if opts.trace else "end_to_end"]
    limit = time.perf_counter() + RUN_LIMIT_S

    TMP_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        metrics, attempted, failures = measure(
            WORKLOADS[opts.workload], opts.seed, opts.seconds, bool(opts.trace),
            scratch, limit)
    except SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it

    for command, problem in failures:
        print(f"bench: FAILED {command}: {problem}", file=sys.stderr)
    print(f"# {opts.workload}: {environment(opts.seed)}, "
          f"passes {metrics['passes']}, trace {opts.trace}")
    print(f"#   fail_frac = {metrics['fail_frac']} "
          f"({len(failures)} of {attempted} commands)")
    result = {}
    for m in listed:
        if m["name"] not in metrics:
            raise KeyError(f"BENCHMARK.json names {m['name']!r}, "
                           "which this benchmark does not measure")
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"#   {m['name']} = {metrics[m['name']]} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
