"""End-to-end tests of the command-line interface, in process and as processes."""

from __future__ import annotations

import ast
import collections
import contextlib
import csv
import gc
import importlib
import importlib.util
import io
import json
import os
import pkgutil
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import hitq
from hitq import cli

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    """cli.main in process: exit code, and stdout and stderr as one text."""
    out, code = io.StringIO(), 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return SimpleNamespace(exit_code=code, output=out.getvalue())


def _hitq(*argv, script=("-c", "from hitq.cli import main; main()")):
    """hitq as a fresh process with the checkout's src on its path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONIOENCODING="utf-8")
    return subprocess.run([sys.executable, *script, *argv], env=env,
                          capture_output=True, text=True, cwd=ROOT)


def test_basis_text_examples():
    r = _run("basis", "--q", "4", "--n", "9")
    assert r.exit_code == 0 and r.output.strip() == "Q^4_9: dim = 46"
    r = _run("basis", "--q", "1", "--n", "4")
    assert r.exit_code == 0 and r.output.strip() == "Q^1_4: dim = 0"


def test_invariants_text_example():
    r = _run("invariants", "--q", "4", "--n", "10", "--group", "gl")
    assert r.exit_code == 0 and r.output.strip() == "(Q^4_10)^gl: dim = 0"


def test_transfer_text_example():
    r = _run("transfer", "--q", "4", "--n", "9")
    assert r.exit_code == 0
    assert "Im Tr_4 = ⟨h_1c_0⟩" in r.output
    r = _run("transfer", "--q", "4", "--n", "21")
    assert r.exit_code == 0 and "Im Tr_4 = 0" in r.output


def test_one_variable_commands():
    # GL_1(F_2) is trivial: the gl group has no generators
    r = _run("invariants", "--q", "1", "--n", "3", "--group", "gl")
    assert r.exit_code == 0 and r.output.strip() == "(Q^1_3)^gl: dim = 1"
    r = _run("transfer", "--q", "1", "--n", "1")
    assert r.exit_code == 0 and "Im Tr_1 = ⟨h_1⟩" in r.output


def test_basis_json_structure():
    r = _run("basis", "--q", "4", "--degrees", "9,10", "--format", "json")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload["command"] == "basis" and payload["q"] == 4
    assert [e["dim"] for e in payload["results"]] == [46, 70]


def test_basis_csv_by_weight():
    r = _run("basis", "--q", "4", "--n", "9", "--by-weight", "--format", "csv")
    assert r.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(r.output)))
    assert set(rows[0]) == {"q", "n", "omega", "dim", "kind"}
    total = [row for row in rows if row["kind"] == "total"]
    weights = [row for row in rows if row["kind"] == "weight"]
    assert len(total) == 1 and total[0]["dim"] == "46"
    assert sum(int(row["dim"]) for row in weights) == 46
    assert {row["omega"] for row in weights} >= {"(3,1,1)", "(3,3)"}


def test_basis_single_weight_block():
    r = _run("basis", "--q", "4", "--n", "9", "--omega", "3,3")
    assert r.exit_code == 0 and "dim = 10" in r.output
    r = _run("basis", "--q", "4", "--n", "9", "--omega", "3,3,0")
    assert r.exit_code == 0 and "dim = 10" in r.output  # trailing zero
    r = _run("basis", "--q", "4", "--n", "9", "--omega", "1,1")
    assert r.exit_code == 2  # degree mismatch
    r = _run("basis", "--q", "4", "--n", "9", "--omega", "-1,1,2")
    assert r.exit_code == 2  # degree 9, a negative entry


def test_primitives_command():
    r = _run("primitives", "--q", "4", "--n", "9", "--format", "csv")
    assert r.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(r.output)))
    assert rows[0]["dim"] == "46" and rows[0]["kind"] == "primitive"


def test_primitives_command_writes_no_cache(tmp_path):
    # primitives come from a fresh hit echelon; no quotient is cached
    r = _run("primitives", "--q", "4", "--degrees", "24,33",
             "--cache", str(tmp_path), "--jobs", "1")
    assert r.exit_code == 0
    assert r.output.splitlines() == ["primitives(q=4, n=24): dim = 70",
                                     "primitives(q=4, n=33): dim = 136"]
    assert not list(tmp_path.glob("hit-q4-n24*"))
    assert not list(tmp_path.glob("hit-q4-n33*"))


def test_usage_errors_exit_2():
    cases = [
        ("basis", "--q", "4"),  # no degree at all
        ("basis", "--q", "4", "--n", "9", "--degrees", "10"),  # both forms
        ("basis", "--q", "4", "--n", "-3"),
        ("basis", "--q", "0", "--n", "3"),
        ("basis", "--q", "4", "--degrees", "9,x"),
        ("invariants", "--q", "4"),
        # an empty list field is an error, not a field dropped
        ("basis", "--q", "4", "--n", "9", "--omega", "3,,3"),
        ("basis", "--q", "4", "--n", "9", "--omega", ",3,3"),
        ("basis", "--q", "4", "--degrees", "9,,10,"),
        # --by-weight is not silently dropped next to a single block
        ("basis", "--q", "4", "--n", "9", "--omega", "3,3", "--by-weight"),
    ]
    for args in cases:
        r = _run(*args)
        assert r.exit_code == 2, args


def test_negative_jobs_is_a_usage_error():
    # only 0 means "all cores"; a negative count used to mean it too
    r = _run("basis", "--q", "4", "--n", "9", "--jobs", "-1")
    assert r.exit_code == 2 and "--jobs must be at least 0" in r.output


def test_jobs_is_capped_at_the_cores(tmp_path, monkeypatch):
    # the degree jobs are CPU-bound, so workers past the cores only add
    # memory; a fake pool records its size and maps in process
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for jobs in ("64", "0"):
        r = _run("basis", "--q", "2", "--degrees", "1,2,3,4,5", "--jobs", jobs,
                 "--cache", str(tmp_path))
        assert r.exit_code == 0 and len(r.output.splitlines()) == 5
    assert sizes == [2, 2]


def test_jobs_0_counts_only_the_cores_of_the_affinity_set(monkeypatch):
    # under taskset -c 0 os.cpu_count() still counts the machine's cores:
    # one core allowed means one worker, so the sweep runs in process
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started on one core")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    r = _run("basis", "--q", "2", "--degrees", "1,2,3,4,5", "--jobs", "0")
    assert r.exit_code == 0 and len(r.output.splitlines()) == 5


def test_long_job_guard():
    r = _run("basis", "--q", "4", "--n", "81")
    assert r.exit_code == 2 and "--allow-long" in r.output
    # a sweep is refused before any of its jobs runs; --allow-long lifts it
    r = _run("basis", "--q", "2", "--degrees", "80,81")
    assert r.exit_code == 2 and "degree 81" in r.output and "Q^2" not in r.output
    r = _run("basis", "--q", "2", "--degrees", "80,81", "--allow-long")
    assert r.exit_code == 0 and "Q^2_81: dim = " in r.output


def test_reports_are_deterministic():
    args = ("basis", "--q", "4", "--degrees", "8,9,10", "--by-weight",
            "--format", "json")
    first = _run(*args)
    second = _run(*args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
    parallel = _run(*args, "--jobs", "3")
    assert parallel.exit_code == 0 and parallel.output == first.output
    # every sweep command reports the same in worker processes, in order
    for args in (("basis", "--degrees", "10,8,9"),
                 ("invariants", "--degrees", "9,10,17", "--group", "sigma"),
                 ("primitives", "--degrees", "9,10,8"),
                 ("transfer", "--degrees", "9,10,17")):
        args = (*args, "--q", "4", "--format", "json")
        serial = _run(*args, "--jobs", "1")
        parallel = _run(*args, "--jobs", "3")
        assert serial.exit_code == parallel.exit_code == 0, args
        assert parallel.output == serial.output, args
        results = json.loads(serial.output)["results"]
        assert [e["n"] for e in results] == [int(d) for d in args[2].split(",")]


def test_transfer_json_and_csv_shape():
    r = _run("transfer", "--q", "4", "--n", "9", "--format", "json")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload["command"] == "transfer" and payload["q"] == 4
    (entry,) = payload["results"]
    assert entry["n"] == 9 and entry["image"] == ["h_1c_0"]
    assert entry["unidentified"] == 0
    (gen,) = entry["generators"]
    assert gen["classes"] == ["h_1c_0"]
    assert gen["element"]["q"] == 4 and gen["element"]["n"] == 9
    assert gen["element"]["terms"] and gen["cycle"]["terms"]
    assert all(sum(m) == 9 for m in gen["element"]["terms"])
    assert all(len(w) == 4 for w in gen["cycle"]["terms"])
    r = _run("transfer", "--q", "4", "--n", "9", "--format", "csv")
    assert r.exit_code == 0
    (row,) = csv.DictReader(io.StringIO(r.output))
    assert row == {"q": "4", "n": "9", "omega": "", "dim": "1",
                   "kind": "transfer"}


def test_transfer_report_is_pinned():
    # the JSON report byte for byte, at the benchmark's transfer degrees and
    # at four where a generator is the sparsest candidate, not the first;
    # regenerate a file only for an intended change to the report
    for degrees in ("9,17,21,45", "18,22,33,38"):
        r = _run("transfer", "--q", "4", "--degrees", degrees, "--format", "json")
        assert r.exit_code == 0
        pinned = ROOT / "tests" / f"transfer-q4-{degrees.replace(',', '-')}.json"
        assert r.output == pinned.read_text(), degrees


def test_cache_flag_writes_to_directory(tmp_path):
    from hitq import hit

    target = tmp_path / "cachedir"
    hit.quotient_basis(3, 6)  # written to the default directory only
    r = _run("basis", "--q", "3", "--n", "6", "--cache", str(target))
    assert r.exit_code == 0
    assert list(target.glob("hit-q3-n6*"))


def test_verify_suite_passes():
    r = _run("verify", "lambda-props")
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")


def test_verify_unknown_or_missing_suite():
    assert _run("verify", "nope").exit_code == 2
    assert _run("verify").exit_code == 2


def test_verify_failure_exit_code():
    cli.SUITES["always-red"] = lambda: iter([("forced failure", False)])
    try:
        r = _run("verify", "always-red")
        assert r.exit_code == 1 and "FAIL forced failure" in r.output
    finally:
        del cli.SUITES["always-red"]


def test_cli_does_not_leak_cache_override(tmp_path):
    before = os.environ["HITQ_CACHE"]
    cli.SUITES["empty"] = lambda: iter([])
    try:
        for args in (("basis", "--q", "3", "--n", "5"), ("verify", "empty")):
            assert _run(*args, "--cache", str(tmp_path)).exit_code == 0
            assert os.environ["HITQ_CACHE"] == before
        del os.environ["HITQ_CACHE"]  # an unset variable stays unset
        _run("basis", "--q", "3", "--n", "5", "--cache", str(tmp_path))
        assert "HITQ_CACHE" not in os.environ
    finally:
        del cli.SUITES["empty"]
        os.environ["HITQ_CACHE"] = before


def test_no_quotient_outlives_its_job(tmp_path, monkeypatch):
    # no quotient is kept in memory, so a sweep drops each degree's basis
    # once its job has returned
    from hitq import hit

    refs, build = [], hit.hit_subspace

    def recording(q, n):
        qb = build(q, n)
        refs.append(weakref.ref(qb))
        return qb

    monkeypatch.setattr(hit, "hit_subspace", recording)
    r = _run("basis", "--q", "4", "--degrees", "9,21", "--jobs", "1",
             "--cache", str(tmp_path))
    assert r.exit_code == 0 and len(refs) == 2
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_paper_invariants_holds_one_quotient_at_a_time(monkeypatch):
    # the suite walks its degrees once: when it fetches a quotient, none of
    # its own is alive, except the source of a Kameko map, which is alive
    # while _kameko_images fetches the map's target
    from hitq import hit

    refs, fetch, kameko_images = [], hit.quotient_basis, hit._kameko_images
    source, held = [], []

    def recording(q, n):
        gc.collect()
        alive = [key for key, ref in refs if ref() is not None]
        if alive != source:
            held.append(((q, n), alive))
        qb = fetch(q, n)
        refs.append(((q, n), weakref.ref(qb)))
        return qb

    def images(src):
        source.append((src.q, src.n))
        try:
            return kameko_images(src)
        finally:
            source.clear()

    monkeypatch.setattr(hit, "quotient_basis", recording)
    monkeypatch.setattr(hit, "_kameko_images", images)
    results = list(cli._suite_paper_invariants())
    assert len(results) == 12 and all(ok for _, ok in results)
    assert not held, held
    assert [key for key, _ in refs] == [
        (4, 9), (4, 10), (4, 3), (4, 17), (4, 21), (4, 22), (4, 9), (4, 37),
        (4, 45), (4, 46), (4, 21)]


def test_each_entry_point_asks_for_each_degree_once(monkeypatch):
    # with no memo to hide a second request, a function that works on a
    # quotient takes it or fetches it once and passes it on
    from hitq import action, hit, transfer

    asked, fetch = collections.Counter(), hit.quotient_basis

    def counting(q, n):
        asked[q, n] += 1
        return fetch(q, n)

    monkeypatch.setattr(hit, "quotient_basis", counting)
    qb22 = fetch(4, 22)
    inv22 = action.invariant_subspace(qb22, action.gl_generators(4))
    for fn, *args in ((hit.kameko_kernel, 4, 22),
                      (transfer.transfer_image_report, 4, 9),
                      (transfer.sq0_compat_check,
                       transfer.transfer_image_report(4, 9)),
                      (action.kernel_invariants, qb22, inv22),
                      (cli._basis_job, 4, 21, True),
                      (cli._block_job, 4, 9, (3, 3)),
                      (cli._invariants_job, 4, 17, "gl"),
                      (cli._invariants_job, 4, 9, "sigma"),
                      (cli._primitives_job, 4, 21, None),
                      (cli._transfer_job, 4, 17, None)):
        asked.clear()
        fn(*args)
        assert set(asked.values()) <= {1}, (fn.__name__, asked)
        if fn is action.kernel_invariants:
            assert list(asked) == [(4, 9)]  # only the Kameko target
        if fn is transfer.sq0_compat_check:
            assert not asked  # it reuses the report's generators


def test_traced_spans_and_exports_resolve():
    # bench/traced.py wraps these names by getattr; a deletion must fail here
    path = Path(__file__).resolve().parent.parent / "bench" / "traced.py"
    spec = importlib.util.spec_from_file_location("traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for module_name, attrs in traced.SPANS.items():
        for attr in attrs:
            owner = importlib.import_module(f"hitq.{module_name}")
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (module_name, attr)
    for info in pkgutil.iter_modules(hitq.__path__):
        module = importlib.import_module(f"hitq.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), (info.name, name)


def test_library_has_no_assert_statements():
    # bad input raises a real exception: python -O drops every assert
    for path in sorted(Path(hitq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], (path.name, lines)


def test_binom2_is_called_only_by_cartan_splits():
    # the Cartan rule is stated once: every other rule reads the rows of
    # poly.cartan_splits, so no other code names binom2 (nor imports it)
    uses = []
    for path in sorted(Path(hitq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        home = {id(node) for f in ast.walk(tree) if path.name == "poly.py"
                and isinstance(f, ast.FunctionDef) and f.name == "cartan_splits"
                for node in ast.walk(f)}
        for node in ast.walk(tree):
            names = [getattr(node, "id", getattr(node, "attr", None))]
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            if "binom2" in names and not isinstance(node, ast.FunctionDef):
                uses.append((path.name, node.lineno, id(node) in home))
    assert [use for use in uses if not use[2]] == [], uses
    assert any(home for _, _, home in uses), uses


COMMAND_OPTIONS = {
    "basis": ("--q", "--n", "--degrees", "--format", "--cache", "--jobs",
              "--allow-long", "--by-weight", "--omega"),
    "invariants": ("--q", "--n", "--degrees", "--format", "--cache", "--jobs",
                   "--allow-long", "--group"),
    "primitives": ("--q", "--n", "--degrees", "--format", "--cache", "--jobs",
                   "--allow-long"),
    "transfer": ("--q", "--n", "--degrees", "--format", "--cache", "--jobs",
                 "--allow-long"),
    "verify": ("--cache",),
}


def test_help_names_every_command_and_option():
    r = _run("--help")
    assert r.exit_code == 0
    assert all(name in r.output for name in COMMAND_OPTIONS)
    for name, options in COMMAND_OPTIONS.items():
        r = _run(name, "--help")
        assert r.exit_code == 0, name
        assert all(opt in r.output for opt in options), name
    assert _run().exit_code == 2  # a bare hitq names no command


def test_cache_option_refuses_a_file(tmp_path):
    path = tmp_path / "a-file"
    path.write_text("")
    r = _run("basis", "--q", "3", "--n", "5", "--cache", str(path))
    assert r.exit_code == 2 and "is a file" in r.output


def test_an_unwritable_cache_costs_the_file_not_the_result(tmp_path, monkeypatch):
    # a cache path under a regular file: the report is printed and the exit
    # code is 0; stderr names the file not written, and nothing is created
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("HITQ_CACHE", str(blocker / "cache"))
    r = _hitq("basis", "--q", "4", "--n", "9", "--jobs", "1")
    assert r.returncode == 0 and r.stdout == "Q^4_9: dim = 46\n", r.stderr
    (line,) = r.stderr.splitlines()
    assert str(blocker / "cache" / "hit-q4-n9-v4.rows") in line
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""
    # a write that fails once its temporary file exists (a full disk, say)
    # removes that file
    from hitq import hit

    def no_room(*args):
        raise OSError(28, "No space left on device")

    cache = tmp_path / "cache"
    with monkeypatch.context() as m:
        m.setattr(hit.os, "replace", no_room)
        r = _run("basis", "--q", "4", "--n", "9", "--cache", str(cache))
    assert r.exit_code == 0
    (line, report) = r.output.splitlines()
    assert report == "Q^4_9: dim = 46" and "hit-q4-n9-v4.rows" in line
    assert list(cache.iterdir()) == []


def test_basis_process_imports_only_what_it_runs(tmp_path):
    # -S: no site-packages, so only the interpreter and hitq load modules
    unwanted = ("click", "dataclasses", "inspect", "typing", "concurrent.futures",
                "hitq.lam", "hitq.dual", "hitq.transfer", "hitq.action")
    code = ("import sys\nfrom hitq.cli import main\nmain(sys.argv[1:])\n"
            f"print(sorted(set({unwanted!r}) & set(sys.modules)))")
    r = _hitq("basis", "--q", "3", "--n", "5", "--jobs", "1",
              "--cache", str(tmp_path), script=("-S", "-c", code))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["Q^3_5: dim = 3", "[]"]


def test_traced_run_matches_the_plain_run(tmp_path):
    # bench/traced.py calls cli.main(args=...) once, under its root span
    args = ("basis", "--q", "3", "--n", "5", "--jobs", "1",
            "--cache", str(tmp_path / "cache"))
    plain = _hitq(*args)
    spans = tmp_path / "spans.json"
    traced = _hitq(*args, script=(str(ROOT / "bench" / "traced.py"),
                                  str(spans)))
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert json.loads(spans.read_text())["cli.main"]["calls"] == 1
