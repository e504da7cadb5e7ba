import csv
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from miworlds import cli, errors, numerics
from miworlds.cli import exit_code, main
from miworlds.solver import GROUND, MAXWELL, solve_configuration
from reference import csv_cell, csv_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", "--family", "maxwell", "--n", "22", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 22 and len(payload["points"]) == 22
    assert payload["residuals"]["max_recursion_residual"] <= 1e-9


@pytest.mark.parametrize("family", [("monomial", "--r", "2"), ("hermite-sq", "--k", "1")],
                         ids=["monomial-2", "hermite-sq-1"])
def test_x_squared_baselines_report_as_maxwell(capsys, family):
    # b = x^2 under another family name: every number equals Maxwell's, the
    # variance defect and the Cauchy-Schwarz gap included
    for sub in ("solve", "verify", "energy"):
        code, out, _ = run(capsys, sub, "--family", *family, "--n", "22")
        got = json.loads(out)
        want = json.loads(run(capsys, sub, "--family", "maxwell", "--n", "22")[1])
        for rep in (got, want):
            rep.pop("family", None)  # the label, not a number
        assert code == 0 and got == want and None not in got.values()


@pytest.mark.parametrize("family, r", [(("ground",), 0), (("monomial", "--r", "4"), 4)],
                         ids=["ground", "monomial-4"])
def test_one_term_baselines_report_every_certificate(capsys, family, r):
    # b = c x^r: sum x^2 = (r+1)(N-1) in solve and verify, and the
    # Cauchy-Schwarz gap and bound in energy
    n = 64
    bound = (r + 1) * (n - 1)
    reps = [json.loads(run(capsys, sub, "--family", *family, "--n", str(n), "--out", "json")[1])
            for sub in ("solve", "verify", "energy")]
    solve, verify, energy = reps
    assert solve["residuals"]["variance_defect"] <= 1e-14 * bound
    assert verify["p2_variance_defect"] == solve["residuals"]["variance_defect"]
    assert abs(energy["cauchy_schwarz_gap"]) <= 1e-14 * bound * bound
    assert energy["lower_bound"] == 2.0 * bound
    assert energy["uv_defect"] <= 1e-14 * energy["V"]


def test_solve_parity_exit_one(capsys):
    code, _, err = run(capsys, "solve", "--family", "maxwell", "--n", "21")
    assert code == 1
    assert "even" in err


@pytest.mark.parametrize("sub", ["density", "coupling"])
def test_density_and_coupling_parity_exit_one(sub, capsys):
    code, out, err = run(capsys, sub, "--family", "maxwell", "--n", "21")
    assert code == 1 and out == ""
    assert "even" in err and "numerical failure" not in err


@pytest.mark.parametrize("family", [("hermite-sq", "--k", "3"), ("monomial", "--r", "4")],
                         ids=["hermite-sq-3", "monomial-4"])
def test_parity_error_says_why_not_the_solver_label(family, capsys):
    # b(0) = 0 leaves no world for the centre; the solver's "general" label says nothing
    code, out, err = run(capsys, "solve", "--family", *family, "--n", "21")
    assert code == 1 and out == ""
    assert "even" in err and "general" not in err


def test_n_below_two_names_the_bound(capsys):
    # the world count is checked before the family's parity
    code, out, err = run(capsys, "solve", "--n", "1")
    assert (code, out, err) == (1, "", "miworlds: need at least two worlds, got 1\n")


@pytest.mark.parametrize("r", [302, 400])
def test_monomial_exponent_beyond_float_moments_is_a_usage_error(r, capsys):
    # (r-1)!! = E[Z^r] no longer fits a float from r = 302 on
    code, out, err = run(capsys, "solve", "--family", "monomial", "--r", str(r), "--n", "50")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("miworlds: ")
    assert f"exponent {r}" in err and "numerical failure" not in err


def test_failed_start_exits_two_with_one_line(capsys, monkeypatch):
    # a start's inversion of the target CDF fails: one line naming the solve
    monkeypatch.setattr(numerics, "_ROOT_MAX_ITER", 3)
    code, out, err = run(capsys, "solve", "--family", "hermite-sq", "--k", "16", "--n", "1000")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.endswith(" in 3 steps (general, N=1000)\n")


def test_usage_error_exit_one(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 1


def test_missing_param_exit_one(capsys):
    code, _, err = run(capsys, "solve", "--family", "hermite-sq", "--n", "41")
    assert code == 1 and "--k" in err


def test_verify_and_energy(capsys):
    code, out, _ = run(capsys, "verify", "--family", "maxwell", "--n", "8")
    assert code == 0
    rep = json.loads(out)
    assert rep["p3_symmetry_defect"] <= 1e-9
    code, out, _ = run(capsys, "energy", "--family", "maxwell", "--n", "8")
    assert code == 0
    energy = json.loads(out)
    assert energy["H"] == pytest.approx(42.0, abs=1e-5)
    # EnergyReport's fields, in its order, after the labels
    assert list(energy) == ["family", "N", "V", "U", "H", "cauchy_schwarz_gap", "lower_bound",
                            "uv_defect"]


def test_density_csv(capsys):
    code, out, _ = run(
        capsys, "density", "--family", "hermite-sq", "--k", "2", "--n", "41", "--out", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "kind,x0,x1,value"
    hist = [l for l in lines if l.startswith("hist,")]
    target = [l for l in lines if l.startswith("target,")]
    assert len(hist) == 40 and len(target) == 400
    # histogram masses are 1/(N-1)
    for l in hist:
        _, x0, x1, value = l.split(",")
        mass = (float(x1) - float(x0)) * float(value)
        assert mass == pytest.approx(1.0 / 40.0, abs=1e-12)


def test_coupling_json(capsys):
    code, out, _ = run(capsys, "coupling", "--family", "maxwell", "--n", "8", "--out", "json")
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == ["family", "N", "e_abs", "e_wabs", "e_inv", "e_ratio", "rhs_bound"]
    assert rep["rhs_bound"] == pytest.approx(
        6 * rep["e_abs"] + 7 * rep["e_wabs"] + 18 * rep["e_inv"] + 22 * rep["e_ratio"],
        rel=1e-12,
    )


def test_stein_check_csv(capsys):
    code, out, _ = run(capsys, "stein-check")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("h_name,c,sup_g,sup_dg,sup_chi,sup_dchi,"
                        "bound_3c,bound_4c,bound_6c,bound_7c,pass")
    assert len(lines) == 5
    assert all(l.endswith(",true") for l in lines[1:])


def test_rates_csv_with_fit(capsys):
    code, out, _ = run(capsys, "rates", "--n-list", "8", "16", "32")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,dw,dk,x1,e_abs,e_wabs,e_inv,e_ratio,rhs_bound,ratio_dw"
    assert len([l for l in lines if not l.startswith("#")]) == 4
    assert lines[-1].startswith("# fit ")


def test_fixed_point(capsys):
    code, out, _ = run(capsys, "fixed-point")
    assert code == 0
    assert json.loads(out)["defect"] <= 1e-10


def test_determinism_byte_identical(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    for p in (p1, p2):
        code = main(["solve", "--family", "maxwell", "--n", "22", "--out", "json",
                     "--out-path", str(p)])
        assert code == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_floats_roundtrip(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    code = main(["rates", "--n-list", "8", "--out-path", str(out)])
    capsys.readouterr()
    assert code == 0
    text = out.read_text()
    assert "\r" not in text
    header, row = [l for l in text.strip().split("\n") if not l.startswith("#")]
    vals = row.split(",")
    # 17-significant-digit floats round-trip exactly
    for v in vals[1:]:
        x = float(v)
        assert format(x, ".17g") == v


def test_unsupported_order_is_a_usage_error(capsys):
    code, _, err = run(capsys, "solve", "--family", "hermite-sq", "--k", "31", "--n", "4")
    assert code == 1
    assert "outside supported range" in err and "numerical failure" not in err


_EXIT_CODES = {
    errors.MiwError: 2,
    errors.MiwValidation: 1,
    errors.NonConvergence: 2,
    errors.ResidualFailure: 2,
}


def test_exit_code_table_covers_every_error(monkeypatch, capsys):
    declared = {c for c in vars(errors).values()
                if inspect.isclass(c) and issubclass(c, errors.MiwError)}
    assert declared == set(_EXIT_CODES)
    for cls, code in _EXIT_CODES.items():
        assert exit_code(cls("x")) == code

        def fail(cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "fixed_point_defect", fail)
        assert main(["fixed-point"]) == code
        err = capsys.readouterr().err
        assert err.startswith("miworlds: ") and "boom" in err
        assert ("numerical failure" in err) == (code == 2)


_SMALL_ARGS = {
    "solve": ("--family", "maxwell", "--n", "8"),
    "verify": ("--family", "ground", "--n", "5"),
    "energy": ("--family", "maxwell", "--n", "8"),
    "density": ("--family", "maxwell", "--n", "8"),
    "coupling": ("--family", "maxwell", "--n", "8"),
    "stein-check": (),
    "rates": ("--n-list", "8", "16"),
    "fixed-point": (),
}
# every subcommand in both output formats
_SMALL_ARGVS = [(sub, *args, "--out", fmt) for sub, args in _SMALL_ARGS.items()
                for fmt in ("csv", "json")]


@pytest.mark.parametrize("argv", [
    ("solve", "--n", "8"),
    ("rates", "--n-list", "8"),
    ("density", "--family", "hermite-sq", "--k", "2", "--n", "9"),
    *_SMALL_ARGVS,
])
def test_unwritable_out_path_fails_cleanly(argv, tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.txt"
    code, out, err = run(capsys, *argv, "--out-path", str(target))
    assert code == 2
    assert "cannot write" in err and out == ""
    assert not target.exists()


@pytest.mark.parametrize("argv, expected", [
    (("solve", "--family", "hermite-sq", "--k", "4", "--n", "200"), 2),  # the residual gate
    (("coupling", "--family", "ground", "--n", "41"), 1),  # after the solve
])
def test_failed_call_writes_nothing(argv, expected, tmp_path, capsys):
    # the output streams only after all numerical work: a failure leaves
    # stdout empty and creates no file
    target = tmp_path / "out.txt"
    for out_path in ((), ("--out-path", str(target))):
        code, out, err = run(capsys, *argv, *out_path)
        assert code == expected and out == "" and err.startswith("miworlds: ")
        assert not target.exists()


@pytest.mark.parametrize("argv, prefix", [
    (("solve", "--family", "hermite-sq", "--k", "6", "--n", "8"),
     "recursion defect 4.697e-09 exceeds 1e-09 (general, N=8)"),
    (("solve", "--family", "monomial", "--r", "10", "--n", "100"),
     "recursion defect 1.115e-09 exceeds 1e-09 (general, N=100)"),
    (("solve", "--family", "hermite-sq", "--k", "20", "--n", "16"),
     "Newton converged from none of 12 starts (general, N=16)"),
], ids=["hermite-sq-6-8", "monomial-10-100", "hermite-sq-20-16"])
def test_failed_solve_explains_itself_on_one_line(argv, prefix, capsys):
    # the message keeps its text, then says how far Newton got and from where
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(re.escape(f"miworlds: numerical failure: {prefix}; ")
                        + r"Newton reached max\|G\| \S+ in \d+ iterations from the "
                        r"(quantile|nodal|nodal-shift) start(, the last of \d+)?\n", err), err


@pytest.mark.parametrize("argv", [
    ("solve", "--n", "8"), ("rates", "--n-list", "8", "16"), *_SMALL_ARGVS,
    # across the JSON writer's 4096-point blocks, and CSV lines at scale
    ("solve", "--n", "8194"), ("solve", "--family", "ground", "--n", "8193"),
    ("solve", "--n", "65536", "--out", "csv"),
])
def test_out_path_bytes_equal_stdout(argv, tmp_path, capsys):
    path = tmp_path / "out.txt"
    assert main([*argv, "--out-path", str(path)]) == 0
    assert main(list(argv)) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()


@pytest.mark.parametrize("family, n", [(MAXWELL, 8), (MAXWELL, 65536), (GROUND, 8193)])
def test_solve_csv_is_the_whole_text_table(family, n, capsys):
    code, out, _ = run(capsys, "solve", "--family", family, "--n", str(n), "--out", "csv")
    cfg = solve_configuration(family, n)
    rows = [{"n": i, "x": x} for i, x in enumerate(cfg.points, start=1)]
    assert code == 0 and out == csv_text(rows, ("residuals", cfg.residuals))


@pytest.mark.parametrize("out_format", ["json", "csv"])
def test_large_solve_output_streams(out_format):
    # written to a file, both outputs peak at the solve's own 5.0 MiB traced
    # (building each as one string peaked at 8.6 and 26.9 MiB); the bound
    # leaves 10%.  A StringIO keeps every string written, so it is no sink here.
    with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
        assert main(["solve", "--n", "8", "--out", out_format]) == 0  # first-use set-up
        tracemalloc.start()
        try:
            assert main(["solve", "--n", "65536", "--out", out_format]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 5.5 * 2**20


def test_array_numpy_refuses_exits_two(capsys):
    # N = 2^62: numpy refuses the solve's first array by its size alone, with a
    # ValueError, before it allocates; that exits 2, as running out of memory does
    code, out, err = run(capsys, "solve", "--n", "4611686018427387904")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("miworlds: array is too big")
    assert "Traceback" not in err and "numerical failure" not in err


def test_out_of_memory_exits_two():
    # numpy refuses the 36 TiB array of a 1e13-world solve at once; the cap
    # on the address space keeps that so under any overcommit policy
    script = """
import contextlib, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 33, 1 << 33))
import miworlds.cli as cli
with contextlib.redirect_stderr(sys.stdout):
    code = cli.main(["solve", "--n", "10000000000000"])
print(code)
"""
    err, code = _fresh_python(script).splitlines()
    assert code == "2" and exit_code(MemoryError()) == 2
    assert err.startswith("miworlds: Unable to allocate") and "numerical failure" not in err


def test_coupling_odd_n_is_a_usage_error(capsys):
    code, out, err = run(capsys, "coupling", "--family", "ground", "--n", "41")
    assert code == 1 and out == ""
    assert "atom at zero" in err and "numerical failure" not in err


_DEFAULT_OUT = {"solve": "json", "verify": "json", "energy": "json", "density": "csv",
                "coupling": "json", "stein-check": "csv", "rates": "csv", "fixed-point": "json"}


def _csv(out):
    """(rows without comment lines, {label: payload} of the '# label {json}' lines)."""
    lines = out.splitlines()
    comments = dict(l[2:].split(" ", 1) for l in lines if l.startswith("# "))
    rows = list(csv.reader(l for l in lines if not l.startswith("#")))
    return rows, {k: json.loads(v) for k, v in comments.items()}


def _both(capsys, sub):
    outs = {}
    for fmt in ("csv", "json"):
        code, outs[fmt], _ = run(capsys, sub, *_SMALL_ARGS[sub], "--out", fmt)
        assert code == 0
    return _csv(outs["csv"]), json.loads(outs["json"])


@pytest.mark.parametrize("sub", sorted(_SMALL_ARGS))
def test_default_out_is_the_subcommands_own_format(sub, capsys):
    _, implicit, _ = run(capsys, sub, *_SMALL_ARGS[sub])
    _, explicit, _ = run(capsys, sub, *_SMALL_ARGS[sub], "--out", _DEFAULT_OUT[sub])
    assert implicit == explicit


@pytest.mark.parametrize("sub", ["verify", "energy", "coupling", "fixed-point"])
def test_record_subcommands_write_csv_and_json(sub, capsys):
    (rows, comments), record = _both(capsys, sub)
    assert not comments
    header, values = rows
    assert header == list(record)
    assert values == [csv_cell(v) for v in record.values()]


def test_solve_writes_csv_and_json(capsys):
    (rows, comments), cfg = _both(capsys, "solve")
    assert rows[0] == ["n", "x"]
    assert [int(n) for n, _ in rows[1:]] == list(range(1, 9))
    assert [float(x) for _, x in rows[1:]] == cfg["points"]
    assert {k: float(v) for k, v in comments["residuals"].items()} == cfg["residuals"]


def test_density_writes_csv_and_json(capsys):
    (rows, _), table = _both(capsys, "density")
    assert rows[0] == table[0] == ["kind", "x0", "x1", "value"]
    assert len(rows) == len(table) == 1 + 7 + 400
    assert rows[1:] == [[csv_cell(v) for v in row] for row in table[1:]]


def test_stein_check_writes_csv_and_json(capsys):
    (rows, _), records = _both(capsys, "stein-check")
    assert len(records) == len(rows) - 1 == 4
    assert all(list(rec) == rows[0] for rec in records)
    assert rows[1:] == [[csv_cell(v) for v in rec.values()] for rec in records]
    assert all(rec["pass"] is True for rec in records)


def test_rates_writes_csv_and_json(capsys):
    (rows, comments), payload = _both(capsys, "rates")
    assert set(payload) == {"rows", "fit"}
    assert [rec["N"] for rec in payload["rows"]] == [8, 16]
    assert all(list(rec) == rows[0] for rec in payload["rows"])
    assert rows[1:] == [[csv_cell(v) for v in rec.values()] for rec in payload["rows"]]
    assert {k: float(v) for k, v in comments["fit"].items()} == payload["fit"]


def _fresh_python(code):
    """Standard output of ``code`` run by a new interpreter on this package."""
    import miworlds

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(miworlds.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats adds about a third of a second to every CLI start-up
    code = "import sys, miworlds.cli; print('scipy.stats' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_cli_import_builds_no_stein_layout():
    # the sup-grid layouts and the fixed suite are built on first use, once:
    # the import itself is timed as start-up
    code = """
import contextlib, io
import miworlds.cli as cli
from miworlds import stein
sizes = lambda: (stein._sup_layouts.cache_info().currsize,
                 stein.fixed_suite.cache_info().currsize)
print(sizes())
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["stein-check"]) for _ in range(2)]
print(codes, sizes())
"""
    assert _fresh_python(code).splitlines() == ["(0, 0)", "[0, 0] (1, 1)"]


QUADPACK_FREE = [
    ["solve", "--n", "64"], ["solve", "--family", "ground", "--n", "64"],
    ["solve", "--family", "hermite-sq", "--k", "2", "--n", "81"],
    ["solve", "--family", "monomial", "--r", "4", "--n", "100"],
    ["verify", "--n", "64"], ["energy", "--n", "64"],
    ["coupling", "--family", "hermite-sq", "--k", "2", "--n", "82"],
    ["density", "--family", "hermite-sq", "--k", "2", "--n", "81"], ["stein-check"],
    ["fixed-point"], ["rates", "--n-list", "8", "16"],
]


def test_no_subcommand_loads_quadpack_or_brentq():
    # scipy.integrate and scipy.optimize (which bring sparse and spatial)
    # add about 20 MiB and 0.4 s to a cold start; numerics integrates with
    # its own Gauss-Kronrod rule, rates' d_W self-check included, and only
    # imports brentq when it inverts a scalar function
    code = f"""
import contextlib, io, sys
import miworlds.cli as cli
heavy = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.spatial")
print([m for m in heavy if m in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {QUADPACK_FREE!r}]
print(codes, [m for m in heavy if m in sys.modules])
"""
    lines = _fresh_python(code).splitlines()
    assert lines == ["[]", f"{[0] * len(QUADPACK_FREE)} []"]


def test_one_parser_answers_as_a_fresh_one(monkeypatch, capsys):
    # main reuses one parser per process: after usage errors, each call must
    # print and return what a freshly built parser gives
    monkeypatch.setattr(cli, "fixed_point_defect", lambda: 0.125)
    argvs = (["solve", "--n", "x"], ["solve", "--family", "maxwell", "--n", "22"],
             ["bogus"], ["stein-check", "--out", "json"], ["fixed-point"])
    reused = [run(capsys, *argv) for argv in argvs]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(capsys, *argv) for argv in argvs]
    assert [r[0] for r in reused] == [1, 0, 1, 0, 0]
    assert reused == fresh
    assert json.loads(reused[-1][1]) == {"k": 1, "defect": 0.125}


_SOLVING = ["solve", "verify", "energy", "density", "coupling"]
_FOREIGN_OPTIONS = [("ground", "--k", "2"), ("maxwell", "--k", "3"), ("ground", "--r", "2"),
                    ("maxwell", "--r", "4"), ("hermite-sq", "--r", "2")]


@pytest.mark.parametrize("sub", _SOLVING)
@pytest.mark.parametrize("family, opt, value", _FOREIGN_OPTIONS,
                         ids=[f"{f}{o}" for f, o, _ in _FOREIGN_OPTIONS])
def test_option_of_another_family_is_a_usage_error(sub, family, opt, value, capsys):
    # --k is read by hermite-sq alone and --r by monomial alone; elsewhere
    # either is refused rather than dropped
    extra = ("--k", "2") if family == "hermite-sq" else ()
    code, out, err = run(capsys, sub, "--family", family, *extra, opt, value, "--n", "8")
    assert code == 1 and out == ""
    assert err == f"miworlds: {opt} does not apply to --family {family}\n"


def test_default_family_refuses_k(capsys):
    code, out, err = run(capsys, "solve", "--k", "3", "--n", "40")
    assert (code, out) == (1, "") and "--k" in err and "numerical failure" not in err


@pytest.mark.parametrize("argv, option", [(("verify", "--family", "ground"), "--n"),
                                          (("rates",), "--n-list")])
def test_required_options_are_named(argv, option, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.endswith(f"error: the following arguments are required: {option}\n")


def test_odd_monomial_exponent_is_a_usage_error(capsys):
    code, out, err = run(capsys, "solve", "--family", "monomial", "--r", "3", "--n", "10")
    assert code == 1 and out == ""
    assert "even nonnegative" in err and "numerical failure" not in err


def test_density_target_column_is_the_target_law(capsys):
    # b phi / m, with m = E b(Z) not exactly 1 for hermite-sq k = 4
    from miworlds.targets import hermite_square_baseline

    code, out, _ = run(capsys, "density", "--family", "hermite-sq", "--k", "4", "--n", "40")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l.startswith("target,")]
    xs = np.array([float(x0) for _, x0, _, _ in rows])
    want = hermite_square_baseline(4).target_cdf_pdf(xs)[1]
    assert [float(v) for *_, v in rows] == want.tolist()


def test_digest_check_names_every_differing_label(monkeypatch, capsys):
    # tools/cli_digests.py --check: a changed line, a label only the saved run
    # has and one only the new run has each count, and are each named
    import importlib.util
    from pathlib import Path

    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends its paths
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
    spec = importlib.util.spec_from_file_location("cli_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    # a differing label names which of its exit code, stdout and stderr changed
    saved = {"a": "a\t0\tx\ty", "b": "b\t0\tx\ty", "c": "c\t0\tx\ty", "gone": "gone\t2\tx\ty"}
    run = {"a": "a\t0\tx\ty", "b": "b\t1\tx\ty", "c": "c\t0\tz\tw", "new": "new\t0\tx\ty"}
    assert digests.check(saved, run) == 4
    assert capsys.readouterr().out.splitlines() == [
        "differs: b (exit code)", "differs: c (stdout, stderr)", "extra: new", "missing: gone",
        "4 of 5 labels differ"]
    assert digests.check(saved, dict(saved)) == 0
    assert capsys.readouterr().out == "0 of 4 labels differ\n"


def test_digest_compare_reports_how_far_each_field_moved(monkeypatch, capsys):
    # tools/cli_digests.py --compare on two small outputs, JSON and CSV: the
    # largest relative change of every numeric field, list positions and rows
    # merged, a "# fit" line's quoted numbers included, text columns left out
    import importlib.util
    from pathlib import Path

    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends its paths
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
    spec = importlib.util.spec_from_file_location("cli_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    before_json = '{"family": "maxwell", "e": 2.0, "rows": [{"d": 1.0}, {"d": 4.0}], "ok": true}'
    after_json = '{"family": "maxwell", "e": 2.0, "rows": [{"d": 1.5}, {"d": 3.0}], "ok": true}'
    assert digests.largest_changes(before_json, after_json) == {"e": 0.0, "rows.d": 0.5}
    before_csv = 'family,N,dw\nmaxwell,8,0.5\nmaxwell,16,0.25\n# fit {"slope": "-1.0"}\n'
    after_csv = 'family,N,dw\nmaxwell,8,0.5\nmaxwell,16,0.2\n# fit {"slope": "-1.25"}\n'
    assert digests.largest_changes(before_csv, after_csv) == {
        "N": 0.0, "dw": pytest.approx(0.2), "fit.slope": 0.25}
    # a value that turns infinite changes without bound; a field that one side lacks, or
    # whose count differs, changed shape
    moved = digests.largest_changes('{"a": 1.0, "b": [1.0]}',
                                    '{"a": Infinity, "b": [1.0, 2.0], "c": 0}')
    assert moved == {"a": float("inf"), "b": None, "c": None}
    saved = {"same": before_json.encode(), "json": before_json.encode(), "csv": before_csv.encode()}
    run = {"same": before_json.encode(), "json": after_json.encode(), "csv": after_csv.encode()}
    assert digests.compare(saved, run) == 2
    assert capsys.readouterr().out.splitlines() == [
        "differs: json", "    e: 0", "    rows.d: 0.5",
        "differs: csv", "    N: 0", "    dw: 0.2", "    fit.slope: 0.25",
        "2 of 3 labels' stdout differ"]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the pinned digests cover --help, which argparse lays out "
                    "differently in other Python minor versions")
def test_cli_outputs_match_the_pinned_digests():
    # every call of tools/cli_digests.py outside the benchmark workloads, byte for
    # byte: exit code, stdout and stderr; the workloads' labels are the benchmark's
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, str(root / "tools" / "cli_digests.py")],
                         env={**os.environ, "COLUMNS": "80"}, capture_output=True,
                         text=True, check=True, timeout=120)
    workloads = ("maxwell-sweep/", "solve-ladder/", "excited-theory/")
    got = [line for line in run.stdout.splitlines() if not line.startswith(workloads)]
    want = (root / "tests" / "data" / "cli_digests.txt").read_text().splitlines()
    assert dict(line.split("\t", 1) for line in got) == dict(line.split("\t", 1) for line in want)
