"""Command-line surface for solving, certifying and exporting.

Every acceptance check is reachable through one subcommand; outputs are
deterministic (byte-identical across runs for a fixed invocation) with
17-significant-digit floats so CSV values round-trip exactly.

Exit codes: 0 success, 1 validation/usage error, 2 numerical or memory failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .energy import certify_minimizer
from .errors import MiwError, MiwValidation
from .metrics import rate_rows_csv, rate_sweep
from .solver import (
    GENERAL,
    GROUND,
    MAXWELL,
    configuration_to_json,
    solve_configuration,
    validate_properties,
)
from .stein import fixed_suite, suite_csv_rows, supnorm_suite
from .targets import (
    ground_baseline,
    hermite_square_baseline,
    maxwell_square_baseline,
    monomial_baseline,
    phi,
)
from .zerobias import coupling_expectations, fixed_point_defect, gzb_density, histogram_density

__all__ = ["main", "exit_code"]

_FAMILIES = ("ground", "maxwell", "hermite-sq", "monomial")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _render(rows, out_format: str) -> str:
    """CSV of rows (header tuple first; a flat dict gives its keys and one
    row of values, None as an empty cell) or JSON of any object."""
    if out_format == "csv":
        if isinstance(rows, dict):
            rows = [tuple(rows), tuple(rows.values())]
        return "\n".join(",".join(_fmt(v) for v in row) for row in rows) + "\n"
    if out_format == "json":
        return json.dumps(rows, indent=2, default=_fmt) + "\n"
    raise ValueError(f"unknown output format {out_format!r}")


def _comment(label: str, values: dict) -> str:
    """A trailing CSV comment line carrying 17-digit values as JSON."""
    return f"# {label} " + json.dumps({k: format(v, ".17g") for k, v in values.items()}) + "\n"


def _write(text: str, path: Optional[str]) -> None:
    """Write ``text`` to ``path``, or to stdout without one."""
    if path:
        try:
            with open(path, "wb") as fh:
                fh.write(text.encode())
        except OSError as exc:
            raise MiwError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _resolve_family(args):
    """(solver family, baseline) of the --family options."""
    fam = args.family
    if fam == "ground":
        return GROUND, ground_baseline()
    if fam == "maxwell":
        return MAXWELL, maxwell_square_baseline()
    if fam == "hermite-sq":
        if args.k is None:
            raise MiwValidation("hermite-sq requires --k")
        return GENERAL, hermite_square_baseline(args.k)
    if fam == "monomial":
        if args.r is None or args.r < 0 or args.r % 2 == 1:
            raise MiwValidation("monomial requires an even nonnegative --r")
        return GENERAL, monomial_baseline(args.r).normalized()
    raise MiwValidation(f"unknown family {fam!r}")


def _require_n(args) -> int:
    if args.n is None:
        raise MiwValidation("this subcommand requires --n")
    if args.n < 2:
        raise MiwValidation("--n must be at least 2")
    return args.n


def _solve(args):
    """(baseline, solved configuration) of the --family and --n options."""
    fam, bl = _resolve_family(args)
    return bl, solve_configuration(fam, _require_n(args), baseline=bl)


def _cmd_solve(args) -> str:
    cfg = _solve(args)[1]
    if args.out_format == "json":
        return configuration_to_json(cfg) + "\n"
    rows = [("n", "x")] + [(i, x) for i, x in enumerate(cfg.points, start=1)]
    return _render(rows, "csv") + _comment("residuals", cfg.residuals)


def _cmd_verify(args) -> str:
    bl, cfg = _solve(args)
    return _render(validate_properties(cfg, baseline=bl), args.out_format)


def _report(args, cfg, report) -> str:
    """A report's fields after the family label and the world count."""
    payload = {"family": args.family, "N": cfg.n_worlds, **asdict(report)}
    return _render(payload, args.out_format)


def _cmd_energy(args) -> str:
    bl, cfg = _solve(args)
    return _report(args, cfg, certify_minimizer(bl, cfg.points))


def _cmd_density(args) -> str:
    bl, cfg = _solve(args)
    hist = histogram_density(cfg.points)
    # one row per gap, from the top gap down: left end, right end, coefficient
    gaps = zip(*(v[::-1].tolist() for v in (hist.x[:-1], hist.x[1:], hist.c)))
    rows = [("kind", "x0", "x1", "value")] + [("hist", *gap) for gap in gaps]
    span = cfg.points[0] - cfg.points[-1]
    lo = cfg.points[-1] - 0.05 * span
    hi = cfg.points[0] + 0.05 * span
    xs = np.linspace(lo, hi, 400)
    rows += (("target", x, x, v) for x, v in zip(xs.tolist(), (bl.b(xs) * phi(xs)).tolist()))
    return _render(rows, args.out_format)


def _cmd_coupling(args) -> str:
    bl, cfg = _solve(args)
    return _report(args, cfg, coupling_expectations(gzb_density(bl, cfg.points)))


def _cmd_stein_check(args) -> str:
    records = [supnorm_suite(tf) for tf in fixed_suite()]
    if args.out_format == "json":
        return _render(records, "json")
    return _render(suite_csv_rows(records), "csv")


def _cmd_rates(args) -> str:
    if not args.n_list:
        raise MiwValidation("rates requires --n-list")
    rows, fit = rate_sweep(args.n_list)
    if args.out_format == "json":
        return _render({"rows": [asdict(r) for r in rows], "fit": fit}, "json")
    text = _render(rate_rows_csv(rows), "csv")
    return text + (_comment("fit", fit) if fit is not None else "")


def _cmd_fixed_point(args) -> str:
    return _render({"k": 1, "defect": fixed_point_defect()}, args.out_format)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="miworlds", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, family=True, n=True, out="json"):
        if family:
            sp.add_argument("--family", choices=_FAMILIES, default="maxwell")
            sp.add_argument("--k", type=int, default=None)
            sp.add_argument("--r", type=int, default=None)
        if n:
            sp.add_argument("--n", type=int, default=None)
        sp.add_argument(
            "--out", dest="out_format", choices=("csv", "json"), default=out
        )
        sp.add_argument("--out-path", dest="out_path", default=None)

    # --out defaults to each subcommand's own format
    for name, fn, out in (
        ("solve", _cmd_solve, "json"),
        ("verify", _cmd_verify, "json"),
        ("energy", _cmd_energy, "json"),
        ("density", _cmd_density, "csv"),
        ("coupling", _cmd_coupling, "json"),
    ):
        sp = sub.add_parser(name)
        common(sp, out=out)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("stein-check")
    common(sp, family=False, n=False, out="csv")
    sp.set_defaults(func=_cmd_stein_check)

    sp = sub.add_parser("rates")
    sp.add_argument("--n-list", type=int, nargs="+", default=None)
    common(sp, family=False, n=False, out="csv")
    sp.set_defaults(func=_cmd_rates)

    sp = sub.add_parser("fixed-point")
    common(sp, family=False, n=False)
    sp.set_defaults(func=_cmd_fixed_point)
    return p


def exit_code(exc: Exception) -> int:
    """1 for usage and validation errors, 2 for numerical and memory failures."""
    return 1 if isinstance(exc, (MiwValidation, ValueError)) else 2


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _write(args.func(args), args.out_path)
    except (MiwError, ValueError, MemoryError) as exc:
        code = exit_code(exc)
        kind = "numerical failure: " if code == 2 and isinstance(exc, MiwError) else ""
        print(f"miworlds: {kind}{exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
