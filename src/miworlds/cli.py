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
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .energy import certify_minimizer
from .errors import MiwError, MiwValidation
from .metrics import rate_sweep
from .solver import (
    GENERAL,
    GROUND,
    MAXWELL,
    _baseline,
    configuration_json_pieces,
    solve_configuration,
    validate_properties,
)
from .stein import fixed_suite, supnorm_suite
from .targets import hermite_square_baseline, monomial_baseline
from .zerobias import coupling_expectations, fixed_point_defect, gzb_density, histogram_density

__all__ = ["main", "exit_code"]

# --family: (solver family, the option its baseline reads, baseline builder); the
# solver's own baseline serves a family without a builder, and a builder looks its
# function up per call, so wrappers apply
_FAMILIES = {
    "ground": (GROUND, None, None),
    "maxwell": (MAXWELL, None, None),
    "hermite-sq": (GENERAL, "k", lambda k: hermite_square_baseline(k)),
    "monomial": (GENERAL, "r", lambda r: monomial_baseline(r).normalized()),
}


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _records(records: list):
    """Rows of a CSV table of flat dicts: the first one's keys, then each one's values."""
    return chain([records[0].keys()], (r.values() for r in records))


def _render(value, out_format: str, table=None) -> Iterable[str]:
    """``value`` as JSON in one piece, or ``table``, by default the keys and
    values of the flat dict ``value``, as CSV lines, None as an empty cell."""
    if out_format == "json":
        return [json.dumps(value, indent=2) + "\n"]
    table = _records([value]) if table is None else table
    return (",".join(map(_fmt, row)) + "\n" for row in table)


def _comment(label: str, values: dict) -> str:
    """A trailing CSV comment line carrying 17-digit values as JSON."""
    return f"# {label} " + json.dumps({k: _fmt(v) for k, v in values.items()}) + "\n"


def _write(pieces: Iterable[str], path: Optional[str]) -> None:
    """Write the text ``pieces`` in order to ``path``, or to stdout without one."""
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise MiwError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.writelines(pieces)


def _solve(args):
    """(baseline, solved configuration) of the --family and --n options; --k
    and --r are read by the one family that takes each, and refused by the others."""
    fam, reads, build = _FAMILIES[args.family]
    for opt in ("k", "r"):
        if opt != reads and getattr(args, opt) is not None:
            raise MiwValidation(f"--{opt} does not apply to --family {args.family}")
    if reads is not None and getattr(args, reads) is None:
        raise MiwValidation(f"{args.family} requires --{reads}")
    bl = _baseline(fam, None if reads is None else build(getattr(args, reads)))
    return bl, solve_configuration(fam, args.n, baseline=bl)


def _cmd_solve(args, bl, cfg) -> Iterable[str]:
    if args.out_format == "json":
        return chain(configuration_json_pieces(cfg), ["\n"])
    # each line is what _render writes for (n, x)
    lines = (f"{n},{x:.17g}\n" for n, x in enumerate(cfg.points.tolist(), start=1))
    return chain(["n,x\n"], lines, [_comment("residuals", cfg.residuals)])


def _cmd_verify(args, bl, cfg) -> Iterable[str]:
    return _render(validate_properties(cfg, baseline=bl), args.out_format)


def _report(args, cfg, report) -> Iterable[str]:
    """A report's fields after the family label and the world count."""
    payload = {"family": args.family, "N": cfg.n_worlds, **asdict(report)}
    return _render(payload, args.out_format)


def _cmd_energy(args, bl, cfg) -> Iterable[str]:
    return _report(args, cfg, certify_minimizer(bl, cfg.points))


def _cmd_density(args, bl, cfg) -> Iterable[str]:
    hist = histogram_density(cfg.points)
    # one row per gap, from the top gap down: left end, right end, coefficient
    gaps = zip(*(v[::-1].tolist() for v in (hist.x[:-1], hist.x[1:], hist.c)))
    rows = [("hist", *gap) for gap in gaps]
    span = cfg.points[0] - cfg.points[-1]
    xs = np.linspace(cfg.points[-1] - 0.05 * span, cfg.points[0] + 0.05 * span, 400)
    rows += (("target", x, x, v) for x, v in zip(xs.tolist(), bl.target_cdf_pdf(xs)[1].tolist()))
    table = [("kind", "x0", "x1", "value"), *rows]
    return _render(table, args.out_format, table)


def _cmd_coupling(args, bl, cfg) -> Iterable[str]:
    return _report(args, cfg, coupling_expectations(gzb_density(bl, cfg.points)))


def _cmd_stein_check(args) -> Iterable[str]:
    records = [supnorm_suite(tf) for tf in fixed_suite()]
    return _render(records, args.out_format, _records(records))


def _cmd_rates(args) -> Iterable[str]:
    rows, fit = rate_sweep(args.n_list)
    rows = [asdict(r) for r in rows]
    pieces = _render({"rows": rows, "fit": fit}, args.out_format, _records(rows))
    if args.out_format == "csv" and fit is not None:
        pieces = chain(pieces, [_comment("fit", fit)])
    return pieces


def _cmd_fixed_point(args) -> Iterable[str]:
    return _render({"k": 1, "defect": fixed_point_defect()}, args.out_format)


# subcommand: (function, default --out, whether it solves --family at --n); main
# solves for a subcommand that does, and passes it the baseline and configuration
_SUBCOMMANDS = {
    "solve": (_cmd_solve, "json", True),
    "verify": (_cmd_verify, "json", True),
    "energy": (_cmd_energy, "json", True),
    "density": (_cmd_density, "csv", True),
    "coupling": (_cmd_coupling, "json", True),
    "stein-check": (_cmd_stein_check, "csv", False),
    "rates": (_cmd_rates, "csv", False),
    "fixed-point": (_cmd_fixed_point, "json", False),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="miworlds", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (_, out, solves) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        if solves:
            sp.add_argument("--family", choices=_FAMILIES, default="maxwell")
            sp.add_argument("--k", type=int)
            sp.add_argument("--r", type=int)
            sp.add_argument("--n", type=int, required=True)
        if name == "rates":
            sp.add_argument("--n-list", type=int, nargs="+", required=True)
        sp.add_argument("--out", dest="out_format", choices=("csv", "json"), default=out)
        sp.add_argument("--out-path", dest="out_path")
    return p


def exit_code(exc: Exception) -> int:
    """1 for validation errors, 2 for numerical failures and arrays numpy refuses."""
    return 1 if isinstance(exc, MiwValidation) else 2


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, which exits 1 here
        return 1 if exc.code == 2 else int(exc.code or 0)
    try:
        func, _, solves = _SUBCOMMANDS[args.subcommand]
        # a subcommand returns its output's pieces after all of its numerical work
        _write(func(args, *(_solve(args) if solves else ())), args.out_path)
    except (MiwError, ValueError, MemoryError) as exc:
        code = exit_code(exc)
        kind = "numerical failure: " if code == 2 and isinstance(exc, MiwError) else ""
        print(f"miworlds: {kind}{exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
