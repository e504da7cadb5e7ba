"""Digests of the CLI's outputs, for checking that a change keeps them byte-identical.

For every operation of the benchmark workloads (``benchmarks/workloads.build``
at seeds 0 and 7) and for a fixed list of further calls, including the error
exits, prints one line:

    <label> <TAB> <exit code> <TAB> sha256(stdout) <TAB> sha256(stderr)

The calls run in this process, through ``miworlds.cli.main`` (or the
operation's own library call), on the sources of the checkout that holds this
script.  With ``--out-path``, the stdout digest covers what was printed
followed by the bytes of the file written.  A call that raises instead of
returning shows the exception's class name in place of the exit code.
Unwritable paths are shown as ``<missing>/out.txt`` in stderr, so the lines
do not depend on where the temporary directory is.  argparse wraps the help
texts to the width in ``COLUMNS`` (80 when unset and stdout is a file), so
run both commits with the same.

    python3 tools/cli_digests.py > before.txt   # at one commit
    python3 tools/cli_digests.py --check before.txt   # at the other

``--check FILE`` compares this checkout's lines with a saved run: it prints
each label whose line differs, with which of its exit code, stdout and stderr
changed, each label that the file lacks (extra) or that this run lacks
(missing), then a count, and exits 1 if there is any, 0 otherwise.

``tests/data/cli_digests.txt`` pins the lines outside the workloads.  After a
change that alters an output on purpose, regenerate it by dropping the lines
that start with a workload name:

    COLUMNS=80 python3 tools/cli_digests.py \\
        | grep -v -E '^(maxwell-sweep|solve-ladder|excited-theory)/' > tests/data/cli_digests.txt
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from miworlds import cli  # noqa: E402

SEEDS = (0, 7)

_SMALL = {
    "solve": ("--family", "maxwell", "--n", "8"),
    "verify": ("--family", "ground", "--n", "5"),
    "energy": ("--family", "maxwell", "--n", "8"),
    "density": ("--family", "maxwell", "--n", "8"),
    "coupling": ("--family", "maxwell", "--n", "8"),
    "stein-check": (),
    "rates": ("--n-list", "8", "16"),
    "fixed-point": (),
}

EXTRA = [
    *([sub, *args, "--out", fmt] for sub, args in _SMALL.items() for fmt in ("csv", "json")),
    ["energy", "--family", "ground", "--n", "64", "--out", "csv"],
    ["coupling", "--family", "ground", "--n", "64", "--out", "csv"],
    ["coupling", "--family", "hermite-sq", "--k", "3", "--n", "40"],
    ["coupling", "--family", "monomial", "--r", "4", "--n", "100"],
    # b(0) = 3/8 > 0: the reciprocal term on the cell that ends at 0
    ["coupling", "--family", "hermite-sq", "--k", "4", "--n", "40"],
    ["coupling", "--n", "65536"],
    # the certificate at sizes the workloads never reach: N = 2^14 and 2^16 in
    # one sweep, the x^4 baseline at N = 4096, and b(0) > 0 (k = 2) at N = 1000
    ["rates", "--n-list", "16384", "65536"],
    ["coupling", "--family", "monomial", "--r", "4", "--n", "4096"],
    ["coupling", "--family", "hermite-sq", "--k", "3", "--n", "400"],
    ["coupling", "--family", "hermite-sq", "--k", "2", "--n", "1000"],
    ["density", "--n", "22", "--out", "json"],
    ["rates", "--n-list", "8", "16", "32", "--out", "json"],
    # b = x^2 under other family names
    ["energy", "--family", "monomial", "--r", "2", "--n", "22"],
    ["energy", "--family", "hermite-sq", "--k", "1", "--n", "22"],
    ["verify", "--family", "hermite-sq", "--k", "1", "--n", "22"],
    ["solve", "--family", "monomial", "--r", "2", "--n", "22"],
    # certificates from the exponent of a single-term b, and U = V for any b
    ["energy", "--family", "monomial", "--r", "4", "--n", "100"],
    ["verify", "--family", "monomial", "--r", "4", "--n", "100"],
    ["energy", "--family", "hermite-sq", "--k", "2", "--n", "82"],
    ["solve", "--family", "ground", "--n", "64"],
    # the target law and its normaliser from a multi-term baseline
    ["verify", "--family", "hermite-sq", "--k", "3", "--n", "40"],
    ["density", "--family", "hermite-sq", "--k", "4", "--n", "40"],
    ["solve", "--family", "monomial", "--r", "300", "--n", "50"],
    # the smallest Newton systems: h = 1, d_W on two atoms, odd N with tail factor 1
    ["solve", "--n", "2"],
    ["rates", "--n-list", "2", "4", "--out", "json"],
    ["verify", "--family", "ground", "--n", "3"],
    # the odd-N fast path of the JSON writer, centre "0.0", at scale; sums over 2^14 worlds
    ["solve", "--family", "ground", "--n", "65535"],
    ["energy", "--family", "ground", "--n", "16384"],
    # the JSON writer's 4096-point blocks: one point past a block, and one full block
    # before the centre, also through --out-path; the CSV writer's lines at scale
    ["solve", "--n", "8194"],
    ["solve", "--family", "ground", "--n", "8193", "--out", "json"],
    ["solve", "--n", "65536", "--out", "csv"],
    # the positive points' formatter on a second single-term baseline, and on a
    # half of 2^17 points of which 10 are left to repr, inside 4096-point blocks
    ["solve", "--family", "monomial", "--r", "4", "--n", "4096"],
    ["solve", "--family", "ground", "--n", "262144"],
    # error exits
    ["solve", "--n", "1"],
    ["solve", "--family", "maxwell", "--n", "21"],
    ["solve", "--family", "hermite-sq", "--k", "3", "--n", "21"],
    ["solve", "--family", "monomial", "--r", "4", "--n", "21"],
    ["density", "--family", "maxwell", "--n", "21"],
    ["coupling", "--family", "maxwell", "--n", "21"],
    ["solve", "--family", "monomial", "--r", "302", "--n", "50"],
    # failed solves whose messages report Newton's progress: a converged
    # half-system over a failed full-sequence check, and the last of 12 starts
    ["solve", "--family", "hermite-sq", "--k", "6", "--n", "8"],
    ["solve", "--family", "hermite-sq", "--k", "20", "--n", "16"],
    ["solve", "--family", "monomial", "--r", "10", "--n", "100"],
    # Newton stops at the recursion gate's 1e-9 and so tries all 13 starts; a
    # start whose inversion of the target CDF fails names the family and N
    ["solve", "--family", "hermite-sq", "--k", "12", "--n", "16"],
    ["solve", "--family", "hermite-sq", "--k", "16", "--n", "1000"],
    ["solve", "--family", "hermite-sq", "--n", "41"],
    ["solve", "--family", "hermite-sq", "--k", "31", "--n", "4"],
    ["solve", "--family", "monomial", "--r", "3", "--n", "10"],
    ["solve", "--n", "x"],
    ["solve", "--n", "10000000000000"],
    ["rates", "--n-list", "4", "2"],
    ["rates"],
    ["coupling", "--family", "ground", "--n", "41"],
    ["bogus"],
    # help texts, and options that the chosen family does not read or lacks
    ["--help"],
    *([sub, "--help"] for sub in _SMALL),
    ["solve", "--k", "3", "--n", "40"],
    ["verify", "--family", "ground", "--r", "2", "--n", "8"],
    ["coupling", "--family", "hermite-sq", "--k", "2", "--r", "4", "--n", "8"],
    ["verify", "--family", "ground"],
    ["solve", "--family", "monomial", "--n", "8"],
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(call, out_file=None):
    """(exit code or exception class name, stdout bytes, stderr text) of ``call``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call()
        except Exception as exc:  # a traceback at one commit is a difference to show
            code = type(exc).__name__
    data = out.getvalue().encode()
    if out_file is not None and out_file.exists():
        data += out_file.read_bytes()
        out_file.unlink()
    return code, data, err.getvalue()


def _op_call(op):
    if op.argv is not None:
        return lambda: cli.main(list(op.argv))

    def call():
        sys.stdout.write(op.call())
        return 0

    return call


def lines(tmp: Path):
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            ops, _ = workloads.build(workload, seed)
            for op in ops:
                code, out, err = _run(_op_call(op))
                yield f"{workload}/{seed} {op.name}", code, out, err.encode()
    written, missing = tmp / "out.txt", tmp / "missing" / "out.txt"
    for argv in EXTRA:
        code, out, err = _run(lambda: cli.main(argv))
        yield " ".join(argv), code, out, err.encode()
        if argv[-2:-1] == ["--out"]:
            for path, shown in ((written, "<file>"), (missing, "<missing>/out.txt")):
                code, out, err = _run(lambda: cli.main([*argv, "--out-path", str(path)]),
                                      written)
                err = err.replace(str(missing), "<missing>/out.txt")
                yield f"{' '.join(argv)} --out-path {shown}", code, out, err.encode()


def _changed(before: str, after: str) -> str:
    """Which of the exit code, stdout and stderr differ between two lines of one label."""
    fields = zip(("exit code", "stdout", "stderr"), before.split("\t")[1:], after.split("\t")[1:])
    return ", ".join(name for name, a, b in fields if a != b)


def check(saved: dict, run: dict) -> int:
    """Print the labels on which two runs disagree, with what changed in each that
    both have, and return how many there are."""
    bad = [(f"differs: {label} ({_changed(saved[label], line)})" if label in saved
            else f"extra: {label}") for label, line in run.items() if saved.get(label) != line]
    bad += [f"missing: {label}" for label in saved if label not in run]
    for line in bad:
        print(line)
    print(f"{len(bad)} of {len(saved.keys() | run.keys())} labels differ")
    return len(bad)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Digests of the CLI's outputs.")
    parser.add_argument("--check", metavar="FILE", help="compare with a saved run")
    args = parser.parse_args(argv)
    run = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, code, out, err in lines(Path(tmp)):
            run[label] = f"{label}\t{code}\t{_digest(out)}\t{_digest(err)}"
            if args.check is None:
                print(run[label])
    if args.check is None:
        return 0
    saved = Path(args.check).read_text().splitlines()
    return 1 if check({line.split("\t", 1)[0]: line for line in saved if line}, run) else 0


if __name__ == "__main__":
    raise SystemExit(main())
