"""Compare what two source trees of planch compute, result by result.

    python3 tools/parity.py --tree A --tree B [--seeds 1,2] [--ops N]

Each tree runs in a fresh interpreter, with that tree's ``src`` and
``bench`` on PYTHONPATH and one thread of numerical work.  There it calls
every operation of ``workloads.build(name, seed)`` for the four benchmark
workloads at each seed (only the first N of each with ``--ops N``), and a
fixed list of CLI commands on input files that it writes itself.  It keeps
the ``repr`` of each result, or of the exception raised, and of each
command's exit code, report and standard error.

The tool prints one sha256 of those reprs per (workload, seed) and one for
the CLI group.  For a group whose digests differ it prints the first
differing item, the two reprs and the largest relative difference between
the numbers in them, and it exits 1.  It exits 0 when every group agrees.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("limit-d3", "limit-sweep", "exact-identity", "forms-exact")
CLI = "cli"

# The CLI group: (label, input files to write, argv).  The inputs cover
# every command, every exit code, a pole, a central-character mismatch, a
# budget cut, a JSON character table and a triple refused at construction.

# central angles 0 and 1/2: the trivial and the unramified character
_POINT = {"blocks": [{"k": 2, "angle": "1/4", "twist": "0"},
                     {"k": 1, "angle": "1/5", "twist": "3/10"}]}
_POINT2 = {"blocks": [{"k": 2, "angle": "1/3", "twist": "-1/12"},
                      {"k": 1, "angle": "0"}]}
_D1 = {"Io": [{"angle": "0", "sp": 1, "q": 1}]}
_IO2 = {"Io": [{"angle": "0", "sp": 1, "q": 1},
               {"angle": "1/2", "sp": 1, "q": 1}]}
_IN = {"In": [{"angle": "1/3", "sp": 1, "m": 1}]}
_IS = {"Is": [{"angle": "1/2", "sp": 2, "p": 2}]}
_ODD_IS = {"Is": [{"angle": "0", "sp": 2, "p": 1}]}
_TRIG = {"kind": "trig", "const": 1.0, "terms": [[1, 1, [0.2, 0.05]]]}
_B2 = {"matrix": [["-1", "1"], ["-1", "0"]]}
_B3 = {"matrix": [["1", "2", "0"], ["0", "1", "-1/3"], ["3", "1", "2"]]}
# n_bar_element((2, -1), S) of SO(5), S + S^T = -ell ell^T
_UBAR = [["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"],
         ["2", "-1", "1", "0", "0"], ["-2", "3", "-2", "1", "0"],
         ["-1", "-1/2", "1", "0", "1"]]

CLI_CASES = [
    ("gamma-std", {}, ["gamma", "--rep", "0*Sp(1)", "--q", "3"]),
    ("gamma-wedge2", {}, ["gamma", "--rep", "1/3*Sp(2)", "--r", "wedge2",
                          "--q", "5", "--at", "0.25"]),
    ("gamma-ad-over-a", {}, ["gamma", "--rep", "1/2*Sp(3) + 1/4*Sp(1)",
                             "--r", "ad-over-a", "--q", "9", "--p", "3",
                             "--psi-level", "1", "--format", "csv"]),
    ("gamma-pole", {}, ["gamma", "--rep", "0*Sp(1)", "--q", "3",
                        "--at", "0"]),
    ("gamma-malformed", {}, ["gamma", "--rep", "x*Sp(1)", "--q", "3"]),
    ("density", {"point.json": _POINT},
     ["density", "--point", "point.json", "--q", "5", "--chi", "trivial"]),
    ("density-table", {"point.json": _POINT2},
     ["density", "--point", "point.json", "--q", "3",
      "--chi", '{"1": 1, "2": 1, "3": -1, "6": -1}', "--format", "table"]),
    ("density-mismatch", {"point.json": _POINT2},
     ["density", "--point", "point.json", "--q", "3", "--chi", "trivial"]),
    ("component-group", {}, ["component-group", "--rep",
                             "0*Sp(1) + 1/2*Sp(1) + 0*Sp(2) + 0*Sp(2)"]),
    ("fd-rhs", {}, ["fd-rhs", "--rep", "0*Sp(3)", "--q", "3"]),
    ("limit-d1", {"t.json": _D1},
     ["limit-verify", "--triple", "t.json", "--q", "3", "--s-seq", "0.1,4"]),
    ("limit-io2-trig", {"t.json": _IO2, "phi.json": _TRIG},
     ["limit-verify", "--triple", "t.json", "--phi", "phi.json", "--q", "5",
      "--psi-level", "1", "--s-seq", "0.1,5", "--tol", "1e-2"]),
    ("limit-is", {"t.json": _IS},
     ["limit-verify", "--triple", "t.json", "--q", "4", "--p", "2",
      "--s-seq", "0.1,5", "--tol", "1e-2", "--chi-minus-one", "-1"]),
    ("limit-fail", {"t.json": _IN},
     ["limit-verify", "--triple", "t.json", "--q", "3", "--s-seq", "0.2,3",
      "--tol", "1e-9"]),
    ("limit-budget", {"t.json": _IO2},
     ["limit-verify", "--triple", "t.json", "--q", "3", "--s-seq", "0.02,2",
      "--max-nodes", "2048"]),
    ("limit-odd-is", {"t.json": _ODD_IS},
     ["limit-verify", "--triple", "t.json", "--q", "3"]),
    ("classify-2", {"b.json": _B2}, ["classify-form", "--matrix", "b.json",
                                     "--p", "3"]),
    ("classify-3", {"b.json": _B3}, ["classify-form", "--matrix", "b.json",
                                     "--p", "5"]),
    ("charpoly", {"b.json": _B3}, ["charpoly", "--matrix", "b.json"]),
    ("so-embed", {}, ["so-embed", "--d", "2"]),
    ("so-embed-ubar", {"u.json": _UBAR},
     ["so-embed", "--d", "2", "--ubar", "u.json"]),
]


# -- inside one tree ---------------------------------------------------------------


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as e:  # an error is a result to compare, too
        return f"raised {type(e).__name__}: {e}"


def dump(seeds: list, ops: int | None) -> dict:
    """{group: [[label, repr], ...]} for this interpreter's planch."""
    import workloads
    from planch.cli import main

    out = {}
    for name in WORKLOADS:
        for seed in seeds:
            items = workloads.build(name, seed)[:ops]
            out[f"{name}:{seed}"] = [[f"{i} {op.kind}", _outcome(op.call)]
                                     for i, op in enumerate(items)]
    items = []
    for label, files, argv in CLI_CASES:
        for fname, data in files.items():
            Path(fname).write_text(json.dumps(data))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
        items.append([label, repr((code, stdout.getvalue(),
                                   stderr.getvalue()))])
    out[CLI] = items
    return out


def run_tree(tree: Path, seeds: list, ops: int | None) -> dict:
    """``dump`` in a fresh interpreter on the sources of ``tree``."""
    tree = tree.resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src"), str(tree / "bench")]))
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")})
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        target = Path(tmp) / "dump.json"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--dump", str(target), "--seeds", ",".join(map(str, seeds))]
        if ops is not None:
            cmd += ["--ops", str(ops)]
        subprocess.run(cmd, env=env, cwd=tmp, check=True)
        return json.loads(target.read_text())


# -- comparing the dumps ------------------------------------------------------------


def digest(items: list) -> str:
    h = hashlib.sha256()
    for label, text in items:
        h.update(f"{label}\t{text}\n".encode())
    return h.hexdigest()


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def relative_difference(a: str, b: str) -> float | None:
    """The largest |x - y| / max(|x|, |y|) over the numbers of two reprs
    taken in order, or None when they hold different numbers of them."""
    xs, ys = _NUMBER.findall(a), _NUMBER.findall(b)
    if len(xs) != len(ys):
        return None
    worst = 0.0
    for x, y in zip(map(float, xs), map(float, ys)):
        if x != y:
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if scale else 0.0)
    return worst


def first_difference(a: list, b: list) -> list:
    """Lines naming the first item where two groups differ, with both reprs
    from a little before the first character where they part."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            rel = relative_difference(x[1], y[1])
            at = next((k for k, (u, v) in enumerate(zip(x[1], y[1]))
                       if u != v), min(len(x[1]), len(y[1])))
            cut = slice(max(0, at - 80), at + 160)
            return [f"  first difference at item {i} ({x[0]} / {y[0]}),"
                    f" character {at}:",
                    f"    A: {x[1][cut]!r}", f"    B: {y[1][cut]!r}",
                    "    largest relative difference: "
                    + ("numbers do not pair up" if rel is None
                       else f"{rel:.3e}")]
    return [f"  {len(a)} items against {len(b)}"]


def compare(a: dict, b: dict) -> tuple[list, bool]:
    """(report lines, whether every group agrees) for two dumps."""
    lines, same = [], True
    for group in a:
        da, db = digest(a[group]), digest(b[group])
        if da == db:
            lines.append(f"{group:<20} {da}  same")
            continue
        same = False
        lines.append(f"{group:<20} {da}  A")
        lines.append(f"{'':<20} {db}  B  DIFFERS")
        lines += first_difference(a[group], b[group])
    return lines, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", type=Path, default=[],
                    help="a source tree; give two")
    ap.add_argument("--seeds", default="1,2",
                    help="comma-separated workload seeds")
    ap.add_argument("--ops", type=int, default=None,
                    help="only the first N operations of each workload")
    ap.add_argument("--dump", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.dump is not None:
        args.dump.write_text(json.dumps(dump(seeds, args.ops)))
        return 0
    if len(args.tree) != 2:
        ap.error("give --tree twice")
    a, b = (run_tree(t, seeds, args.ops) for t in args.tree)
    lines, same = compare(a, b)
    print(f"A = {args.tree[0]}\nB = {args.tree[1]}")
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
