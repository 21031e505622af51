"""Batch command-line front door.

planch <gamma|density|component-group|fd-rhs|limit-verify|classify-form|
        charpoly|so-embed> [flags]

Exit codes: 0 success/pass, 1 verification fail, 2 malformed input (bad
flags, unreadable JSON, a missing key, a wrong type or a value that is not a
number in it), 3 precondition violation, 4 budget exhaustion.  Any other
exception is a fault of planch and ends in a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .field import read_number

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


class InputError(ValueError):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read JSON from {path}: {e}") from e


def _from_json(build, data):
    """build(data) for data read from JSON: a missing key or list entry, or
    a value of the wrong type there, is malformed input."""
    try:
        return build(data)
    except (LookupError, TypeError, AttributeError) as e:
        raise InputError(f"malformed input: {e!r}") from e


def _field_spec(args):
    from .field import LocalFieldSpec

    p = args.p
    q = args.q
    if q is None and p is None:
        raise InputError("provide --q (and --p when q is not prime)")
    if q is None:
        q = p
    if p is None:
        p = _residue_char(q)
    return LocalFieldSpec(p=p, q=q, psi_level=args.psi_level)


def _residue_char(q: int) -> int:
    for p in range(2, q + 1):
        if q % p == 0:
            return p
    raise InputError(f"cannot factor q = {q}")


def _load_rep(args):
    from .wdrep import WDRep, parse_rep_text

    if args.rep_file:
        return _from_json(WDRep.from_dict, _load_json(args.rep_file))
    if args.rep:
        try:
            return parse_rep_text(args.rep)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"cannot parse representation {args.rep!r}: {e}")
    raise InputError("provide --rep-file or --rep")


def _round_sig(x: float, sig: int = 12) -> float:
    if x == 0:
        return 0.0
    from math import floor, log10
    return round(x, -int(floor(log10(abs(x)))) + sig - 1)


def _emit(report: dict, args) -> None:
    fmt = args.format
    out = args.out
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        flat = _flatten(report)
        keys = sorted(flat)
        vals = [_csv_cell(flat[k]) for k in keys]
        text = ",".join(keys) + "\n" + ",".join(vals) + "\n"
    elif fmt == "table":
        flat = _flatten(report)
        width = max(len(k) for k in flat)
        text = "".join(f"{k:<{width}}  {flat[k]}\n" for k in sorted(flat))
    else:
        raise InputError(f"unknown format {fmt!r}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(_round_sig(v))
    return str(v).replace(",", ";")


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        elif isinstance(v, list):
            out[key] = "[" + " ".join(str(x) for x in v) + "]"
        else:
            out[key] = v
    return out


def _base_report(args, formula: str) -> dict:
    from . import __version__

    rep = {"tool": "planch", "version": __version__, "command": args.command,
           "formula": formula}
    if getattr(args, "p", None) is not None or getattr(args, "q", None) is not None:
        rep["field"] = _field_spec(args).to_dict()
    return rep


# -- commands -------------------------------------------------------------------
# Each returns its formula label and its result dict, limit-verify also its
# exit code; ``main`` alone builds the report, writes it and exits.


def cmd_gamma(args) -> tuple:
    from .spectral import PoleError

    spec = _field_spec(args)
    rep = _load_rep(args)
    r = args.r  # one of the parser's choices
    target = {"std": lambda: rep, "sym2": rep.sym2, "wedge2": rep.wedge2,
              "ad": rep.ad, "ad-over-a": rep.ad_over_center}[r]()
    g = target.gamma_factor(spec).normalize()
    ordv = g.ord_zero_at_zero()
    result = {
        "input": rep.to_dict(),
        "composed": target.to_dict(),
        "factor": g.to_dict(),
        "ord_at_zero": ordv,
    }
    if ordv >= 0:
        v = g.regularized_value()
        result["regularized_value"] = [v.real, v.imag]
    if args.at is not None:
        try:
            v = g.evaluate(complex(args.at))
            result["value_at_s"] = {"s": args.at, "value": [v.real, v.imag]}
        except PoleError as e:
            result["value_at_s"] = {"s": args.at, "pole": str(e)}
    return f"gamma-factor[{r}]", result


def cmd_density(args) -> tuple:
    from .tempered import (TempPoint, central_quotient_relation_check,
                           plancherel_density, plancherel_density_chi)

    spec = _field_spec(args)
    pt = _from_json(TempPoint.from_dict, _load_json(args.point))
    mu = plancherel_density(pt, spec)
    result = {"point": pt.to_dict(), "mu": [mu.real, mu.imag]}
    if args.chi is not None:
        chi = _parse_chi(args.chi, spec.p)
        mu_chi = plancherel_density_chi(pt, chi, spec)
        result["mu_chi"] = [mu_chi.real, mu_chi.imag]
        result["central_quotient_ok"] = central_quotient_relation_check(
            pt, chi, spec)
    return "regularized-adjoint-gamma-density", result


def _parse_chi(text: str, p: int):
    from .field import QuadraticCharacter

    if text in ("1", "trivial"):
        return QuadraticCharacter.trivial(p)
    if text in ("unramified", "unram-quad"):
        return QuadraticCharacter.unramified_quadratic(p)
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"cannot parse character {text!r}: {e}")
    return _from_json(lambda d: QuadraticCharacter.from_dict(
        p, {read_number(k, int): read_number(v, int) for k, v in d.items()}),
        spec)


def cmd_component_group(args) -> tuple:
    rep = _load_rep(args)
    s_plus, s, ratio = rep.component_groups()
    return "centralizer-component-groups", {
        "input": rep.to_dict(), "sPlus": s_plus, "s": s, "fiberRatio": ratio}


def cmd_fd_rhs(args) -> tuple:
    from .tempered import formal_degree_rhs

    spec = _field_spec(args)
    rep = _load_rep(args)
    val = formal_degree_rhs(rep, spec)
    return "formal-degree-prediction", {"input": rep.to_dict(), "value": val}


def cmd_limit_verify(args) -> tuple:
    from .limitcheck import QuadConfig, phi_from_dict, verify, ConstantPhi
    from .tempered import OrthTriple

    spec = _field_spec(args)
    triple = _from_json(OrthTriple.from_dict, _load_json(args.triple))
    phi = (_from_json(phi_from_dict, _load_json(args.phi)) if args.phi
           else ConstantPhi(1.0))
    s0, count = _parse_s_seq(args.s_seq)
    grid = 128 if args.grid is None else args.grid
    cfg = QuadConfig(s0=s0, s_count=count, tol=args.tol, n_base=grid,
                     rhs_n=grid, max_nodes=args.max_nodes)
    rep = verify(triple, phi, spec, cfg, chi_minus_one=args.chi_minus_one)
    result = rep.to_dict()
    result["triple"] = triple.to_dict()
    result["phi"] = phi.describe()
    if args.report:
        args.out = args.report
    code = EXIT_OK if rep.passed else EXIT_FAIL
    if rep.budget_exceeded:
        code = EXIT_BUDGET
    return "spectral-limit-identity", result, code


def _parse_s_seq(text: str):
    try:
        start, count = text.split(",")
        return float(start), int(count)
    except ValueError as e:
        raise InputError(f"--s-seq expects START,COUNT, got {text!r}: {e}")


def cmd_classify_form(args) -> tuple:
    from .forms import BilForm, classify_sharp, disc_twisted

    if args.p is None:
        raise InputError("classify-form requires --p")
    b = _from_json(BilForm.from_dict, _load_json(args.matrix))
    label = classify_sharp(b, args.p)
    result = {"matrix": b.to_dict()["matrix"], "kind": label.kind}
    if label.t is not None:
        result["t_class"] = label.t.representative()
    result["disc_class"] = disc_twisted(b, args.p).representative()
    return "twisted-orbit-classification", result


def cmd_charpoly(args) -> tuple:
    from .forms import BilForm, char_poly_twisted

    b = _from_json(BilForm.from_dict, _load_json(args.matrix))
    coeffs = char_poly_twisted(b)
    return "twisted-characteristic-polynomial", {
        "matrix": b.to_dict()["matrix"],
        "coefficients_low_to_high": [str(c) for c in coeffs]}


def cmd_so_embed(args) -> tuple:
    from .forms import b_of_g, build_odd_so, m_tilde_of, mat

    emb = build_odd_so(args.d)
    if args.ubar:
        g = _from_json(lambda rows: mat([[read_number(x) for x in row]
                                         for row in rows]), _load_json(args.ubar))
        g = emb.element(g)
        bg = b_of_g(emb, g)
        result = {"d": args.d, "B_g": bg.to_dict()["matrix"],
                  "in_open_cell": bg.is_nondegenerate()}
        if result["in_open_cell"]:
            result["m_tilde"] = m_tilde_of(emb, g).to_dict()["matrix"]
    else:
        result = {"d": args.d, "dim": emb.dim,
                  "gram": [[str(x) for x in row]
                           for row in emb.gram()]}
    return "odd-orthogonal-open-cell", result


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="planch",
        description="Exact local factors, Plancherel densities and the "
                    "spectral-limit check")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, field=True):
        if field:
            p.add_argument("--q", type=int, default=None,
                           help="residue cardinality")
            p.add_argument("--p", type=int, default=None,
                           help="residue characteristic")
            p.add_argument("--psi-level", dest="psi_level", type=int, default=0)
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="json")

    p = sub.add_parser("gamma", help="exact local factor of a representation")
    common(p)
    p.add_argument("--rep-file", default=None, help="representation JSON")
    p.add_argument("--rep", default=None,
                   help="compact text, e.g. '1/3*Sp(2) + 0*Sp(1)'")
    p.add_argument("--r", choices=("std", "sym2", "wedge2", "ad", "ad-over-a"),
                   default="std")
    p.add_argument("--at", type=float, default=None, help="also evaluate at s")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("density", help="Plancherel densities of a tempered point")
    common(p)
    p.add_argument("--point", required=True, help="tempered point JSON")
    p.add_argument("--chi", default=None,
                   help="'trivial', 'unramified', or a {rep: value} JSON table")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("component-group", help="centralizer component groups")
    common(p, field=False)
    p.add_argument("--rep-file", default=None)
    p.add_argument("--rep", default=None)
    p.set_defaults(func=cmd_component_group)

    p = sub.add_parser("fd-rhs", help="formal-degree prediction for an "
                                      "orthogonal parameter")
    common(p)
    p.add_argument("--rep-file", default=None)
    p.add_argument("--rep", default=None)
    p.set_defaults(func=cmd_fd_rhs)

    p = sub.add_parser("limit-verify", help="run the spectral-limit check")
    common(p)
    p.add_argument("--triple", required=True, help="orthogonal triple JSON")
    p.add_argument("--phi", default=None, help="test-function JSON")
    p.add_argument("--s-seq", dest="s_seq", default="0.1,6",
                   help="START,COUNT geometric s-sequence")
    p.add_argument("--tol", type=float, default=1e-3,
                   help="relative tolerance of the check; it also sizes the "
                        "left grid, whose quadrature term aims at tol / 100")
    p.add_argument("--grid", type=int, default=None,
                   help="minimum nodes per torus dimension")
    p.add_argument("--max-nodes", dest="max_nodes", type=int, default=2 ** 22)
    p.add_argument("--chi-minus-one", dest="chi_minus_one", type=int,
                   choices=(1, -1), default=1,
                   help="value of the central quadratic character at -1")
    p.add_argument("--report", default=None, help="alias for --out")
    p.set_defaults(func=cmd_limit_verify)

    p = sub.add_parser("classify-form", help="orbit label of a bilinear form")
    common(p)
    p.add_argument("--matrix", required=True, help="matrix JSON")
    p.set_defaults(func=cmd_classify_form)

    p = sub.add_parser("charpoly", help="characteristic polynomial of the "
                                        "twisted action")
    common(p, field=False)
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("so-embed", help="odd orthogonal embedding computations")
    common(p, field=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ubar", default=None,
                   help="(2d+1)x(2d+1) matrix JSON of a lower-unipotent element")
    p.set_defaults(func=cmd_so_embed)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    from .spectral import OrderMismatchError, PoleError, RegularizationError

    try:
        formula, result, *code = args.func(args)
        report = _base_report(args, formula)
        report["result"] = result
        _emit(report, args)
        return code[0] if code else EXIT_OK
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (PoleError, RegularizationError, OrderMismatchError,
            ValueError) as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
