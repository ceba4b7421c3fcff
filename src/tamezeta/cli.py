"""Command-line front end: descriptor configuration, reports, self-test.

Exit codes are a stable contract: 0 success, 1 self-test failure, 2 invalid
or not-tame input, 3 numeric failure.  Reports go to stdout (or --output);
diagnostics go to stderr.  JSON reports are canonical: sorted keys, compact
separators, every scalar serialized as a string, so parse + re-serialize is
byte-identical.
"""
from __future__ import annotations

import argparse
import configparser
import json
import sys
from fractions import Fraction

import mpmath
from mpmath import mp

from . import continuation, numeval
from .catalog import CATALOG_NAMES, catalog_descriptor
from .scalar import ApproxContext, BigComplex, as_mpc
from .tame import (
    BarnesDescriptor,
    BuiltinDescriptor,
    CharacterDescriptor,
    EhrhartDescriptor,
    LerchDescriptor,
    NotTameError,
    RationalDescriptor,
    laurent_at_one,
)

__all__ = ["main", "build_parser", "run_analyze", "run_eval", "run_catalog_selftest"]

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(text)


def _parse_complex(text: str):
    text = text.strip().replace(" ", "")
    try:
        return _parse_rational(text)
    except (ValueError, ZeroDivisionError):
        pass
    z = complex(text.replace("i", "j"))
    with mp.workprec(64):
        return mpmath.mpc(z.real, z.imag)


def _parse_rational_list(text: str):
    parts = text.replace(",", " ").split()
    return tuple(_parse_rational(p) for p in parts)


def _parse_int_list(text: str):
    return tuple(int(x) for x in text.replace(",", " ").split())


# catalog parameters and their parsers, shared by the flags and --desc-file
_CATALOG_PARAMS = {
    "modulus": int,
    "chi": _parse_rational_list,
    "power": int,
    "w": _parse_complex,
    "a": _parse_int_list,
    "g": _parse_rational_list,
    "p": int,
    "d": int,
}


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _scalar_str(x, digits: int) -> str:
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, BigComplex):
        with mp.workprec(x.prec):
            if x.imag == 0:
                return mpmath.nstr(x.real, digits)
            return mpmath.nstr(x.real, digits) + ("+" if x.imag >= 0 else "") + mpmath.nstr(x.imag, digits) + "i"
    if isinstance(x, mpmath.mpc):
        if x.imag == 0:
            return mpmath.nstr(x.real, digits)
        return mpmath.nstr(x.real, digits) + ("+" if x.imag >= 0 else "") + mpmath.nstr(x.imag, digits) + "i"
    if isinstance(x, mpmath.mpf):
        return mpmath.nstr(x, digits)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _re_im_strings(value, digits: int):
    if isinstance(value, BigComplex):
        with mp.workprec(value.prec):
            return mpmath.nstr(value.real, digits), mpmath.nstr(value.imag, digits)
    z = as_mpc(value)
    return mpmath.nstr(z.real, digits), mpmath.nstr(z.imag, digits)


def descriptor_from_args(args) -> object:
    if getattr(args, "desc_file", None):
        return _descriptor_from_file(args.desc_file)
    if getattr(args, "catalog", None):
        values = {key: getattr(args, key) for key in _CATALOG_PARAMS}
        params = {key: _CATALOG_PARAMS[key](text) for key, text in values.items() if text is not None}
        return catalog_descriptor(args.catalog, **params)
    if getattr(args, "num", None) is not None and getattr(args, "den", None) is not None:
        return RationalDescriptor(_parse_rational_list(args.num), _parse_rational_list(args.den))
    raise ValueError("no descriptor given: use --catalog, --num/--den, or --desc-file")


def _descriptor_from_file(path: str):
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ValueError("cannot read descriptor file %r" % path)
    if "descriptor" not in cp:
        raise ValueError("descriptor file needs a [descriptor] section")
    sec = cp["descriptor"]
    kind = sec.get("kind", "catalog").strip()
    if kind == "catalog":
        params = {key: parse(sec[key]) for key, parse in _CATALOG_PARAMS.items() if key in sec}
        return catalog_descriptor(sec["name"].strip(), **params)
    if kind == "rational":
        return RationalDescriptor(_parse_rational_list(sec["num"]), _parse_rational_list(sec["den"]))
    if kind == "character":
        return CharacterDescriptor(
            sec.getint("modulus"), _parse_rational_list(sec["chi"]), sec.getint("power", fallback=1)
        )
    if kind == "lerch":
        return LerchDescriptor(_parse_complex(sec["w"]))
    if kind == "barnes":
        return BarnesDescriptor(_parse_int_list(sec["a"]))
    if kind == "ehrhart":
        return EhrhartDescriptor(_parse_rational_list(sec["g"]), sec.getint("p"), sec.getint("d"))
    if kind == "builtin":
        return BuiltinDescriptor(sec["name"].strip())
    raise ValueError("unknown descriptor kind %r" % kind)


def _context_from_args(args) -> ApproxContext:
    return ApproxContext(
        precision_bits=args.precision,
        target_eps=args.eps,
        max_terms=args.max_terms,
    )


def run_analyze(args, out) -> int:
    ctx = _context_from_args(args)
    digits = int(ctx.precision_bits * 0.30103) + 2
    desc = descriptor_from_args(args)
    t0 = _parse_rational(args.t0)
    want = args.values
    if args.order is not None:
        want = max(want, args.order)
    rep = continuation.analyze(desc, t0, want, prec=ctx.working_bits(32))
    laur = laurent_at_one(desc, args.values + 2, prec=ctx.working_bits(32))
    order = args.order if args.order is not None else rep.nu + args.values
    doc = {
        "command": "analyze",
        "catalog": getattr(args, "catalog", None) or "",
        "precision_bits": ctx.precision_bits,
        "t0": _scalar_str(rep.t0, digits),
        "nu": rep.nu,
        "laurent": {
            "kind": laur.kind,
            "k": [_scalar_str(k, digits) for k in laur.ks],
            "phi": [_scalar_str(p, digits) for p in laur.phis[: args.values + 1]],
        },
        "poles": [[n, _scalar_str(rep.residues[n], digits)] for n in rep.pole_set],
        "removable": [[n, cert] for n, cert in rep.removable],
        "genericity": rep.genericity,
        "witness": list(rep.witness),
        "values_licensed": rep.values_licensed,
        "values": [_scalar_str(v, digits) for v in rep.special_values[: args.values + 1]],
        "bernoulli": [
            [_scalar_str(c, digits) for c in rep.bernoulli[n].coeffs] for n in range(min(order, len(rep.bernoulli) - 1) + 1)
        ],
        "warnings": list(rep.warnings),
    }
    print(canonical_dumps(doc), file=out)
    return EXIT_OK


_METHODS = ("hasse", "oracle", "direct", "incgamma")


def _eval_one(method, desc, s, t0, ctx):
    if method == "hasse":
        return numeval.continue_dirichlet(desc, s, t0, ctx)
    if method == "oracle":
        return numeval.oracle_eval(desc, s, t0, ctx)
    if method == "direct":
        return numeval.direct_sum(desc, s, t0, ctx)
    if method == "incgamma":
        return numeval.incgamma_eval(desc, s, t0, ctx)
    raise ValueError("unknown method %r" % method)


def run_eval(args, out) -> int:
    ctx = _context_from_args(args)
    digits = int(ctx.precision_bits * 0.30103) + 2
    desc = descriptor_from_args(args)
    t0 = _parse_rational(args.t0)
    if not args.s:
        raise ValueError("eval needs at least one --s point")
    spoints = [_parse_complex(p) for p in args.s.split(";")]
    methods = [args.method] if args.method != "compare" else list(_METHODS)
    rows = []
    hard_failure = False
    for s in spoints:
        per_method = {}
        for method in methods:
            try:
                res = _eval_one(method, desc, s, t0, ctx)
                per_method[method] = res
            except numeval.NearPoleError as exc:
                per_method[method] = exc
            except numeval.RegionError:
                if args.method != "compare":
                    raise
            except numeval.NumericalEvalError as exc:
                if args.method != "compare":
                    raise
                print("warning: %s failed at s=%s: %s" % (method, s, exc), file=sys.stderr)
        if args.method == "compare" and sum(1 for v in per_method.values() if isinstance(v, numeval.EvalResult)) < 2:
            raise ValueError("compare mode needs at least two applicable methods at s=%s" % s)
        rows.append((s, per_method))
    _emit_eval(_eval_rows(rows, methods, digits, ctx), methods, args.format, out)
    return EXIT_OK


def _max_pairwise(per_method, prec):
    vals = [r.mpc() for r in per_method.values() if isinstance(r, numeval.EvalResult)]
    if len(vals) < 2:
        return None
    with mp.workprec(prec + 64):
        worst = mpmath.mpf(0)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                worst = max(worst, abs(vals[i] - vals[j]))
        return worst


def _eval_rows(rows, methods, digits, ctx):
    """One report row per s point, keyed by column; a compare row has no
    columns for the methods that did not apply, and a near-pole row keeps
    its residue."""
    out = []
    for s, per in rows:
        sre, sim = _re_im_strings(s, digits)
        row = {"s_re": sre, "s_im": sim}
        if len(methods) == 1:
            res = per.get(methods[0])
            if isinstance(res, numeval.NearPoleError):
                row.update(value_re="", value_im="", method=methods[0], tail_bound="", bound_kind="", flags="near-pole")
                row["residue"] = _scalar_str(res.residue, digits) if res.residue is not None else ""
            else:
                row["value_re"], row["value_im"] = _re_im_strings(res.value, digits)
                row.update(
                    method=res.method,
                    tail_bound=_scalar_str(res.tail_bound, 6),
                    bound_kind=res.bound_kind,
                    flags="|".join(res.flags),
                )
        else:
            for m_ in methods:
                res = per.get(m_)
                if isinstance(res, numeval.EvalResult):
                    row["%s_re" % m_], row["%s_im" % m_] = _re_im_strings(res.value, digits)
            dev = _max_pairwise(per, ctx.precision_bits)
            row["max_pairwise_deviation"] = _scalar_str(dev, 6) if dev is not None else ""
        out.append(row)
    return out


def _emit_eval(rows, methods, fmt, out):
    if fmt != "csv":
        print(canonical_dumps({"command": "eval", "rows": rows}), file=out)
        return
    if len(methods) == 1:
        header = ["s_re", "s_im", "value_re", "value_im", "method", "tail_bound", "bound_kind", "flags"]
    else:
        header = ["s_re", "s_im"] + ["%s_%s" % (m_, part) for m_ in methods for part in ("re", "im")]
        header.append("max_pairwise_deviation")
    print(",".join(header), file=out)
    for row in rows:
        print(",".join(row.get(col, "") for col in header), file=out)


def run_catalog_selftest(args, out) -> int:
    from .selftest import run_selftest

    skip = getattr(args, "catalog", None) == "none"
    results, ok = run_selftest(args.precision, skip_catalog=skip, out=out)
    return EXIT_OK if ok else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamezeta",
        description="Continuation data and arbitrary-precision evaluation of "
        "Dirichlet series attached to generating series with a pole at z=1.",
    )
    parser.add_argument("--precision", type=int, default=128, help="precision in bits (default 128)")
    parser.add_argument("--eps", type=float, default=1e-25, help="target tolerance (default 1e-25)")
    parser.add_argument("--max-terms", type=int, default=2_000_000, dest="max_terms")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", type=str, default=None, help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_descriptor_flags(p):
        p.add_argument("--catalog", choices=CATALOG_NAMES, default=None)
        p.add_argument("--modulus", type=str, default=None)
        p.add_argument("--chi", type=str, default=None, help="comma-separated character values")
        p.add_argument("--power", type=str, default=None)
        p.add_argument("--w", type=str, default=None)
        p.add_argument("--a", type=str, default=None, help="comma-separated positive integers")
        p.add_argument("--g", type=str, default=None, help="numerator coefficients")
        p.add_argument("--p", type=str, default=None)
        p.add_argument("--d", type=str, default=None)
        p.add_argument("--num", type=str, default=None, help="rational numerator coefficients")
        p.add_argument("--den", type=str, default=None, help="rational denominator coefficients")
        p.add_argument("--desc-file", type=str, default=None, dest="desc_file")

    pa = sub.add_parser("analyze", help="pole/residue/special-value report")
    add_descriptor_flags(pa)
    pa.add_argument("--t0", type=str, default="1")
    pa.add_argument("--values", type=int, default=8, help="number of special values v_0..v_K")
    pa.add_argument("--order", type=int, default=None, help="emit Bernoulli polynomials up to this index")

    pe = sub.add_parser("eval", help="evaluate the continued series at s-points")
    add_descriptor_flags(pe)
    pe.add_argument("--t0", type=str, default="1")
    pe.add_argument("--s", type=str, default=None, help="semicolon-separated s points, e.g. '-1;0.5+2j'")
    pe.add_argument(
        "--method", choices=("hasse", "oracle", "direct", "incgamma", "compare"), default="hasse"
    )

    ps = sub.add_parser("selftest", help="run the acceptance suite")
    ps.add_argument("--catalog", type=str, default=None, help="'none' skips every check")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    handle = None
    if args.output:
        handle = open(args.output, "w")
        out = handle
    try:
        if args.command == "analyze":
            return run_analyze(args, out)
        if args.command == "eval":
            return run_eval(args, out)
        if args.command == "selftest":
            return run_catalog_selftest(args, out)
        parser.error("unknown command")
    except (NotTameError, ValueError, configparser.Error) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except numeval.NumericalEvalError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        if handle is not None:
            handle.close()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
