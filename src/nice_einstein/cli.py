"""Command-line surface: validate, info, einstein, verify, curvature, catalog.

Inputs are structure strings like "(0,0,0,e^{12},e^{13},e^{25}+e^{34})",
catalog names like "631:6", or @path to a file holding a structure string.
Family parameters are substituted with --param NAME=RATIONAL.  All output is
deterministic; timings are emitted only under --timings and only to stderr.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import sys
import time
from fractions import Fraction
from itertools import combinations

from .algebra import (
    AlgebraFamily,
    ParseError,
    fundamental_domain,
    nonzero_trace_derivation_witness,
    parse_family,
    to_string,
)
from .catalog import find_entry, load_catalog, run_entry
from .curvature import (
    DegenerateMetricError,
    LieBrackets,
    ad_invariance_check,
    diagonal_gram,
    einstein_residual,
    projected_riemann_norm,
    ricci_tensor,
    riemann_norm,
    scalar_curvature,
    sigma_gram,
)
from .diagram import (
    automorphisms,
    format_permutation,
    index_set,
    involutions,
    parse_permutation,
    root_matrix,
)
from .einstein import (
    DEFAULT_TOL,
    ClassificationResult,
    diagonal_einstein,
    format_delta,
    parameter_solve,
    sigma_einstein,
)
from .linalg import kernel_basis

SCHEMA_VERSION = 1
MAX_EXPONENT = 1000     # largest |e| of a decimal number 1.5e-3 in a rational option

CSV_COLUMNS = ["name", "mode", "k", "outcome", "half_S", "sigma", "p", "q"]


def _read_input_file(text: str) -> str:
    """The structure string in the file that '@path' names."""
    try:
        with open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError as exc:
        raise ParseError(f"cannot read {text[1:]!r}: {exc.strerror or exc}") from None


def _rational(text: str, what: str) -> Fraction:
    """The rational number `text` of the option `what`.

    A decimal exponent past MAX_EXPONENT is refused before `Fraction`
    expands it to a power of 10.
    """
    bad = f"bad {what} {text!r}, expected a rational number"
    _, e, exponent = text.lower().partition("e")
    try:
        if not e or abs(int(exponent)) <= MAX_EXPONENT:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(bad) from None
    raise ParseError(f"{bad} with a decimal exponent of at most {MAX_EXPONENT}")


def _tolerance(text: str) -> float:
    """The --tol value: a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise ParseError(f"bad --tol {text!r}, expected a finite number >= 0")
    return tol


def _load_family(text: str, name=None) -> AlgebraFamily:
    """The family that `text` gives, named `name` or else by its catalog name."""
    if text.startswith("@"):
        text = _read_input_file(text)
    elif not text.startswith("("):
        entry = find_entry(text)
        if entry is None:
            raise ParseError(f"{text!r} is neither a structure string nor a catalog name")
        text, name = entry.structure, name or entry.name
    return parse_family(text, name=name)


def _params_of(args, fam: AlgebraFamily) -> dict:
    """The --param values; each NAME must be a parameter of the family, given once."""
    out = {}
    known = fam.params()
    for item in args.param or []:
        if "=" not in item:
            raise ParseError(f"bad --param {item!r}, expected NAME=RATIONAL")
        name, val = (x.strip() for x in item.split("=", 1))
        if name not in known:
            raise ParseError(f"--param {name} is not a parameter of the input; "
                             f"parameters: {', '.join(known) or 'none'}")
        if name in out:
            raise ParseError(f"--param {name} is given more than once")
        out[name] = _rational(val, f"--param {name}")
    return out


def _load_algebra(args, name=None):
    fam = _load_family(args.input, name)
    return fam.substitute(_params_of(args, fam))


# ---------------------------------------------------------------------------
# Result records


def result_record(res: ClassificationResult, params: dict) -> dict:
    rec = {
        "schema_version": SCHEMA_VERSION,
        "name": res.algebra,
        "mode": res.mode,
        "sigma": format_permutation(res.sigma) if res.sigma else None,
        "k": str(res.k),
        "params": {n: str(v) for n, v in sorted(params.items())},
        "outcome": "metrics" if res.success else "fails",
        "failed_at": res.failed_at,
        "detail": res.detail,
        "exact": res.exact,
        "S": None,
        "half_S": None,
        "signatures": None,
        "certificates": [],
        "warnings": list(res.warnings),
    }
    if res.signatures is not None:
        rec["S"] = [format_delta(d) for d in res.signatures.S]
        if res.signatures.half_S is not None:
            rec["half_S"] = [format_delta(d) for d in res.signatures.half_S]
        rec["signatures"] = {
            f"{p},{q}": lst
            for (p, q), lst in sorted(res.signatures.signature_sets().items(),
                                      key=lambda kv: (-kv[0][0], kv[0][1]))
        }
    for c in res.certificates:
        rec["certificates"].append({
            "delta": format_delta(c.delta),
            "X": [str(x) for x in c.X],
            "metric": [str(g) for g in c.metric.g],
            "free_directions": [list(v) for v in c.freedom.exponents],
            "oracle_residual": str(c.oracle_residual),
            "exact": c.exact,
        })
    return rec


def record_text(rec: dict) -> str:
    lines = []
    head = f"{rec['name'] or '(unnamed)'}  mode={rec['mode']}"
    if rec["sigma"]:
        head += f"  sigma={rec['sigma']}"
    head += f"  k={rec['k']}"
    if rec["params"]:
        head += "  " + " ".join(f"{n}={v}" for n, v in rec["params"].items())
    lines.append(head)
    if rec["outcome"] == "metrics":
        lines.append(f"  metrics exist ({'exact' if rec['exact'] else 'numeric'})")
        if rec["half_S"] is not None:
            lines.append("  half_S = {" + ", ".join(rec["half_S"]) + "}")
        if rec["signatures"]:
            for pq, lst in rec["signatures"].items():
                lines.append(f"  S({pq}) = {{" + ", ".join(lst) + "}")
        for c in rec["certificates"]:
            lines.append(
                f"  certificate delta={c['delta']}: g=("
                + ", ".join(c["metric"])
                + f")  oracle_residual={c['oracle_residual']}")
    else:
        grade = "exact" if rec["exact"] else "numeric-grade"
        lines.append(f"  no metric: fails ({rec['failed_at']}) [{grade}] -- {rec['detail']}")
    for w in rec["warnings"]:
        lines.append(f"  warning: {w}")
    return "\n".join(lines)


def record_csv_rows(rec: dict) -> list[list[str]]:
    outcome = rec["outcome"] if rec["outcome"] == "metrics" else f"fails:{rec['failed_at']}"
    if rec["mode"] == "sigma" and rec["signatures"]:
        rows = []
        for pq, lst in rec["signatures"].items():
            p, q = pq.split(",")
            rows.append([rec["name"] or "", rec["mode"], rec["k"], outcome,
                         " ".join(lst), rec["sigma"] or "", p, q])
        return rows
    half = " ".join(rec["half_S"]) if rec["half_S"] else ""
    return [[rec["name"] or "", rec["mode"], rec["k"], outcome, half,
             rec["sigma"] or "", "", ""]]


def _emit_records(records: list[dict], out: str) -> None:
    """One document: a JSON record (a list unless there is exactly one), CSV, or text (none
    for no records)."""
    if out == "json":
        print(json.dumps(records if len(records) != 1 else records[0], indent=2))
    elif out == "csv":
        print(",".join(CSV_COLUMNS))
        for rec in records:
            for row in record_csv_rows(rec):
                print(",".join('"' + cell + '"' if "," in cell else cell
                               for cell in row))
    elif records:
        print("\n".join(record_text(rec) for rec in records))


# ---------------------------------------------------------------------------
# Commands


def _print_timing(args, t0: float) -> None:
    if args.timings:
        print(f"[{time.time() - t0:.2f}s]", file=sys.stderr)


def cmd_validate(args) -> int:
    alg = _load_algebra(args, args.name)
    print(f"valid nice Lie algebra: {to_string(alg)}"
          + (f"  [{args.name}]" if args.name else ""))
    return 0


def _indices(idxs) -> str:
    return ", ".join(f"{{{i},{j}}}->{k}" for (i, j, k) in idxs)


def cmd_info(args) -> int:
    alg = _load_algebra(args, args.name)
    M, _ = root_matrix(alg.diagram)
    print(f"name: {alg.name or '(unnamed)'}")
    print(f"structure: {to_string(alg)}")
    print(f"nodes: {alg.n}   arrows: {alg.m}")
    print("index set: " + _indices(index_set(alg.diagram)))
    print("root matrix:")
    for row in M.data:
        print("   [" + " ".join(f"{int(x):2d}" for x in row) + "]")
    fd = fundamental_domain(alg)
    print(f"rank over Q: {fd.rank_q}   rank mod 2: {fd.rank_f2}"
          + ("   (mod-2 surjective)" if fd.rank_f2 == alg.m else ""))
    for label, A in (("ker M (diagonal derivations)", M), ("ker tM", M.transpose())):
        ker = kernel_basis(A)
        print(f"{label}, dim {len(ker)}:")
        for v in ker:
            print("   (" + ", ".join(map(str, v)) + ")")
    w = nonzero_trace_derivation_witness(alg)
    print("nonzero-trace diagonal derivation: "
          + ("none" if w is None else "(" + ", ".join(map(str, w)) + ")"))
    auts = automorphisms(alg.diagram)
    print(f"Aut(diagram), order {len(auts)}: "
          + ", ".join(format_permutation(p) for p in auts))
    invs = involutions(alg.diagram)
    print("involutions: " + (", ".join(
        format_permutation(p) + (" [fixed-point-free]" if f else "")
        for p, f in invs) or "none"))
    print("fundamental domain: set to 1: " + (_indices(fd.normalized_to_one) or "-")
          + "; set to +-1: " + (_indices(fd.normalized_to_pm_one) or "-")
          + "; free: " + (_indices(fd.free) or "-"))
    return 0


def cmd_einstein(args) -> int:
    if args.sigma and args.mode != "sigma":
        raise ParseError("--sigma needs --mode sigma")
    if args.solve_param and args.mode == "sigma" and not args.sigma:
        raise ParseError("--mode sigma with --solve-param needs --sigma")
    fam = _load_family(args.input, args.name)
    params = _params_of(args, fam)
    k = _rational(args.k, "--k")
    tol = _tolerance(args.tol)
    sigma = parse_permutation(args.sigma, fam.n) if args.sigma else None
    t0 = time.time()

    if args.solve_param:
        work = fam.partial({n: v for n, v in params.items() if n != args.solve_param})
        if work.params() != [args.solve_param]:
            raise ParseError(f"--solve-param {args.solve_param} must name the one unresolved "
                             f"parameter; unresolved: {', '.join(work.params()) or 'none'}")
        sols = parameter_solve(work, sigma, k, tol)
        if args.out == "text":   # the records carry each value in `params`
            print(f"solved {args.solve_param}: "
                  + ("{ " + ", ".join(str(s) for s, _ in sols) + " }" if sols else "none"))
        _emit_records([result_record(res, dict(params, **{args.solve_param: s}))
                       for s, res in sols], args.out)
        _print_timing(args, t0)
        return 0 if sols else 2

    alg = fam.substitute(params)
    if args.mode == "diagonal":
        results = [diagonal_einstein(alg, k, tol)]
    else:
        sigmas = [sigma] if sigma else [p for p, _ in involutions(alg.diagram)]
        results = [sigma_einstein(alg, s, k, tol) for s in sigmas]
    if results or args.out != "text":
        _emit_records([result_record(r, params) for r in results], args.out)
    else:
        print("no diagram involutions exist")
    _print_timing(args, t0)
    if any(r.success for r in results):
        bad = any(w.startswith("numeric certificate") for r in results for w in r.warnings)
        return 3 if bad else 0
    return 2 if all(r.exact for r in results) else 3   # no involution at all: 2


def _parse_metric(alg, args):
    """The Gram matrix of --metric: matrix rows, or a diagonal or sigma-diagonal vector."""
    text = args.metric
    if ";" in text:
        G = [[_rational(x, "--metric entry") for x in row.split(",")] for row in text.split(";")]
        if len(G) != alg.n or any(len(r) != alg.n for r in G):
            raise ParseError(f"metric matrix must be {alg.n}x{alg.n}")
    else:
        vec = [_rational(x, "--metric entry") for x in text.split(",")]
        if len(vec) != alg.n:
            raise ParseError(f"metric vector must have {alg.n} entries")
        G = (sigma_gram(vec, parse_permutation(args.sigma, alg.n)) if args.sigma
             else diagonal_gram(vec))
    # a vector that is not sigma-invariant, or a sigma that is not an involution, lands here too
    for i, j in combinations(range(alg.n), 2):
        if G[i][j] != G[j][i]:
            raise ParseError(f"metric is not symmetric: entry ({i + 1},{j + 1}) is "
                             f"{G[i][j]} but ({j + 1},{i + 1}) is {G[j][i]}")
    return G


def cmd_verify(args) -> int:
    alg = _load_algebra(args)
    G = _parse_metric(alg, args)
    lam = _rational(args.lam, "--lambda")
    _, op = ricci_tensor(LieBrackets.from_nice(alg), G)
    res = einstein_residual(op, lam)
    print("Ricci operator diagonal: ("
          + ", ".join(str(op[i][i]) for i in range(alg.n)) + ")")
    print(f"max |Ric - {lam} id| = {res}")
    ok = res == 0   # every --metric entry is rational, so the residual is exact
    print("verdict: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_curvature(args) -> int:
    alg = _load_algebra(args)
    G = _parse_metric(alg, args)
    B = LieBrackets.from_nice(alg)
    rn = riemann_norm(B, G)
    print(f"g(R,R)   = {rn}")
    try:
        pn = projected_riemann_norm(B, G)
        print(f"g(R',R') = {pn}")
    except DegenerateMetricError as exc:
        print(f"g(R',R') = not computed ({exc})")
    s = scalar_curvature(B, G)
    print(f"scalar curvature = {s}")
    ok, witness = ad_invariance_check(B, G)
    if ok:
        print("ad-invariant: yes")
    else:
        print(f"ad-invariant: no (witness basis triple {witness})")
    return 0


def cmd_catalog(args) -> int:
    entries = [e for e in load_catalog()
               if not args.filter or fnmatch.fnmatchcase(e.name, args.filter)]
    if not entries:
        raise ParseError(f"no catalog entries match {args.filter!r}")
    if args.action == "list":
        for e in entries:
            print(f"{e.name:12s} {e.structure}")
        return 0
    all_ok = True
    rows = []
    t0 = time.time()
    for entry in entries:
        for chk in run_entry(entry, DEFAULT_TOL):
            all_ok = all_ok and chk.ok
            rows.append(chk)
    if args.out == "json":
        payload = [{"entry": c.entry, "check": c.label, "ok": c.ok,
                    "got": c.got, "want": c.want} for c in rows]
        print(json.dumps({"schema_version": SCHEMA_VERSION, "checks": payload,
                          "all_ok": all_ok}, indent=2))
    elif args.out == "csv":
        records = []
        seen = set()
        for c in rows:
            if c.result is None or id(c.result) in seen:
                continue
            seen.add(id(c.result))
            records.append(dict(result_record(c.result, {}), name=c.entry))
        _emit_records(records, "csv")
    else:
        for c in rows:
            mark = "ok  " if c.ok else "DIFF"
            line = f"[{mark}] {c.entry:12s} {c.label}"
            if not c.ok:
                line += f"\n       got:  {c.got}\n       want: {c.want}"
            print(line)
        print(f"{sum(1 for c in rows if c.ok)}/{len(rows)} checks match")
    _print_timing(args, t0)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nice-einstein",
        description="Diagonal and sigma-diagonal Einstein metrics on nice "
                    "nilpotent Lie algebras, decided exactly and verified by "
                    "an independent curvature oracle.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, named=True):
        p.add_argument("input", help="structure string, catalog name, or @file")
        if named:
            p.add_argument("--name", help="label printed for the input, in place of "
                                          "its catalog name")
        p.add_argument("--param", action="append", metavar="NAME=RAT",
                       help="substitute a family parameter (once per NAME)")

    p = sub.add_parser("validate", help="check the nice axioms and the Jacobi identity")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("info", help="root matrix, kernels, automorphisms, fundamental domain")
    add_common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("einstein", help="decide existence of Ric = (k/2) id metrics")
    add_common(p)
    p.add_argument("--k", default="0", help="Einstein constant k (Ric = k/2 id)")
    p.add_argument("--mode", choices=["diagonal", "sigma"], default="diagonal")
    p.add_argument("--sigma", help='diagram involution in cycle notation, e.g. "(23)(45)"')
    p.add_argument("--solve-param", dest="solve_param", metavar="NAME",
                   help="solve for the named family parameter instead of fixing it")
    p.add_argument("--out", choices=["text", "json", "csv"], default="text")
    p.add_argument("--tol", default=str(DEFAULT_TOL),
                   help="verification tolerance for numeric certificates")
    p.add_argument("--timings", action="store_true", help="print elapsed time to stderr")
    p.set_defaults(func=cmd_einstein)

    p = sub.add_parser("verify", help="oracle-check Ric = lambda id for a given metric")
    add_common(p, named=False)
    p.add_argument("--metric", required=True,
                   help='diagonal entries "g1,g2,..." or matrix rows "a,b;c,d"')
    p.add_argument("--sigma", help="interpret the vector as a sigma-diagonal metric")
    p.add_argument("--lambda", dest="lam", default="0", help="target eigenvalue of the Ricci operator")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curvature", help="curvature norms, scalar curvature, ad-invariance")
    add_common(p, named=False)
    p.add_argument("--metric", required=True)
    p.add_argument("--sigma", help="interpret the vector as a sigma-diagonal metric")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("catalog", help="re-run the shipped catalog against its expected results")
    actions = p.add_subparsers(dest="action", required=True)
    run = actions.add_parser("run", help="re-run the entries and compare")
    listing = actions.add_parser("list", help="names and structure strings")
    for p in (run, listing):
        p.add_argument("--filter", help='glob on names, e.g. "7*"')
        p.set_defaults(func=cmd_catalog)
    run.add_argument("--out", choices=["text", "json", "csv"], default="text")
    run.add_argument("--timings", action="store_true")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:   # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
