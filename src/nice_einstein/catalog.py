"""Shipped algebra catalog and the regression runner behind `catalog run`."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from .algebra import AlgebraFamily, NiceLieAlgebra, parse_family
from .diagram import parse_permutation
from .einstein import (
    ClassificationResult,
    diagonal_einstein,
    format_delta,
    parameter_solve,
    sigma_einstein,
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    structure: str
    params: dict
    expected: dict

    def family(self) -> AlgebraFamily:
        return parse_family(self.structure, name=self.name)

    def algebra(self, values: Optional[dict] = None) -> NiceLieAlgebra:
        return self.family().substitute(values or {})


def load_catalog() -> list[CatalogEntry]:
    text = resources.files("nice_einstein").joinpath("data/catalog.json").read_text()
    raw = json.loads(text)
    return [
        CatalogEntry(e["name"], e["structure"], e.get("params", {}),
                     e.get("expected", {}))
        for e in raw["entries"]
    ]


def find_entry(name: str) -> Optional[CatalogEntry]:
    for e in load_catalog():
        if e.name == name:
            return e
    return None


@dataclass
class CheckOutcome:
    entry: str
    label: str
    ok: bool
    got: str
    want: str
    result: Optional[ClassificationResult] = None


def _result_summary(res: ClassificationResult) -> str:
    if res.success:
        return "metrics"
    return f"fails:{res.failed_at}"


def _check_record(entry: CatalogEntry, mode: str, rec: dict, tol: float) -> list[CheckOutcome]:
    out = []
    params = {k: Fraction(v) for k, v in rec.get("param", {}).items()}
    k = Fraction(rec.get("k", "0"))
    label = f"{mode} k={k}"
    if params:
        label += " " + ",".join(f"{n}={v}" for n, v in sorted(params.items()))
    if rec.get("sigma"):
        label += f" sigma={rec['sigma']}"

    fam = entry.family()
    res = None
    if rec.get("solve_param"):
        pname = rec["solve_param"]
        others = {n: v for n, v in params.items() if n != pname}
        solved = parameter_solve(
            fam.partial(others) if others else fam,
            (parse_permutation(rec["sigma"], fam.n) if rec.get("sigma") else None),
            k, tol)
        want = [str(Fraction(s)) for s in rec.get("solutions", [])]
        got = [str(v) for v, _ in solved]
        out.append(CheckOutcome(entry.name, label + f" solve {pname}",
                                got == want, "{" + ",".join(got) + "}",
                                "{" + ",".join(want) + "}"))
        # The record's own value, when confirmed, was classified by the solve.
        res = next((r for v, r in solved if v == params.get(pname)), None)

    if res is None:
        alg = fam.substitute(params)
        if mode == "diagonal":
            res = diagonal_einstein(alg, k, tol)
        else:
            res = sigma_einstein(alg, parse_permutation(rec["sigma"], alg.n), k, tol)

    want_outcome = rec["outcome"] if rec["outcome"] != "fails" else f"fails:{rec['failed_at']}"
    got_outcome = _result_summary(res)
    out.append(CheckOutcome(entry.name, label, got_outcome == want_outcome,
                            got_outcome, want_outcome, res))

    if rec.get("half_S") is not None and res.success and res.signatures.half_S is not None:
        got = [format_delta(d) for d in res.signatures.half_S]
        want = list(rec["half_S"])
        out.append(CheckOutcome(entry.name, label + " half_S",
                                got == want,
                                "{" + ",".join(got) + "}",
                                "{" + ",".join(want) + "}", res))
    if rec.get("signatures") is not None and res.success:
        got_sets = res.signatures.signature_sets()
        for pq_text, want_list in rec["signatures"].items():
            p, q = (int(x) for x in pq_text.split(","))
            got = got_sets.get((p, q), [])
            out.append(CheckOutcome(entry.name, label + f" S({p},{q})",
                                    got == list(want_list),
                                    "{" + ",".join(got) + "}",
                                    "{" + ",".join(want_list) + "}", res))
    return out


def run_entry(entry: CatalogEntry, tol: float) -> list[CheckOutcome]:
    out = []
    for rec in entry.expected.get("diagonal", []):
        out.extend(_check_record(entry, "diagonal", rec, tol))
    for rec in entry.expected.get("sigma", []):
        out.extend(_check_record(entry, "sigma", rec, tol))
    return out
