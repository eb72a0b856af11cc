#!/usr/bin/env python3
"""Benchmark of the nice-einstein library: three workloads, one process.

    python3 perfbench/run.py --workload catalog-nonlinear --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Each workload is a closed loop with one client: the next item starts when
the previous one has completed.  Whole passes over the workload's items run
until the next pass would end after --seconds (at least MIN_PASSES passes).
Every output is checked; a failing check makes the run incorrect and the
exit code 1.

With --trace 0 the run reports the end-to-end metrics, untraced, with every
time at a nominal host speed (see speed.py).  With --trace 1 each pass runs
untraced and then traced, and the run reports per-layer calls, self time
(raw) and counts per traced pass, plus the tracing overhead at nominal
speed.  The last line of stdout is the result as one JSON object; the line before
it records the run's provenance and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from inputs import (Tally, catalog_records, check_catalog_item, check_oracle_item,  # noqa: E402
                    oracle_items, oracle_specs, rescaled_records)
from spans import Tracer, self_times, LAYERS, ROOTS  # noqa: E402
from speed import SpeedProbe  # noqa: E402

WORKLOADS = ("catalog-nonlinear", "catalog-certify", "oracle-verify")
MIN_PASSES = 2
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60


@dataclass
class Workload:
    make_inputs: object     # pass number -> items
    run: object             # item -> library output
    check: object           # (item, output, errors) -> Tally
    root: str               # span name of one item
    first: list             # pass 0's items, built during set-up


def setup(name: str, seed: int) -> Workload:
    """Import the library, build pass 0's inputs and finish lazy imports."""
    sys.path.insert(0, str(ROOT / "src"))
    import nice_einstein.catalog as catalog
    import nice_einstein.curvature as curvature
    import nice_einstein.einstein as einstein

    import numpy
    import sympy

    # The library imports these on first use; pay that here, not in item 1.
    sympy.real_roots(sympy.Poly([1, 0, -2], sympy.Symbol("x")))
    numpy.linalg.lstsq(numpy.eye(2), numpy.ones(2), rcond=None)
    numpy.random.default_rng(0).normal(size=2)

    entries = catalog.load_catalog()
    if name == "oracle-verify":
        by_name = {e.name: e for e in entries}
        parsed = {}

        def algebra(spec):
            key = (spec.entry, tuple(sorted(spec.params.items())))
            if key not in parsed:
                parsed[key] = by_name[spec.entry].algebra(
                    {k: Fraction(v) for k, v in spec.params.items()})
            return parsed[key]

        algebras = [(spec, algebra(spec)) for spec in oracle_specs(entries)]

        def make_oracle_inputs(p):
            return oracle_items(algebras, seed, p)

        def verify(item):
            # The library path of the `verify` command.
            brackets = curvature.LieBrackets.from_nice(item.algebra)
            return brackets, curvature.ricci_tensor(brackets, item.gram)

        def check_verify(item, out, errors):
            brackets, (ric, op) = out
            if item.spec.kind == "sigma":
                want = einstein.ricci_sigma(item.algebra, item.spec.sigma, item.g)
            elif item.g is not None:
                want = einstein.ricci_diagonal(item.algebra, item.g)
            else:
                want = None
            return check_oracle_item(item, brackets.c, ric, op, want,
                                     einstein.DEFAULT_TOL, errors)

        return Workload(make_oracle_inputs, verify, check_verify, "bench.verify_item",
                        make_oracle_inputs(0))

    records = catalog_records(entries, nonlinear=(name == "catalog-nonlinear"))

    def make_inputs(p):
        return rescaled_records(records, seed, p)

    def run(rec):
        entry = catalog.CatalogEntry(rec.entry, rec.structure, rec.params,
                                     {rec.mode: [rec.raw]})
        return catalog.run_entry(entry, einstein.DEFAULT_TOL)

    def check(rec, out, errors):
        return check_catalog_item(out, errors)

    return Workload(make_inputs, run, check, "catalog.run_entry", make_inputs(0))


def run_pass(wl: Workload, items, errors: list, tracer=None, probe=None):
    """One pass; returns (wall seconds incl. checks, item spans, tally).

    Each item span is (start, end, seconds), where seconds leaves out the
    time the speed probe took inside the item.
    """
    spans = []
    tally = Tally()
    span = tracer.span if tracer else (lambda name: nullcontext())
    busy = (lambda: probe.busy_s) if probe else (lambda: 0.0)
    t_pass = time.perf_counter()
    for rec in items:
        b0 = busy()
        t0 = time.perf_counter()
        try:
            with span(wl.root):
                out = wl.run(rec)
        except Exception as exc:  # a raising item is a failed check, not a crash
            out = None
            tally.add(Tally(checks=1, failed=1))
            errors.append(f"{rec.key}: raised {exc!r}")
        t1 = time.perf_counter()
        spans.append((t0, t1, t1 - t0 - (busy() - b0)))
        if out is not None:
            with span("bench.check"):
                tally.add(wl.check(rec, out, errors))
    return time.perf_counter() - t_pass, spans, tally


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it.

    statistics.quantiles(method="inclusive") puts percentile q at position
    q (n - 1) / 100 of the sorted samples.
    """
    return max(q for q in range(1, 100) if n - 1 - q * (n - 1) // 100 >= 10)


def timed_setup(workload: str, seed: int):
    """(workload, set-up seconds at nominal speed, raw set-up seconds)."""
    probe = SpeedProbe()
    with probe.running():
        b0 = probe.busy_s
        t0 = time.perf_counter()
        wl = setup(workload, seed)
        t1 = time.perf_counter()
        raw = t1 - t0 - (probe.busy_s - b0)
    return wl, raw * probe.scale(t0, t1), raw


def child_setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds (nominal, raw) of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    nominal, raw = proc.stdout.strip().splitlines()[-1].split()
    return float(nominal), float(raw)


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(traced_spans, counts, passes: int) -> dict:
    """Per traced pass: calls and self time of every layer, plus counts."""
    totals = self_times(traced_spans)
    out = {}
    for layer in list(LAYERS) + list(ROOTS):
        calls, self_s = totals.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = metric(calls / passes, "count")
        out[f"{layer}.self_s"] = metric(self_s / passes, "s")
    p_calls = totals.get("solver.decide_condition_p", (0, 0))[0]
    r_calls = totals.get("einstein.recover_metric", (0, 0))[0]
    out["solver.decide_condition_p.exact_share"] = metric(
        counts["solver.decide_condition_p.exact"] / p_calls if p_calls else 0.0, "ratio")
    out["solver.feasible_orthants.orthants"] = metric(
        counts["solver.feasible_orthants.orthants"] / passes, "count")
    out["einstein.recover_metric.exact_share"] = metric(
        counts["einstein.recover_metric.exact"] / r_calls if r_calls else 0.0, "ratio")
    return out


def measure(wl: Workload, seconds: float, trace: bool, probe=None):
    """Whole passes until the next one would end after `seconds`.

    When tracing, each pass's inputs run untraced and then traced, so the
    difference of the two is the tracing overhead on the same inputs.
    per_pass holds each untraced pass's item spans.
    """
    errors: list = []
    tally = Tally()
    untraced, traced, per_pass, walls = [], [], [], []
    tracer = Tracer()
    t_run = time.perf_counter()
    p = 0
    while True:
        items = wl.first if p == 0 else wl.make_inputs(p)
        wall, spans, t = run_pass(wl, items, errors, probe=probe)
        untraced.append(sum(s for _, _, s in spans))
        per_pass.append(spans)
        tally.add(t)
        if trace:
            with tracer.instrumented():
                traced_wall, traced_spans, t = run_pass(wl, items, errors, tracer, probe)
            traced.append((traced_spans, traced_wall))
            tally.add(t)
            wall += traced_wall
        walls.append(wall)
        p += 1
        elapsed = time.perf_counter() - t_run
        if p >= (1 if trace else MIN_PASSES) and elapsed + statistics.median(walls) > seconds:
            break
    return dict(errors=errors, tally=tally, untraced=untraced, traced=traced,
                per_pass=per_pass, tracer=tracer, passes=p, items=len(wl.first))


def run_all(args) -> int:
    """Run each workload in its own process and print its metrics."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"] and proc.returncode == 0
        print(f"{name}: correct={res['correct']} checks={res['attempted']} "
              f"failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print its nominal and raw seconds")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nice_einstein" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        _, nominal, raw = timed_setup(args.workload, args.seed)
        print(nominal, raw)
        return 0

    wl, nominal, raw = timed_setup(args.workload, args.seed)
    setups = [(nominal, raw)] + [child_setup_seconds(args.workload, args.seed)
                                 for _ in range(SETUP_RUNS - 1)]

    probe = SpeedProbe()
    with probe.running():
        r = measure(wl, args.seconds, bool(args.trace), probe)
    tally = r["tally"]

    def nominal(spans):
        """Each item's time at nominal host speed."""
        return [s * probe.scale(t0, t1) for t0, t1, s in spans]

    per_pass = [nominal(spans) for spans in r["per_pass"]]
    samples = [x for times in per_pass for x in times]
    # Each item's median over the passes.  The tail is taken over these at
    # the highest percentile that leaves ten item samples beyond it when
    # every item has run MIN_PASSES times, so the percentile and the items
    # it falls between do not depend on how many passes the run made.
    per_item = [statistics.median(reps) for reps in zip(*per_pass)]
    q = tail_percentile(r["items"] * MIN_PASSES)
    tail = statistics.quantiles(per_item, n=100, method="inclusive")[q - 1]
    if args.trace:
        tracer = r["tracer"]
        metrics = layer_metrics(tracer.spans, tracer.counts, len(r["traced"]))
        traced_sums = [sum(nominal(spans)) for spans, _ in r["traced"]]
        traced_wall = sum(w for _, w in r["traced"])
        accounted = sum(s for _, s in self_times(tracer.spans).values())
        metrics["bench.pass_s"] = metric(statistics.median(traced_sums), "s")
        metrics["bench.trace_overhead_s"] = metric(statistics.median(
            t - sum(u) for t, u in zip(traced_sums, per_pass)), "s")
        metrics["bench.unattributed_share"] = metric(
            (traced_wall - accounted) / traced_wall, "ratio")
    else:
        metrics = {
            "setup_s": metric(statistics.median(n for n, _ in setups), "s"),
            "pass_s": metric(sum(per_item), "s"),
            "item_p50_ms": metric(statistics.median(samples) * 1e3, "ms"),
            "item_tail_ms": metric(tail * 1e3, "ms"),
            "exact_result_share": metric(tally.exact_results / max(1, tally.results), "ratio"),
            "exact_cert_share": metric(tally.exact_certs / max(1, tally.certs), "ratio"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "passes": r["passes"], "items_per_pass": r["items"],
        "pass_samples_raw": [round(x, 6) for x in r["untraced"]],
        "item_samples": len(samples), "tail_percentile": q,
        "tail_samples_beyond": sum(1 for x in samples if x > tail),
        "setup_samples": [round(n, 6) for n, _ in setups],
        "setup_samples_raw": [round(x, 6) for _, x in setups],
        "pass_samples_nominal": [round(sum(times), 6) for times in per_pass],
        "probe_samples": len(probe.times),
        "probe_ref_median_ms": statistics.median(probe.times) * 1e3,
        "probe_busy_s": probe.busy_s,
        "checks": tally.checks, "checks_failed": tally.failed,
        "check_fail_share": tally.failed / max(1, tally.checks),
        "results": tally.results, "exact_results": tally.exact_results,
        "certs": tally.certs, "exact_certs": tally.exact_certs,
        "trace_missing_sites": r["tracer"].missing, "errors": r["errors"][:20],
    }
    correct = tally.failed == 0 and tally.checks > 0
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": tally.checks,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
