#!/usr/bin/env python
"""Compare a pytest-benchmark JSON run against a checked-in baseline.

Used by the CI ``benchmarks`` job: the job runs the benchmark suite with
``--benchmark-json=bench-results.json``, uploads the JSON as an artifact,
and then fails if any benchmark's median regressed more than the tolerance
against the committed baseline (``BENCH_engine.json``).

Usage::

    python scripts/compare_bench.py --baseline BENCH_engine.json \
        --current bench-results.json [--tolerance 0.20]

Benchmarks present only in the current run are reported as NEW and never
fail (new benchmark groups land before their baseline is refreshed).
Benchmarks present only in the *baseline* mean coverage disappeared and
fail the comparison unless ``--allow-missing`` is passed.  CI passes the
flag because its benchmark step is advisory (``continue-on-error``:
timing assertions flake on shared runners), so a partially recorded JSON
is expected there; run strict locally and when refreshing baselines.
``--group NAME`` (repeatable) restricts the comparison to benchmarks
carrying that pytest-benchmark group (``@pytest.mark.benchmark(group=...)``;
ungrouped benchmarks match the pseudo-group ``default``).

A baseline file that does not exist at all exits with the distinct code
:data:`MISSING_BASELINE_EXIT` (2) so callers can tell "no baseline yet"
from "regression found" (1); produce one with the ``baseline-refresh``
workflow (Actions → baseline-refresh → Run workflow, or the weekly cron)
and commit the uploaded artifact, or record locally with::

    PYTHONPATH=src python -m pytest benchmarks \
        --benchmark-json=BENCH_engine.json

Only ``stats.median`` is read, so strip the per-round ``stats.data`` arrays
from a refreshed baseline before committing it::

    python -c "import json; p = 'BENCH_engine.json'; d = json.load(open(p)); [b['stats'].pop('data', None) for b in d['benchmarks']]; json.dump(d, open(p, 'w'), indent=2)"
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Exit code when the baseline JSON file is absent (distinct from the
#: regression exit code 1).
MISSING_BASELINE_EXIT = 2

#: Pseudo-group matched by benchmarks that carry no explicit group.
DEFAULT_GROUP = "default"


def load_run(path: str, groups=None) -> tuple:
    """Return ``(medians_by_name, core_count)`` for one benchmark JSON.

    Core count is the machine-class key: gating on exact CPU model would
    never arm on a hosted-runner fleet that mixes models run to run, while
    the parallel benchmarks are primarily sensitive to how many cores the
    runner exposes (the 20% tolerance absorbs same-class model variance).

    ``groups`` (a set of group names, or ``None`` for all) filters to
    benchmarks whose pytest-benchmark group is in the set; benchmarks
    without a group match :data:`DEFAULT_GROUP`.
    """
    with open(path) as handle:
        payload = json.load(handle)
    medians = {bench["name"]: bench["stats"]["median"]
               for bench in payload.get("benchmarks", [])
               if groups is None
               or (bench.get("group") or DEFAULT_GROUP) in groups}
    return medians, payload.get("machine_info", {}).get("cpu", {}).get("count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON (e.g. BENCH_engine.json)")
    parser.add_argument("--current", required=True,
                        help="freshly produced --benchmark-json output")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when a baseline benchmark is "
                             "missing from the current run (disappearing "
                             "coverage fails by default)")
    parser.add_argument("--ignore-machine", action="store_true",
                        help="gate even when the baseline was recorded on "
                             "different hardware (absolute wall-clock medians "
                             "are only comparable on the same machine class)")
    parser.add_argument("--group", action="append", dest="groups",
                        metavar="NAME",
                        help="compare only benchmarks in this pytest-benchmark "
                             "group (repeatable; ungrouped benchmarks match "
                             f"'{DEFAULT_GROUP}'; default: all groups)")
    args = parser.parse_args(argv)

    if not os.path.exists(args.baseline):
        print(f"baseline {args.baseline!r} does not exist — no regression "
              "gate is armed.  Produce one with the baseline-refresh "
              "workflow (Actions -> baseline-refresh -> Run workflow, or "
              "wait for the weekly cron), download its candidate artifact "
              "and commit it as the baseline.")
        return MISSING_BASELINE_EXIT
    groups = set(args.groups) if args.groups else None
    baseline, base_cores = load_run(args.baseline, groups)
    current, cur_cores = load_run(args.current, groups)
    if groups:
        print("comparing group(s): " + ", ".join(sorted(groups)))
    if not current:
        # an empty run means the suite failed before recording anything —
        # that must not read as "no regressions"
        print("no benchmarks in the current run"
              + (" (baseline has some: failing)" if baseline else ""))
        return 1 if baseline else 0
    if base_cores != cur_cores and not args.ignore_machine:
        print(f"baseline has {base_cores} core(s), current run has "
              f"{cur_cores}; wall-clock medians are not comparable across "
              "machine classes — reporting without gating (refresh the "
              "baseline on this machine class, or pass --ignore-machine "
              "to gate anyway)")
        for name in sorted(set(baseline) | set(current)):
            base, now = baseline.get(name), current.get(name)
            if base is not None and now is not None:
                print(f"INFO     {name}: baseline {base * 1e3:.3f}ms -> "
                      f"current {now * 1e3:.3f}ms ({now / base:.2f}x)")
            else:
                print(f"INFO     {name}: "
                      + ("no baseline" if base is None else "baseline only"))
        return 0

    failures = []
    missing = []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        now = current.get(name)
        if base is None:
            print(f"NEW      {name}: {now * 1e3:.3f}ms (no baseline)")
            continue
        if now is None:
            missing.append(name)
            print(f"MISSING  {name}: present in baseline only"
                  + ("" if args.allow_missing else " (failing; pass "
                     "--allow-missing to tolerate)"))
            continue
        ratio = now / base if base else float("inf")
        status = "OK"
        if ratio > 1.0 + args.tolerance:
            status = "REGRESSED"
            failures.append((name, ratio))
        print(f"{status:<9}{name}: baseline {base * 1e3:.3f}ms -> "
              f"current {now * 1e3:.3f}ms ({ratio:.2f}x)")

    if failures:
        worst = max(ratio for _, ratio in failures)
        print(f"\n{len(failures)} benchmark(s) regressed beyond "
              f"{args.tolerance:.0%} (worst {worst:.2f}x)")
        return 1
    if missing and not args.allow_missing:
        print(f"\n{len(missing)} baseline benchmark(s) missing from the "
              "current run; pass --allow-missing if this is expected")
        return 1
    print(f"\nall benchmarks within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
