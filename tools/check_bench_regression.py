#!/usr/bin/env python3
"""Host-throughput regression gate.

Compares a freshly measured bench JSON against the committed baseline and
fails when the simulator (or the serving layer) got meaningfully slower on
the same workloads. Dispatches on the fresh JSON's "bench" tag:

host_throughput (default when untagged, baseline
BENCH_host_throughput.json):
  * any kernel's sim_cycles_per_sec drops by more than the threshold
    (default 20%) vs the baseline;
  * the stencil sweep's simulated_cycles_per_sec drops likewise;
  * a baseline kernel disappeared from the fresh run.

serve_throughput (baseline BENCH_serve_throughput.json):
  * each phase's sustained reports/sec (cold, warm_build, warm_full) must
    stay within the threshold of the committed baseline;
  * the report cache must still pay: warm_full reports/sec above cold;
  * the cache counters must prove the claim: every warm_build request a
    build-cache hit (build + predecode skipped), every warm_full
    response served from the report cache.

Being faster (or a new kernel appearing) never fails. Sanitizer builds are
skipped outright: the fresh JSON's host metadata records the SCH_SANITIZE
state, and ASan/UBSan throughput says nothing about release throughput.

Usage:
  check_bench_regression.py FRESH.json [BASELINE.json] [--max-drop 0.20]

Exit codes: 0 pass/skip, 1 regression, 2 bad input.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_bench_regression: cannot read {path}: {e}")
        sys.exit(2)


def check_serve_throughput(fresh, baseline, max_drop):
    """Gate the serving-layer bench: per-phase throughput floors, the
    report cache beating the uncached path, and exact cache counters."""
    floor = 1.0 - max_drop
    failures = []

    phases = fresh.get("phases", {})
    requests = fresh.get("requests", 0)
    warm_build = phases.get("warm_build", {})
    warm_full = phases.get("warm_full", {})
    cold = phases.get("cold", {})
    if not (cold and warm_build and warm_full and requests):
        print("check_bench_regression: fresh serve_throughput JSON is missing "
              "phases/requests")
        return 2

    base_phases = baseline.get("phases", {})
    for name in ("cold", "warm_build", "warm_full"):
        got = phases[name].get("reports_per_sec", 0.0)
        want = base_phases.get(name, {}).get("reports_per_sec", 0.0)
        ratio = got / want if want else float("inf")
        status = "ok" if ratio >= floor else "REGRESSION"
        label = f"{name}_reports/sec"
        print(f"  {label:24s} {got:>12,.0f} vs {want:>12,.0f} "
              f"({ratio:6.2f}x) {status}")
        if ratio < floor:
            failures.append(f"{name} reports/sec {got:,.0f} is "
                            f"{(1 - ratio) * 100:.0f}% below baseline "
                            f"{want:,.0f} (tolerated: {max_drop * 100:.0f}%)")

    cold_rps = cold.get("reports_per_sec", 0.0)
    warm_rps = warm_full.get("reports_per_sec", 0.0)
    status = "ok" if warm_rps > cold_rps else "REGRESSION"
    print(f"  {'warm_full_vs_cold':24s} {warm_rps:>12,.0f} vs "
          f"{cold_rps:>12,.0f} (must be above) {status}")
    if warm_rps <= cold_rps:
        failures.append(f"warm_full reports/sec {warm_rps:,.0f} does not "
                        f"beat cold {cold_rps:,.0f}: the report cache no "
                        f"longer pays")

    build_hits = warm_build.get("build", {}).get("hits", 0)
    build_misses = warm_build.get("build", {}).get("misses", -1)
    if build_hits != requests or build_misses != 0:
        failures.append(f"warm_build counters do not prove build/predecode "
                        f"skipped: {build_hits}/{requests} hits, "
                        f"{build_misses} misses")
    cached = warm_full.get("cached", 0)
    if cached != requests:
        failures.append(f"warm_full served only {cached}/{requests} responses "
                        f"from the report cache")

    if failures:
        print(f"\ncheck_bench_regression: FAIL ({len(failures)} regression(s))")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\ncheck_bench_regression: OK (serve throughput within "
          f"{max_drop * 100:.0f}% of baseline per phase, warm_full > cold)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly measured bench JSON")
    parser.add_argument("baseline", nargs="?", default=None,
                        help="committed baseline (default: matches the fresh "
                             "JSON's bench tag)")
    parser.add_argument("--max-drop", type=float, default=0.20,
                        help="tolerated fractional throughput drop "
                             "(default: %(default)s)")
    args = parser.parse_args()

    fresh = load(args.fresh)
    bench = fresh.get("bench", "host_throughput")
    if args.baseline is None:
        args.baseline = f"BENCH_{bench}.json"
    baseline = load(args.baseline)

    host = fresh.get("host", {})
    if host.get("sanitize"):
        print(f"check_bench_regression: SKIP -- fresh run was a sanitizer "
              f"build (SCH_SANITIZE={host['sanitize']!r}); throughput not "
              f"comparable to the release baseline")
        return 0
    if host.get("optimized") is False:
        print("check_bench_regression: SKIP -- fresh run was an unoptimized "
              "build; throughput not comparable to the release baseline")
        return 0

    if bench == "serve_throughput":
        return check_serve_throughput(fresh, baseline, args.max_drop)

    floor = 1.0 - args.max_drop
    failures = []
    checked = 0

    base_kernels = {k["name"]: k for k in baseline.get("kernels", [])}
    fresh_kernels = {k["name"]: k for k in fresh.get("kernels", [])}
    for name, base in sorted(base_kernels.items()):
        if name not in fresh_kernels:
            failures.append(f"{name}: present in baseline but missing from "
                            f"the fresh run")
            continue
        got = fresh_kernels[name]["sim_cycles_per_sec"]
        want = base["sim_cycles_per_sec"]
        ratio = got / want if want else float("inf")
        status = "ok" if ratio >= floor else "REGRESSION"
        print(f"  {name:24s} {got:>12,.0f} cyc/s vs {want:>12,.0f} "
              f"({ratio:6.2f}x) {status}")
        checked += 1
        if ratio < floor:
            failures.append(f"{name}: sim cycles/sec {got:,.0f} is "
                            f"{(1 - ratio) * 100:.0f}% below baseline "
                            f"{want:,.0f} (tolerated: "
                            f"{args.max_drop * 100:.0f}%)")

    base_sweep = baseline.get("stencil_sweep", {})
    fresh_sweep = fresh.get("stencil_sweep", {})
    if base_sweep and fresh_sweep:
        got = fresh_sweep["simulated_cycles_per_sec"]
        want = base_sweep["simulated_cycles_per_sec"]
        ratio = got / want if want else float("inf")
        status = "ok" if ratio >= floor else "REGRESSION"
        print(f"  {'stencil_sweep':24s} {got:>12,.0f} cyc/s vs {want:>12,.0f} "
              f"({ratio:6.2f}x) {status}")
        checked += 1
        if ratio < floor:
            failures.append(f"stencil_sweep: simulated cycles/sec {got:,.0f} "
                            f"is {(1 - ratio) * 100:.0f}% below baseline "
                            f"{want:,.0f}")

    if checked == 0:
        print("check_bench_regression: no comparable entries found")
        return 2
    if failures:
        print(f"\ncheck_bench_regression: FAIL ({len(failures)} regression(s))")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\ncheck_bench_regression: OK ({checked} entries within "
          f"{args.max_drop * 100:.0f}% of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
