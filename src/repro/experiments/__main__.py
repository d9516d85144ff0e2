"""Command-line figure regeneration.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig11
    python -m repro.experiments fig12 --day 2400 --seed 3
    python -m repro.experiments chaos --workers 4
    python -m repro.experiments fleet --services 100 --workers 4
    python -m repro.experiments all          # everything (slow)

Each target prints the regenerated table; heavy diurnal runs are cached
within one invocation, so ``all`` shares work across figures.  Sweeps
additionally fan out over ``--workers`` processes and memoize finished
runs in the content-addressed cache under ``--cache`` (default
``.repro_cache/``; ``--no-cache`` turns it off), so re-running a target
— or resuming an interrupted ``all`` — replays cached runs instead of
recomputing them.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.experiments import executor
from repro.experiments import figures as F
from repro.experiments import ablations as A
from repro.experiments.cache import CACHE_ENV_VAR, DEFAULT_CACHE_ROOT, RunCache


def _portfolio(**kw):
    from repro.experiments.portfolio import portfolio_figure

    return portfolio_figure(**kw)


def _chaos(**kw):
    from repro.experiments.chaos import chaos_sweep

    return chaos_sweep(**kw)


def _overload(**kw):
    from repro.experiments.overload import overload_sweep

    return overload_sweep(**kw)


def _fleet(**kw):
    from repro.experiments.fleet import fleet_sweep

    return fleet_sweep(**kw)


def _dag(**kw):
    from repro.experiments.dag import dag_sweep

    return dag_sweep(**kw)


def _spot(**kw):
    from repro.experiments.spot import spot_sweep

    return spot_sweep(**kw)

#: target name -> (callable, accepts day/seed kwargs)
TARGETS = {
    "table2": (lambda **kw: F.table2_setup(), False),
    "table3": (lambda **kw: F.table3_benchmarks(), False),
    "fig2": (F.fig2_iaas_utilization, True),
    "fig3": (lambda **kw: F.fig3_peak_loads(seed=kw.get("seed", 0)), False),
    "fig4": (lambda **kw: F.fig4_latency_breakdown(seed=kw.get("seed", 0)), False),
    "fig8": (lambda **kw: F.fig8_meter_curves(seed=kw.get("seed", 7)), False),
    "fig9": (lambda **kw: F.fig9_latency_surfaces(seed=kw.get("seed", 11)), False),
    "fig10": (F.fig10_latency_cdf, True),
    "fig11": (F.fig11_resource_usage, True),
    "fig12": (F.fig12_switch_timeline, True),
    "fig13": (F.fig13_usage_timeline, True),
    "fig14": (F.fig14_nom_ablation, True),
    "fig15": (F.fig15_discriminant_error, True),
    "fig16": (F.fig16_nop_violations, True),
    "sec7e": (F.sec7e_meter_overhead, True),
    "cost": (F.cost_comparison, True),
    "portfolio": (_portfolio, True),
    "abl-guard": (A.ablate_guard, True),
    "abl-period": (A.ablate_sample_period, True),
    "abl-discriminant": (A.ablate_discriminant, True),
    "abl-keepalive": (A.ablate_keep_alive, True),
    "chaos": (_chaos, True),
    "overload": (_overload, True),
    "fleet": (_fleet, True),
    "dag": (_dag, True),
    "spot": (_spot, True),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="regenerate the paper's tables and figures",
    )
    parser.add_argument("target", help="figure id, 'list', or 'all'")
    parser.add_argument("--day", type=float, default=None,
                        help="compressed-day length in simulated seconds "
                        f"(default {F.FIG_DAY:g}; fleet defaults to its own "
                        "shorter day)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--services", type=int, default=100,
                        help="fleet size (fleet target only)")
    parser.add_argument("--depth", type=int, default=None,
                        help="single chain depth instead of the default "
                        "ablation depths (dag target only)")
    parser.add_argument("--daily-queries", type=float, default=5_000_000.0,
                        help="aggregate fleet volume, queries/day (fleet "
                        "target only)")
    parser.add_argument("--export", metavar="DIR", default=None,
                        help="also write <target>.csv and <target>.json to DIR")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width for sweep fan-out "
                        "(default: $REPRO_WORKERS, else serial)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help=f"run-cache directory (default {DEFAULT_CACHE_ROOT}/)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk run cache")
    args = parser.parse_args(argv)
    if args.day is not None and not args.day > 0.0:
        parser.error(f"--day must be a positive number of seconds, got {args.day:g}")

    if args.no_cache:
        cache = None
    elif args.cache is not None:
        cache = RunCache(Path(args.cache))
    elif CACHE_ENV_VAR in os.environ:
        cache = RunCache.from_env()  # the env can also turn the cache off
    else:
        cache = RunCache()
    executor.configure(workers=args.workers, cache=cache)

    if args.target == "list":
        for name in TARGETS:
            print(name)
        return 0

    names = list(TARGETS) if args.target == "all" else [args.target]
    unknown = [n for n in names if n not in TARGETS]
    if unknown:
        print(f"unknown target(s) {unknown}; try 'list'", file=sys.stderr)
        return 2

    for name in names:
        fn, takes_day = TARGETS[name]
        t0 = time.time()
        kwargs = {"seed": args.seed}
        if takes_day:
            if args.day is not None:
                kwargs["day"] = args.day
            elif name not in ("fleet", "dag", "spot"):
                kwargs["day"] = F.FIG_DAY
            # fleet/dag/spot without --day use their own shorter defaults
        if name == "fleet":
            kwargs["services"] = args.services
            kwargs["daily_queries"] = args.daily_queries
        if name == "dag" and args.depth is not None:
            kwargs["depths"] = (args.depth,)
        result = fn(**kwargs)
        print(result.text())
        if args.export:
            from repro.experiments.export import figure_to_csv, figure_to_json

            out = Path(args.export)
            out.mkdir(parents=True, exist_ok=True)
            figure_to_csv(result, out / f"{name}.csv")
            figure_to_json(result, out / f"{name}.json")
            print(f"[exported to {out / name}.{{csv,json}}]")
        print(f"[{name}: {time.time() - t0:.1f}s]\n")
    if cache is not None:
        print(f"[run cache {cache.root}: {cache.hits} hits, {cache.stores} stores]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
