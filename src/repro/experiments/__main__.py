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
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.experiments import ablations as A
from repro.experiments import executor
from repro.experiments import figures as F
from repro.experiments.cache import CACHE_ENV_VAR, DEFAULT_CACHE_ROOT, RunCache
from repro.experiments.chaos import chaos_sweep
from repro.experiments.dag import DAG_DAY, dag_sweep
from repro.experiments.fleet import FLEET_DAY, fleet_sweep
from repro.experiments.overload import overload_sweep
from repro.experiments.portfolio import portfolio_figure
from repro.experiments.report import FigureResult
from repro.experiments.spot import SPOT_DAY, spot_sweep


class Target(NamedTuple):
    """One CLI target and the command-line options it receives."""

    fn: Callable[..., FigureResult]
    #: parsed options passed through as keyword arguments of ``fn``
    options: Tuple[str, ...] = ()
    #: the ``day`` passed when ``--day`` is not given
    day: Optional[float] = None


_DAY_SEED = ("day", "seed")
_SEED = ("seed",)

TARGETS: Dict[str, Target] = {
    "table2": Target(F.table2_setup),
    "table3": Target(F.table3_benchmarks),
    "fig2": Target(F.fig2_iaas_utilization, _DAY_SEED, F.FIG_DAY),
    "fig3": Target(F.fig3_peak_loads, _SEED),
    "fig4": Target(F.fig4_latency_breakdown, _SEED),
    "fig8": Target(F.fig8_meter_curves, _SEED),
    "fig9": Target(F.fig9_latency_surfaces, _SEED),
    "fig10": Target(F.fig10_latency_cdf, _DAY_SEED, F.FIG_DAY),
    "fig11": Target(F.fig11_resource_usage, _DAY_SEED, F.FIG_DAY),
    "fig12": Target(F.fig12_switch_timeline, _DAY_SEED, F.FIG_DAY),
    "fig13": Target(F.fig13_usage_timeline, _DAY_SEED, F.FIG_DAY),
    "fig14": Target(F.fig14_nom_ablation, _DAY_SEED, F.FIG_DAY),
    "fig15": Target(F.fig15_discriminant_error, _DAY_SEED, F.FIG_DAY),
    "fig16": Target(F.fig16_nop_violations, _DAY_SEED, F.FIG_DAY),
    "sec7e": Target(F.sec7e_meter_overhead, _DAY_SEED, F.FIG_DAY),
    "cost": Target(F.cost_comparison, _DAY_SEED, F.FIG_DAY),
    "portfolio": Target(portfolio_figure, _DAY_SEED, F.FIG_DAY),
    "abl-guard": Target(A.ablate_guard, _DAY_SEED, F.FIG_DAY),
    "abl-period": Target(A.ablate_sample_period, _DAY_SEED, F.FIG_DAY),
    "abl-discriminant": Target(A.ablate_discriminant, _DAY_SEED, F.FIG_DAY),
    "abl-keepalive": Target(A.ablate_keep_alive, _DAY_SEED, F.FIG_DAY),
    "chaos": Target(chaos_sweep, _DAY_SEED, F.FIG_DAY),
    "overload": Target(overload_sweep, _DAY_SEED, F.FIG_DAY),
    "fleet": Target(fleet_sweep, _DAY_SEED + ("services", "daily_queries"), FLEET_DAY),
    "dag": Target(dag_sweep, _DAY_SEED + ("depths",), DAG_DAY),
    "spot": Target(spot_sweep, _DAY_SEED, SPOT_DAY),
}


def chain_depth(text: str) -> Tuple[int, ...]:
    """``--depth N``: the dag sweep's ``depths`` holding the one depth N."""
    return (int(text),)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="regenerate the paper's tables and figures",
    )
    parser.add_argument("target", help="figure id, 'list', or 'all'")
    parser.add_argument("--day", type=float, default=None,
                        help="compressed-day length in simulated seconds "
                        f"(default {F.FIG_DAY:g}; fleet, dag and spot default "
                        "to their own shorter days)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--services", type=int, default=100,
                        help="fleet size (fleet target only)")
    parser.add_argument("--depth", dest="depths", type=chain_depth, default=None,
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
        target = TARGETS[name]
        t0 = time.time()
        values = dict(vars(args), day=args.day if args.day is not None else target.day)
        result = target.fn(**{k: values[k] for k in target.options if values[k] is not None})
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
