"""Command-line front end: observation ingestion, model solving, benchmarks.

Exit codes: 0 on success, 1 when a solved model is inconsistent, 2 on usage
or input errors, an unwritable output path included.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .pbox import (
    DivisorStraddlesZero,
    empirical_cdf,
    envelope,
    load_observations_csv,
)
from .engine import FAILED, parse_model, solution_dict
from .inventory import DEFAULT_X_MAX, InventoryInstance, run_benchmark

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2


def _input_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _write_json(obj: dict, out: str | None) -> int:
    # Returns the exit code: an unwritable path is an input error.
    text = json.dumps(obj, indent=2)
    if out is None or out == "-":
        print(text)
        return EXIT_OK
    try:
        Path(out).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        return _input_error(f"cannot write {out}: {exc}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    try:
        obs = load_observations_csv(args.input)
    except OSError as exc:
        return _input_error(f"cannot read {args.input}: {exc}")
    except ValueError as exc:
        return _input_error(exc)
    domain = envelope(empirical_cdf(obs))
    code = _write_json(domain.to_dict(), args.out)
    if code != EXIT_OK:
        return code
    print(
        f"ingested {len(obs.entries)} quantiles, population m={obs.m}, "
        f"range [{domain.lo.q}, {domain.hi.q}], "
        f"slopes up={domain.lo.s:.6g} low={domain.hi.s:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            model = json.load(fh)
    except OSError as exc:
        return _input_error(f"cannot read {args.input}: {exc}")
    except json.JSONDecodeError as exc:
        return _input_error(f"malformed model JSON: {exc}")
    try:
        store, order = parse_model(model)
        store.propagate()
    except (ValueError, DivisorStraddlesZero) as exc:
        return _input_error(exc)
    code = _write_json(solution_dict(store, order), args.out)
    if code == EXIT_OK and store.status == FAILED:
        return EXIT_INCONSISTENT
    return code


def _parse_horizons(text: str) -> list[int]:
    horizons = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        value = int(part)
        if value < 1:
            raise ValueError(f"horizon must be >= 1, got {value}")
        horizons.append(value)
    if not horizons:
        raise ValueError("no horizons given")
    return horizons


def _emit_cycles_csv(report: dict, path: str) -> int:
    # Returns the exit code, as _write_json does.
    import csv as _csv

    rows = []
    for row in report["rows"]:
        best = row.get("best")
        if best is None:
            continue
        for t, cyc in enumerate(best["cycles"], start=1):
            rows.append(
                {
                    "horizon": row["horizon"],
                    "cycle": t,
                    "ordered": best["schedule"][t - 1],
                    "order_lo": cyc["order"]["lo"]["q"],
                    "order_hi": cyc["order"]["hi"]["q"],
                    "stock_lo": cyc["stock"]["lo"]["q"],
                    "stock_hi": cyc["stock"]["hi"]["q"],
                    "demand_lo": cyc["demand"]["lo"]["q"],
                    "demand_hi": cyc["demand"]["hi"]["q"],
                }
            )
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = _csv.DictWriter(fh, fieldnames=list(rows[0].keys()) if rows else [])
            if rows:
                writer.writeheader()
                writer.writerows(rows)
    except OSError as exc:
        return _input_error(f"cannot write {path}: {exc}")
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        horizons = _parse_horizons(args.horizons)
    except ValueError as exc:
        return _input_error(exc)
    instance = None
    seed = args.seed
    if args.input:
        try:
            instance = InventoryInstance.from_file(args.input)
        except (OSError, ValueError) as exc:
            return _input_error(f"cannot load instance {args.input}: {exc}")
        # A given instance is searched as it is: no horizon or seed of ours.
        horizons, seed = [instance.horizon], None
    if args.verbose:
        print(
            f"benchmark model={args.model} seed={seed} horizons={horizons}",
            file=sys.stderr,
        )
    try:
        report = run_benchmark(
            horizons,
            seed=seed,
            model=args.model,
            x_min=args.x_min,
            x_max=args.x_max if args.x_max is not None else DEFAULT_X_MAX,
            instance=instance,
        )
    except ValueError as exc:
        return _input_error(exc)
    code = _write_json(report, args.out)
    if code == EXIT_OK and args.cycles_csv:
        code = _emit_cycles_csv(report, args.cycles_csv)
    if code != EXIT_OK:
        return code
    if args.verbose:
        for row in report["rows"]:
            print(
                f"horizon {row['horizon']}: {row['status']} in "
                f"{row['timing']['wall_time_s']:.3f}s over {row['nodes']} nodes",
                file=sys.stderr,
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pboxcdf",
        description=(
            "Reason about uncertain quantities as quantile intervals bracketed "
            "by two uniform cdf lines."
        ),
    )
    parser.add_argument("--verbose", action="store_true", help="progress on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser(
        "ingest", help="turn a quantile,count CSV into a domain JSON"
    )
    ingest.add_argument("--input", required=True, help="observation CSV path")
    ingest.add_argument("--out", default="-", help="output JSON path (default stdout)")
    ingest.set_defaults(func=cmd_ingest)

    solve = sub.add_parser("solve", help="propagate a constraint model JSON")
    solve.add_argument("--input", required=True, help="model JSON path")
    solve.add_argument("--out", default="-", help="solution JSON path (default stdout)")
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="run the scheduling benchmark")
    bench.add_argument("--input", help="explicit instance JSON/TOML instead of seeded data")
    bench.add_argument("--out", default="-", help="report JSON path (default stdout)")
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--horizons", default="7,10,24", help="comma-separated cycle counts")
    bench.add_argument("--model", choices=["pbox", "convex"], default="pbox")
    bench.add_argument("--x-min", type=float, default=1.0, dest="x_min")
    bench.add_argument("--x-max", type=float, default=None, dest="x_max")
    bench.add_argument(
        "--cycles-csv", default=None, help="also emit per-cycle domains as CSV"
    )
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
