#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, for a BENCH_*.json record.

Usage:
    bench_pairs.py --parent DIR --change DIR
                   --workload custom_sessions=10 --workload preset_read=10
                   [--traced custom_sessions]
                   [--parent-label TEXT] [--change-label TEXT] --out FILE

Runs `python3 perfbench/run.py --workload W --seed S --trace 0` in each
checkout, one pair per seed, seeds 1..PAIRS, at the run length run.py
fixes. The side that runs first alternates from pair to pair, so drift on
a shared machine lands on both sides equally. Each checkout builds its own
benchmark binary; one short discarded run per side does that build before
the first timed pair.

`--traced W` adds one `--trace 1` run per side of workload W (seed 1), for
the per-layer breakdown. Nothing of the traced runs enters the pair counts.

The record written to --out (rewritten after every run, so an interrupted
session keeps what it measured) holds:
  - every run's last JSON line, with its seed, side, order and exit status;
    a run that exited non-zero also keeps what it printed about why: each
    open window the load generator fell behind in (`invalid_windows`:
    offered and achieved rate, load lag p99, latency p99) and its `error:`
    line;
  - nproc;
  - per workload and side, the median and quartiles of each metric over
    the side's runs that exited 0;
  - per workload, each side's failed-operation share;
  - per workload and end-to-end metric, the pair-win count. Every seed run
    is a pair. A pair is a win for the side whose value is better in the
    direction BENCHMARK.json gives; ties count for neither, and a pair in
    which either side exited non-zero or printed no metrics (run.py
    withholds the numbers of a run whose load generator fell behind)
    counts for neither and is `incomplete`. `gain` is true when the change
    won at least nine tenths of the pairs, the medians differ by more
    than the distance between the parent's quartiles in the better
    direction, every change run exited 0, and the change's failed share
    is no higher than the parent's.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def log(message):
    print("bench_pairs.py: " + message, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def last_json_line(text):
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                continue
    return None


# An open window's report line, as perfbench prints it.
WINDOW_LINE = re.compile(
    r"(?P<window>[^:]+): offered=(?P<offered>[\d.]+)/s "
    r"achieved=(?P<achieved>[\d.]+)/s .*load\.lag_us p50=[\d.]+ "
    r"p99=(?P<lag_p99>[\d.]+) .*latency p50=[\d.]+us "
    r"p99=(?P<latency_p99>[\d.]+)us")


def failure_report(text):
    """What a failed run printed about why: {"invalid_windows": [...],
    "error": line}, each key present only when the run printed it."""
    windows, report = [], {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("error:"):
            report["error"] = line
        elif "INVALID:" in line:
            match = WINDOW_LINE.match(line)
            windows.append({
                "window": match["window"],
                "offered_qps": float(match["offered"]),
                "achieved_qps": float(match["achieved"]),
                "lag_p99_us": float(match["lag_p99"]),
                "latency_p99_us": float(match["latency_p99"]),
            } if match else {"line": line})
    if windows:
        report["invalid_windows"] = windows
    return report


def run_once(checkout, workload, seed, trace, extra=()):
    """Runs the checkout's benchmark once; returns (run, text). `run` is
    {"exit", "result": last JSON line or None}, plus failure_report's keys
    when the run exited non-zero; `text` is everything the run printed.
    The binary's per-run report also goes to stderr."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    sys.stderr.write(proc.stdout)
    run = {"exit": proc.returncode, "result": last_json_line(proc.stdout)}
    if proc.returncode != 0:
        run.update(failure_report(proc.stdout))
    return run, proc.stdout


def quartiles(values):
    """(q1, median, q3) with the inclusive method; a single value is its
    own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def metrics_of(run):
    """{name: value} of a run's metrics (each reported as {value, unit});
    empty for a run that exited non-zero."""
    if run["exit"] != 0:
        return {}
    result = run.get("result") or {}
    return {name: metric["value"]
            for name, metric in (result.get("metrics") or {}).items()
            if isinstance(metric, dict)
            and isinstance(metric.get("value"), (int, float))}


def summarize(runs):
    """Per side, per metric: median and quartiles over the side's runs."""
    summary = {}
    for side in SIDES:
        per_metric = {}
        for run in runs:
            if run["side"] != side:
                continue
            for name, value in metrics_of(run).items():
                per_metric.setdefault(name, []).append(float(value))
        summary[side] = {}
        for name, values in sorted(per_metric.items()):
            q1, median, q3 = quartiles(values)
            summary[side][name] = {"n": len(values), "q1": q1,
                                   "median": median, "q3": q3}
    return summary


def failed_share(runs):
    """Per side: failed operations over attempted ones, over all runs."""
    share = {}
    for side in SIDES:
        attempted = failed = 0
        for run in runs:
            result = run.get("result") or {}
            if run["side"] == side:
                attempted += result.get("attempted", 0)
                failed += result.get("failed", 0)
        share[side] = failed / attempted if attempted else None
    return share


def pair_wins(runs, summary, directions, failed):
    """Pair-win counts for each end-to-end metric (see the module doc)."""
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = metrics_of(run)
    change_clean = all(r["exit"] == 0 for r in runs if r["side"] == "change")
    change_clean = change_clean and (
        (failed["change"] or 0) <= (failed["parent"] or 0))
    wins = {}
    for name, better in sorted(directions.items()):
        change_wins = parent_wins = ties = incomplete = 0
        for sides in by_seed.values():
            if not all(name in sides.get(s, {}) for s in SIDES):
                incomplete += 1
                continue
            parent, change = sides["parent"][name], sides["change"][name]
            if parent == change:
                ties += 1
            elif (change < parent) == (better == "lower"):
                change_wins += 1
            else:
                parent_wins += 1
        pairs = len(by_seed)
        entry = {"better": better, "pairs": pairs,
                 "change_wins": change_wins, "parent_wins": parent_wins,
                 "ties": ties, "incomplete": incomplete, "gain": False}
        wins[name] = entry
        p = summary["parent"].get(name)
        c = summary["change"].get(name)
        if p is None or c is None:
            continue
        delta = c["median"] - p["median"]
        parent_iqr = p["q3"] - p["q1"]
        entry.update({
            "median_delta": delta,
            "relative_delta": delta / p["median"] if p["median"] else None,
            "parent_iqr": parent_iqr,
            "gain": change_clean and change_wins >= 0.9 * pairs
                    and abs(delta) > parent_iqr
                    and (delta < 0) == (better == "lower"),
        })
    return wins


def workload_plan(spec):
    """'NAME=PAIRS' -> (NAME, PAIRS)."""
    name, sep, pairs = spec.partition("=")
    if not name or not sep or not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError(
            "expected NAME=PAIRS with PAIRS >= 1, got %r" % spec)
    return name, int(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--parent-label", help="recorded name of the parent")
    parser.add_argument("--change-label", help="recorded name of the change")
    parser.add_argument("--workload", action="append", required=True,
                        type=workload_plan, metavar="NAME=PAIRS")
    parser.add_argument("--traced", action="append", default=[],
                        metavar="NAME")
    parser.add_argument("--out", required=True)
    opts = parser.parse_args()

    checkouts = {"parent": opts.parent, "change": opts.change}
    with open(os.path.join(opts.change, "BENCHMARK.json")) as f:
        directions = {m["name"]: m["better"]
                      for m in json.load(f)["end_to_end"]}

    record = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--trace 0",
        "nproc": nproc(),
        "parent": opts.parent_label or os.path.basename(
            os.path.abspath(opts.parent)),
        "change": opts.change_label or os.path.basename(
            os.path.abspath(opts.change)),
        "workloads": {},
        "traced": {},
    }

    def save():
        with open(opts.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")

    # Build both sides (and warm their page caches) before timing anything.
    # The warm-up's numbers are discarded, so a run whose numbers run.py
    # withheld (exit 3, the load generator fell behind) did its job too.
    for side in SIDES:
        log("building the %s checkout" % side)
        status = run_once(checkouts[side], opts.workload[0][0], 1, 0,
                          ["--seconds", "1"])[0]["exit"]
        if status not in (0, 3):
            log("the %s warm-up run failed with status %d" % (side, status))
            return 2

    for name, pairs in opts.workload:
        runs = []
        entry = record["workloads"][name] = {"pairs": pairs, "runs": runs}
        for seed in range(1, pairs + 1):
            order = SIDES if seed % 2 == 1 else SIDES[::-1]
            for position, side in enumerate(order):
                log("%s seed %d: %s" % (name, seed, side))
                run, _ = run_once(checkouts[side], name, seed, 0)
                run.update({"seed": seed, "side": side,
                            "ran_first": position == 0})
                runs.append(run)
                entry["summary"] = summarize(runs)
                entry["failed_share"] = failed_share(runs)
                entry["pair_wins"] = pair_wins(runs, entry["summary"],
                                               directions,
                                               entry["failed_share"])
                save()

    for name in opts.traced:
        traced = record["traced"][name] = {}
        for side in SIDES:
            log("%s traced: %s" % (name, side))
            traced[side], _ = run_once(checkouts[side], name, 1, 1)
            traced[side]["seed"] = 1
            save()

    bad = [r for w in record["workloads"].values() for r in w["runs"]
           if r["exit"] != 0]
    bad += [r for t in record["traced"].values() for r in t.values()
            if r["exit"] != 0]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
