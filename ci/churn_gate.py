#!/usr/bin/env python3
"""Churn-tail gate: warm matches on the serving tier must not wait for
installs.

Usage:
    churn_gate.py [--log FILE]

Runs perfbench's churn_durable workload in this checkout
(`perfbench/run.py`, its own settings and run length, seed 1) and fails
(exit 1) when the median over the run's open-loop windows of each
window's match p99 is above MAX_P99_US. A run withheld because the load
generator fell behind (exit 3 or an `INVALID:` window) is retried on the
next seed, MAX_ATTEMPTS runs in all. The gate also fails, naming the
cause, on any other non-zero exit or a wrong verdict, a run with no
open-window lines or no churn installs, and when every attempt was
withheld. Each verdict line names the host's nproc. --log keeps every
attempt's output under a header line.
"""

import argparse
import os
import re
import statistics
import sys

from bench_pairs import WINDOW_LINE, nproc, run_once

MAX_ATTEMPTS = 3
# Set from 10 runs on a 4-vCPU host (EXPERIMENTS.md, E8): medians 4.8-12.3 us
# with two replicas per shard, 360-540 us with the mirror install removed.
MAX_P99_US = 100.0

INSTALL_LINE = re.compile(r"install \(churn\): n=(\d+)")


def judge(status, text):
    """One run's verdict: ("pass" | "fail" | "withheld", reason)."""
    lines = [line.strip() for line in text.splitlines()]
    if status not in (0, 3) or "correct=false" in text:
        cause = [line for line in lines if line.startswith("error:")] or [
            "correct=false" if "correct=false" in text else "no error line"]
        return "fail", "run.py exited %d (%s)" % (status, cause[0])
    invalid = sum("INVALID:" in line for line in lines)
    if status == 3 or invalid:
        return "withheld", ("the load generator fell behind in %d open "
                            "window(s) (exit %d)" % (invalid, status))
    windows = [m for m in map(WINDOW_LINE.match, lines) if m]
    if not windows:
        return "fail", "the run printed no open-window lines"
    installs = INSTALL_LINE.search(text)
    if installs is None or int(installs[1]) == 0:
        return "fail", "the run made no churn installs (%s)" % (
            installs[0] if installs else "no 'install (churn): n=' line")
    p99 = statistics.median(float(m["latency_p99"]) for m in windows)
    verdict = "pass" if p99 <= MAX_P99_US else "fail"
    return verdict, "median open-window match p99 %.1f us over %d windows, " \
        "%s the bound %.1f us (%s)" % (
            p99, len(windows), "within" if verdict == "pass" else "above",
            MAX_P99_US, installs[0])


def gate(attempts):
    """Exit status over (seed, status, text) attempts, taken in order until
    one is not withheld."""
    for tried, (seed, status, text) in enumerate(attempts, 1):
        verdict, reason = judge(status, text)
        print("churn_gate.py: attempt %d (seed %d, nproc %d): %s: %s"
              % (tried, seed, nproc(), verdict.upper(), reason), flush=True)
        if verdict != "withheld":
            return int(verdict == "fail")
    print("churn_gate.py: FAIL: no valid run on nproc %d; every attempt was "
          "withheld because the load generator fell behind" % nproc())
    return 1


def live_attempts(log_file):
    checkout = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for seed in range(1, 1 + MAX_ATTEMPTS):
        run, text = run_once(checkout, "churn_durable", seed, 0)
        log_file.write("# churn_gate attempt: seed %d exit %d\n%s"
                       % (seed, run["exit"], text))
        log_file.flush()
        yield seed, run["exit"], text


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--log", help="write every attempt's output here")
    opts = parser.parse_args()
    with open(opts.log or os.devnull, "w") as log_file:
        return gate(live_attempts(log_file))


if __name__ == "__main__":
    sys.exit(main())
