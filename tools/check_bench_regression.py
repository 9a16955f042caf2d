#!/usr/bin/env python3
"""Benchmark regression gate for BENCH_micro.json artifacts.

Compares the steps/sec of the current run against a committed baseline
snapshot and fails (exit 1) when any gated benchmark drops below
--min-ratio times its baseline throughput (default 0.8, i.e. a >20% drop).

Only benchmarks whose name starts with one of the comma-separated --filter
prefixes (default: the OASIS step paths, ``BM_OasisStep``) are gated; other
entries in either file are ignored, so the baseline can be regenerated from a
filtered run. Example: --filter BM_OasisStep,BM_OasisCreate gates the step
paths and per-repeat sampler creation together.

A gated benchmark that exists in the baseline but is MISSING from the current
run is a hard failure: a silently skipped benchmark reads as "no regression"
when the benchmark may simply have stopped building. After an intentional
rename/removal, refresh the committed baseline (see docs/BENCHMARKING.md) or
pass --allow-missing for a one-off run.

Because absolute steps/sec vary across machines, --calibrate NAME rescales
the baseline by the throughput ratio of a calibration benchmark present in
both files (e.g. ``BM_PassiveStep``): baseline values are multiplied by
current(NAME)/baseline(NAME) before comparison, so the gate measures
regressions relative to overall machine speed rather than absolute numbers.

Besides the throughput ratios, --max-metric NAME:METRIC=BOUND (repeatable)
gates a derived metric of the CURRENT run against an absolute upper bound —
machine-independent by construction (ratios/percentages), so no baseline or
calibration is involved. Example: --max-metric
'BM_TelemetryOverhead/1:telemetry_overhead_pct=2.0' fails when enabling the
metrics registry costs the fused step path more than 2%. A missing benchmark
or metric is a hard failure (same reasoning as MISSING above).

Usage:
  python3 tools/check_bench_regression.py BENCH_micro.json \
      bench/baselines/BENCH_micro_baseline.json \
      [--min-ratio 0.8] [--filter BM_OasisStep] [--calibrate BM_PassiveStep] \
      [--allow-missing] \
      [--max-metric 'BM_TelemetryOverhead/1:telemetry_overhead_pct=2.0']

Self test (also run in CI):
  python3 tools/check_bench_regression.py --self-test
"""

import argparse
import json
import sys


def load_results(path):
    with open(path) as f:
        doc = json.load(f)
    results = {}
    for entry in doc.get("results", []):
        name = entry.get("name")
        steps = entry.get("steps_per_sec", 0.0)
        if name and steps > 0.0:
            results[name] = steps
    return results


def load_metrics(path):
    """{benchmark name: {metric: value}} for every non-core numeric field."""
    core = {"name", "steps_per_sec", "iterations"}
    with open(path) as f:
        doc = json.load(f)
    metrics = {}
    for entry in doc.get("results", []):
        name = entry.get("name")
        if not name:
            continue
        metrics[name] = {k: v for k, v in entry.items()
                         if k not in core and isinstance(v, (int, float))}
    return metrics


def parse_max_metric(spec):
    """Splits 'NAME:METRIC=BOUND' into its three parts (ValueError on junk)."""
    head, sep, bound = spec.rpartition("=")
    if not sep:
        raise ValueError(f"--max-metric {spec!r}: expected NAME:METRIC=BOUND")
    name, sep, metric = head.rpartition(":")
    if not sep or not name or not metric:
        raise ValueError(f"--max-metric {spec!r}: expected NAME:METRIC=BOUND")
    return name, metric, float(bound)


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", nargs="?",
                        help="BENCH_micro.json from this run")
    parser.add_argument("baseline", nargs="?",
                        help="committed baseline snapshot")
    parser.add_argument("--min-ratio", type=float, default=0.8,
                        help="fail when current/baseline < this (default 0.8)")
    parser.add_argument("--filter", default="BM_OasisStep",
                        help="gate only benchmarks whose name starts with one "
                             "of these comma-separated prefixes")
    parser.add_argument("--calibrate", default=None,
                        help="benchmark name used to rescale the baseline for "
                             "machine-speed differences")
    parser.add_argument("--allow-missing", action="store_true",
                        help="tolerate gated baseline benchmarks absent from "
                             "the current run (baseline-refresh escape hatch)")
    parser.add_argument("--max-metric", action="append", default=[],
                        metavar="NAME:METRIC=BOUND",
                        help="fail when the named benchmark's derived metric "
                             "in the CURRENT run exceeds BOUND (repeatable; "
                             "absolute, no baseline involved)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit tests and exit")
    return parser


def run_gate(args, out=sys.stdout, err=sys.stderr):
    """The gate proper; returns the process exit code."""
    current = load_results(args.current)
    baseline = load_results(args.baseline)

    scale = 1.0
    if args.calibrate:
        cur_cal = current.get(args.calibrate)
        base_cal = baseline.get(args.calibrate)
        if cur_cal and base_cal:
            scale = cur_cal / base_cal
            print(f"calibration {args.calibrate}: current {cur_cal:.3e} / "
                  f"baseline {base_cal:.3e} -> scale {scale:.3f}", file=out)
        else:
            print(f"warning: calibration benchmark {args.calibrate!r} missing "
                  "from current or baseline; comparing absolute steps/sec",
                  file=err)

    prefixes = [p for p in args.filter.split(",") if p]
    gated = sorted(name for name in baseline
                   if any(name.startswith(p) for p in prefixes))
    if not gated:
        print(f"error: no baseline entries match filter {args.filter!r}",
              file=err)
        return 1

    failures = []
    missing = []
    compared = 0
    for name in gated:
        if name not in current:
            missing.append(name)
            verdict = "skip" if args.allow_missing else "MISS"
            print(f"  {verdict:>4}  {name}: not present in current run",
                  file=out)
            continue
        compared += 1
        expected = baseline[name] * scale
        ratio = current[name] / expected
        verdict = "ok" if ratio >= args.min_ratio else "FAIL"
        print(f"  {verdict:>4}  {name}: {current[name]:.3e} steps/s vs "
              f"expected {expected:.3e} (ratio {ratio:.2f})", file=out)
        if ratio < args.min_ratio:
            failures.append(name)

    if missing and not args.allow_missing:
        print(f"\nMISSING: {len(missing)} gated benchmark(s) present in the "
              f"baseline but absent from the current run: "
              + ", ".join(missing)
              + "\nA benchmark that stopped running is not a passing "
                "benchmark. If it was renamed or removed on purpose, refresh "
                "the committed baseline (docs/BENCHMARKING.md) or pass "
                "--allow-missing.", file=err)
        return 1
    if compared == 0:
        print("error: no gated benchmark present in both runs", file=err)
        return 1
    metric_failures = []
    if args.max_metric:
        current_metrics = load_metrics(args.current)
        for spec in args.max_metric:
            try:
                name, metric, bound = parse_max_metric(spec)
            except ValueError as e:
                print(f"error: {e}", file=err)
                return 1
            value = current_metrics.get(name, {}).get(metric)
            if value is None:
                print(f"  MISS  {name}:{metric}: not present in current run",
                      file=out)
                metric_failures.append(f"{name}:{metric} (missing)")
                continue
            verdict = "ok" if value <= bound else "FAIL"
            print(f"  {verdict:>4}  {name}:{metric} = {value:.3f} "
                  f"(bound {bound:.3f})", file=out)
            if value > bound:
                metric_failures.append(f"{name}:{metric}={value:.3f}>{bound}")

    if failures or metric_failures:
        if failures:
            print(f"\nREGRESSION: {len(failures)} benchmark(s) dropped more "
                  f"than {(1 - args.min_ratio) * 100:.0f}% vs baseline: "
                  + ", ".join(failures), file=err)
        if metric_failures:
            print(f"\nMETRIC BAR: {len(metric_failures)} derived metric(s) "
                  "over bound (or missing): " + ", ".join(metric_failures),
                  file=err)
        return 1
    print(f"\nall {compared} gated benchmarks within "
          f"{(1 - args.min_ratio) * 100:.0f}% of baseline", file=out)
    return 0


# ---------------------------------------------------------------------------
# --self-test: unit tests over synthetic result files, runnable anywhere
# (CI invokes this before the real gate so a broken gate cannot silently
# pass a broken benchmark run).
# ---------------------------------------------------------------------------


def _self_test():
    import io
    import os
    import tempfile
    import unittest

    def write_doc(directory, filename, entries, metrics=None):
        path = os.path.join(directory, filename)
        results = []
        for n, s in entries.items():
            row = {"name": n, "steps_per_sec": s, "iterations": 1}
            row.update((metrics or {}).get(n, {}))
            results.append(row)
        doc = {"benchmark": "self_test", "seed": 0, "results": results}
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    class GateTest(unittest.TestCase):
        def run_gate_with(self, current, baseline, current_metrics=None,
                          **overrides):
            with tempfile.TemporaryDirectory() as tmp:
                cur = write_doc(tmp, "current.json", current, current_metrics)
                base = write_doc(tmp, "baseline.json", baseline)
                argv = [cur, base]
                for key, value in overrides.items():
                    flag = "--" + key.replace("_", "-")
                    if value is True:
                        argv.append(flag)
                    elif isinstance(value, list):
                        for item in value:
                            argv.extend([flag, str(item)])
                    else:
                        argv.extend([flag, str(value)])
                args = build_parser().parse_args(argv)
                out, err = io.StringIO(), io.StringIO()
                code = run_gate(args, out=out, err=err)
                return code, out.getvalue(), err.getvalue()

        def test_pass_when_at_baseline(self):
            code, out, _ = self.run_gate_with(
                {"BM_OasisStep/10": 100.0}, {"BM_OasisStep/10": 100.0})
            self.assertEqual(code, 0)
            self.assertIn("ok", out)

        def test_fail_on_regression(self):
            code, _, err = self.run_gate_with(
                {"BM_OasisStep/10": 50.0}, {"BM_OasisStep/10": 100.0})
            self.assertEqual(code, 1)
            self.assertIn("REGRESSION", err)

        def test_small_drop_within_tolerance_passes(self):
            code, _, _ = self.run_gate_with(
                {"BM_OasisStep/10": 85.0}, {"BM_OasisStep/10": 100.0})
            self.assertEqual(code, 0)

        def test_missing_benchmark_fails_with_clear_message(self):
            code, _, err = self.run_gate_with(
                {"BM_OasisStep/10": 100.0},
                {"BM_OasisStep/10": 100.0, "BM_OasisStep/30": 90.0})
            self.assertEqual(code, 1)
            self.assertIn("MISSING", err)
            self.assertIn("BM_OasisStep/30", err)
            self.assertNotIn("Traceback", err)

        def test_allow_missing_downgrades_to_skip(self):
            code, out, _ = self.run_gate_with(
                {"BM_OasisStep/10": 100.0},
                {"BM_OasisStep/10": 100.0, "BM_OasisStep/30": 90.0},
                allow_missing=True)
            self.assertEqual(code, 0)
            self.assertIn("skip", out)

        def test_all_gated_missing_fails_even_with_allow_missing(self):
            code, _, err = self.run_gate_with(
                {"BM_Other": 1.0}, {"BM_OasisStep/10": 100.0},
                allow_missing=True)
            self.assertEqual(code, 1)
            self.assertIn("no gated benchmark", err)

        def test_calibration_rescales_baseline(self):
            # Machine is 2x slower overall (calibration 50 vs 100): an OASIS
            # result at 60% of baseline is 120% of the rescaled expectation.
            code, out, _ = self.run_gate_with(
                {"BM_OasisStep/10": 60.0, "BM_PassiveStep": 50.0},
                {"BM_OasisStep/10": 100.0, "BM_PassiveStep": 100.0},
                calibrate="BM_PassiveStep")
            self.assertEqual(code, 0)
            self.assertIn("scale 0.500", out)

        def test_ungated_entries_are_ignored(self):
            code, _, _ = self.run_gate_with(
                {"BM_OasisStep/10": 100.0, "BM_Unrelated": 1.0},
                {"BM_OasisStep/10": 100.0, "BM_Unrelated": 100.0})
            self.assertEqual(code, 0)

        def test_max_metric_within_bound_passes(self):
            code, out, _ = self.run_gate_with(
                {"BM_OasisStep/10": 100.0, "BM_TelemetryOverhead/1": 90.0},
                {"BM_OasisStep/10": 100.0},
                current_metrics={
                    "BM_TelemetryOverhead/1": {"telemetry_overhead_pct": 1.4}},
                max_metric=[
                    "BM_TelemetryOverhead/1:telemetry_overhead_pct=2.0"])
            self.assertEqual(code, 0)
            self.assertIn("telemetry_overhead_pct = 1.400", out)

        def test_max_metric_over_bound_fails(self):
            code, _, err = self.run_gate_with(
                {"BM_OasisStep/10": 100.0, "BM_TelemetryOverhead/1": 90.0},
                {"BM_OasisStep/10": 100.0},
                current_metrics={
                    "BM_TelemetryOverhead/1": {"telemetry_overhead_pct": 5.7}},
                max_metric=[
                    "BM_TelemetryOverhead/1:telemetry_overhead_pct=2.0"])
            self.assertEqual(code, 1)
            self.assertIn("METRIC BAR", err)

        def test_max_metric_missing_fails(self):
            code, _, err = self.run_gate_with(
                {"BM_OasisStep/10": 100.0}, {"BM_OasisStep/10": 100.0},
                max_metric=[
                    "BM_TelemetryOverhead/1:telemetry_overhead_pct=2.0"])
            self.assertEqual(code, 1)
            self.assertIn("missing", err)

        def test_max_metric_negative_value_passes(self):
            # Sub-noise measurements can come out negative; that is under any
            # positive bound, not an error.
            code, _, _ = self.run_gate_with(
                {"BM_OasisStep/10": 100.0, "BM_TelemetryOverhead/1": 101.0},
                {"BM_OasisStep/10": 100.0},
                current_metrics={
                    "BM_TelemetryOverhead/1": {"telemetry_overhead_pct": -0.3}},
                max_metric=[
                    "BM_TelemetryOverhead/1:telemetry_overhead_pct=2.0"])
            self.assertEqual(code, 0)

        def test_max_metric_bad_spec_fails_cleanly(self):
            code, _, err = self.run_gate_with(
                {"BM_OasisStep/10": 100.0}, {"BM_OasisStep/10": 100.0},
                max_metric=["no-equals-sign"])
            self.assertEqual(code, 1)
            self.assertIn("NAME:METRIC=BOUND", err)
            self.assertNotIn("Traceback", err)

        def test_comma_separated_filter_gates_every_prefix(self):
            # Both families gated: the creation regression must fail the run
            # even though the step-path family is clean.
            code, _, err = self.run_gate_with(
                {"BM_OasisStep/10": 100.0, "BM_OasisCreate/30": 50.0},
                {"BM_OasisStep/10": 100.0, "BM_OasisCreate/30": 100.0},
                filter="BM_OasisStep,BM_OasisCreate")
            self.assertEqual(code, 1)
            self.assertIn("BM_OasisCreate/30", err)

        def test_comma_separated_filter_ignores_unlisted_prefixes(self):
            code, _, _ = self.run_gate_with(
                {"BM_OasisStep/10": 100.0, "BM_Unrelated": 1.0},
                {"BM_OasisStep/10": 100.0, "BM_Unrelated": 100.0},
                filter="BM_OasisStep,BM_OasisCreate")
            self.assertEqual(code, 0)

        def test_empty_filter_match_fails(self):
            code, _, err = self.run_gate_with(
                {"BM_OasisStep/10": 100.0}, {"BM_OasisStep/10": 100.0},
                filter="BM_Nonexistent")
            self.assertEqual(code, 1)
            self.assertIn("no baseline entries match", err)

    suite = unittest.defaultTestLoader.loadTestsFromTestCase(GateTest)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main():
    args = build_parser().parse_args()
    if args.self_test:
        return _self_test()
    if not args.current or not args.baseline:
        build_parser().error("current and baseline are required "
                             "(or use --self-test)")
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
