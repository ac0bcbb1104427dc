#!/usr/bin/env python3
"""Compare a fresh set of BENCH_*.json records against committed baselines.

Usage:
    python3 bench/compare_baselines.py --candidate <dir> [--baseline bench/baselines]
                                       [--tolerance 4.0] [--strict]

For every BENCH_<slug>.json in the baseline directory the script checks the
candidate directory for the matching record and compares:

  * ok          — a candidate that crashed is always an error (even warn-only);
  * wall_ms     — flagged when candidate/baseline falls outside
                  [1/tolerance, tolerance]. Wall clocks are only compared when
                  the two records ran the same tier. Runs where either side
                  is under --min-wall-ms (default 5 ms) are exempt from the
                  ratio (sub-millisecond timings are dominated by cold-start
                  and scheduler noise), but the exemption is capped both
                  ways: a candidate above min-wall-ms x tolerance^2 (180 ms
                  at the defaults) is a blowup, and a candidate under the
                  floor against a baseline above min-wall-ms x tolerance
                  (30 ms at the defaults) is a collapse — neither can hide
                  under the floor;
  * host_class  — records are stamped with the machine class that produced
                  them ("<threads>t-<isa>", e.g. "8t-avx2"; records predating
                  the stamp count as "unknown"). When candidate and baseline
                  classes differ, every timing/metric ratio check is SKIPPED
                  and a non-failing note is printed instead — a laptop
                  baseline must not gate a CI runner's wall clocks, in either
                  direction. Structural checks (ok, metric presence,
                  finiteness) still apply;
  * metrics     — same keys must exist; values must be finite; same-tier
                  values are ratio-checked like wall_ms, with two exemptions:
                  keys ending in `_ms` get the same --min-wall-ms noise floor
                  (capped the same way), and keys ending in `_per_sec` are
                  never ratio-checked — absolute throughput is a property of
                  the machine, and the regressions it would catch are already
                  gated through the record's wall_ms. When either side is 0
                  no ratio is defined, so any change from/to zero warns with
                  its own message.

Default mode is warn-only (exit 0 with warnings printed) so the CI gate can
run before run-to-run variance data has accumulated; --strict turns warnings
into a non-zero exit for local use. Note the `experiments` CMake target
regenerates bench/baselines *in place* — to check drift locally, run the
driver into a scratch directory and compare that against the committed
baselines:

    ./build/bench/run_experiments --tier=full --outdir=/tmp/fresh \
        --doc=/tmp/fresh/EXPERIMENTS.md
    python3 bench/compare_baselines.py --candidate /tmp/fresh --strict
"""

import argparse
import json
import math
import sys
from pathlib import Path


def load_records(directory: Path):
    records = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            records[path.name] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            records[path.name] = {"_unreadable": str(exc)}
    return records


def compare_values(candidate: float, baseline: float, tolerance: float):
    """None when within tolerance, else a short reason for the warning."""
    if baseline <= 0.0 or candidate <= 0.0:
        if candidate == baseline:
            return None
        return "changed from/to zero — no ratio defined"
    r = candidate / baseline
    if (1.0 / tolerance) <= r <= tolerance:
        return None
    return f"outside {tolerance:g}x tolerance"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--candidate", required=True, type=Path,
                        help="directory with freshly generated BENCH_*.json")
    parser.add_argument("--baseline", default=Path("bench/baselines"), type=Path,
                        help="directory with committed baselines")
    parser.add_argument("--tolerance", default=4.0, type=float,
                        help="allowed wall_ms / metric ratio either way")
    parser.add_argument("--min-wall-ms", default=5.0, type=float,
                        help="skip the wall_ms ratio check when either side "
                             "is below this (too noisy to gate on)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings, not just errors")
    args = parser.parse_args()

    baselines = load_records(args.baseline)
    candidates = load_records(args.candidate)
    if not baselines:
        print(f"error: no BENCH_*.json baselines under {args.baseline}")
        return 1

    errors, warnings, notes = [], [], []

    for name, base in sorted(baselines.items()):
        cand = candidates.get(name)
        if cand is None:
            errors.append(f"{name}: missing from candidate dir {args.candidate}")
            continue
        if "_unreadable" in cand or "_unreadable" in base:
            errors.append(f"{name}: unreadable JSON "
                          f"({cand.get('_unreadable', base.get('_unreadable'))})")
            continue
        if not cand.get("ok", False):
            errors.append(f"{name}: candidate record has ok=false "
                          f"({cand.get('error', 'no error text')!r})")
            continue

        same_tier = cand.get("tier") == base.get("tier")
        cand_class = cand.get("host_class", "unknown")
        base_class = base.get("host_class", "unknown")
        same_class = cand_class == base_class
        if not same_class:
            notes.append(
                f"{name}: host class mismatch (candidate {cand_class!r} vs "
                f"baseline {base_class!r}) — timing/metric ratios not compared; "
                f"regenerate the baseline on this host class to re-arm the gate")
        skip_ceiling = args.min_wall_ms * args.tolerance * args.tolerance

        def check_timing(label, cand_ms, base_ms):
            if cand_ms >= args.min_wall_ms and base_ms >= args.min_wall_ms:
                why = compare_values(cand_ms, base_ms, args.tolerance)
                if why:
                    warnings.append(f"{name}: {label} {cand_ms:.1f} vs baseline "
                                    f"{base_ms:.1f} ({why})")
            elif cand_ms > skip_ceiling:
                # Either side under the noise floor exempts the ratio, but a
                # candidate this far above it is a real blowup, not noise.
                warnings.append(
                    f"{name}: {label} {cand_ms:.1f} vs baseline {base_ms:.1f} "
                    f"(baseline under the {args.min_wall_ms:g} ms noise floor, "
                    f"candidate above the {skip_ceiling:g} ms blowup ceiling)")
            elif base_ms > args.min_wall_ms * args.tolerance:
                # Collapse check: a candidate under the floor against a
                # comfortably-above-floor baseline means the measured work
                # vanished (skipped sweep, misparsed grid) — too fast to be
                # true. This ceiling is one tolerance above the floor, not
                # tolerance^2 like the blowup side: cold-start can inflate a
                # tiny run, but nothing legitimately deflates a real one.
                warnings.append(
                    f"{name}: {label} {cand_ms:.1f} vs baseline {base_ms:.1f} "
                    f"(candidate under the {args.min_wall_ms:g} ms noise floor "
                    f"while the baseline is above "
                    f"{args.min_wall_ms * args.tolerance:g} ms — measured work "
                    f"collapsed)")

        if not same_class:
            pass  # noted above; no ratio is meaningful across host classes
        elif same_tier:
            check_timing("wall_ms", cand.get("wall_ms", 0.0),
                         base.get("wall_ms", 0.0))
        else:
            warnings.append(
                f"{name}: tier mismatch (candidate {cand.get('tier')!r} vs "
                f"baseline {base.get('tier')!r}) — wall clocks not compared")

        base_metrics = base.get("metrics", {})
        cand_metrics = cand.get("metrics", {})
        for key in sorted(base_metrics):
            if key not in cand_metrics:
                warnings.append(f"{name}: metric {key!r} missing from candidate")
                continue
            value = cand_metrics[key]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                errors.append(f"{name}: metric {key!r} is not finite: {value!r}")
                continue
            if same_tier and same_class:
                if key.endswith("_per_sec"):
                    continue  # machine-absolute throughput; wall_ms gates it
                if key.endswith("_ms"):
                    check_timing(f"metric {key!r}", float(value),
                                 float(base_metrics[key]))
                    continue
                why = compare_values(float(value), float(base_metrics[key]),
                                     args.tolerance)
                if why:
                    warnings.append(
                        f"{name}: metric {key!r} = {value:g} vs baseline "
                        f"{base_metrics[key]:g} ({why})")

    for name in sorted(set(candidates) - set(baselines)):
        warnings.append(f"{name}: no committed baseline (new experiment?) — "
                        f"regenerate bench/baselines to adopt it")

    for line in errors:
        print(f"error: {line}")
    for line in warnings:
        print(f"warning: {line}")
    for line in notes:
        print(f"note: {line}")
    compared = len(baselines)
    print(f"compared {compared} records: {len(errors)} error(s), "
          f"{len(warnings)} warning(s), {len(notes)} note(s)"
          + ("" if errors or warnings else " — all within tolerance"))

    if errors:
        return 1
    if warnings and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
