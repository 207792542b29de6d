#!/usr/bin/env python3
"""GSF benchmark entry point.

Builds gsf_bench (perfbench/CMakeLists.txt, which compiles the
repository's libraries from src/) into .bench_build, then runs it with
the caches and obs sinks off (gsf_bench pins the pool size).

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
                           --trace <0|1>
      One run. --trace 0 runs the named workload untraced and reports
      its end-to-end metrics; --trace 1 is the traced per-layer run,
      which covers every layer, so it runs all three workloads, each in
      its own process. The last stdout line is the result JSON.
  python3 perfbench/run.py --all [--seconds <s>] [--seed <n>]
      Runs the three workloads untraced, each in its own process, and
      prints every end-to-end metric by name with its unit.
  python3 perfbench/run.py --selftest
      The benchmark's own tests on small inputs.
  python3 perfbench/run.py --record [--seeds 0-20,42]
      Re-records the output references in perfbench/reference.json
      (per seed for intensity_sweep; the other two workloads' outputs
      do not depend on the seed).

Run it from the root of the repository (or of a checkout of it).
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("intensity_sweep", "fleet_replay", "design_search")
# Seed-independent outputs are recorded under this key.
ANY_SEED = "any"
SEED_INDEPENDENT = ("fleet_replay", "design_search")
RUN_TIMEOUT_S = 170
LINE = re.compile(r"^([A-Za-z_][\w.]*) = (\S+) (\S+)")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def sources_present():
    return (ROOT / "CMakeLists.txt").is_file() and (
        ROOT / "src" / "CMakeLists.txt").is_file()


def build():
    """Configures once and builds gsf_bench; returns its path."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "gsf_bench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return build_dir / "gsf_bench"


def pinned_env():
    """The environment without any GSKU_* switch: no persistent eval
    cache, ledger, profile, tsdb, trace or flight recorder, and no pool
    size override."""
    return {k: v for k, v in os.environ.items() if not k.startswith("GSKU_")}


def scratch_dir():
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    return out


def load_reference():
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def expected(reference, workload, seed):
    table = reference.get(workload, {})
    key = ANY_SEED if workload in SEED_INDEPENDENT else str(seed)
    if key not in table:
        log(f"warning: no {workload} reference recorded for seed {seed}; "
            "its output is checked only against item 0 and its own "
            "independent path")
    return table.get(key)


def run_gsf_bench(binary, workload, seed, seconds, trace=False,
                  expect=None, min_items=3, echo=True):
    """Runs one workload in its own process; returns (result, lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scratch", str(scratch_dir()),
           "--min-items", str(min_items)]
    if trace:
        cmd += ["--trace", "--spans",
                str(scratch_dir() / f"{workload}.spans.jsonl")]
    if expect:
        cmd += ["--expect", expect]
    proc = subprocess.run(cmd, env=pinned_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: gsf_bench exited {proc.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1]), lines


def declared_metrics(key):
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return {m["name"] for m in json.load(f)[key]}


def emit(correct, attempted, failed, metrics, key):
    declared = declared_metrics(key)
    if declared is not None and declared != set(metrics):
        missing = sorted(declared - set(metrics))
        extra = sorted(set(metrics) - declared)
        log(f"metrics differ from BENCHMARK.json {key}: "
            f"missing {missing}, undeclared {extra}")
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def cmd_run(binary, args):
    reference = load_reference()
    if not args.trace:
        result, _ = run_gsf_bench(binary, args.workload, args.seed,
                                  args.seconds,
                                  expect=expected(reference, args.workload,
                                                  args.seed))
        return emit(result["correct"], result["attempted"],
                    result["failed"], result["metrics"], "end_to_end")
    # Every per-layer metric: each workload traced in its own process,
    # sharing the run's time.
    share = max(1.0, args.seconds / len(WORKLOADS))
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        result, _ = run_gsf_bench(binary, workload, args.seed, share,
                                  trace=True,
                                  expect=expected(reference, workload,
                                                  args.seed))
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update(result["metrics"])
    return emit(correct, attempted, failed, metrics, "per_layer")


def cmd_all(binary, args):
    reference = load_reference()
    rows = []
    for workload in WORKLOADS:
        _, lines = run_gsf_bench(binary, workload, args.seed,
                                 args.seconds,
                                 expect=expected(reference, workload,
                                                 args.seed))
        for line in lines[:-1]:
            m = LINE.match(line)
            if m and m.group(1) != "item_s":
                rows.append((workload, m.group(1), m.group(2), m.group(3)))
    print("\n%-16s %-20s %14s %s" % ("workload", "metric", "value", "unit"))
    for row in rows:
        print("%-16s %-20s %14s %s" % row)
    return 0 if all(r[2] == "0" for r in rows if r[1] == "error_rate") \
        else 1


def cmd_selftest(binary):
    failures = 0
    proc = subprocess.run([str(binary), "--selftest", "--scratch",
                           str(scratch_dir())], env=pinned_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    print(proc.stdout, end="")
    failures += proc.returncode != 0
    # A corrupted reference must be caught, and the recorded one pass.
    good = expected(load_reference(), "design_search", 0)
    if not good:
        print("FAIL: no design_search reference recorded")
        return 1
    bad = good[:-1] + ("0" if good[-1] != "0" else "1")
    for ref, want in ((good, True), (bad, False)):
        result, _ = run_gsf_bench(binary, "design_search", 0, 0,
                                  expect=ref, min_items=1, echo=False)
        ok = result["correct"] is want
        print(f"{'ok' if ok else 'FAIL'}: reference {ref} -> "
              f"correct={result['correct']}")
        failures += not ok
    print("selftest:", "PASS" if failures == 0 else "FAIL")
    return 0 if failures == 0 else 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def cmd_record(binary, args):
    reference = {}
    for workload in WORKLOADS:
        seeds = [0] if workload in SEED_INDEPENDENT else \
            parse_seeds(args.seeds)
        table = {}
        for seed in seeds:
            result, lines = run_gsf_bench(binary, workload, seed, 0,
                                          min_items=1, echo=False)
            if not result["correct"]:
                log(f"{workload} seed {seed} failed its checks")
                return 1
            checksum = next(l.split(" = ")[1] for l in lines
                            if l.startswith("output_checksum = "))
            key = ANY_SEED if workload in SEED_INDEPENDENT else str(seed)
            table[key] = checksum
            log(f"{workload} seed {seed}: {checksum}")
        reference[workload] = table
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record", action="store_true")
    p.add_argument("--seeds", default="0-20,42")
    args = p.parse_args()
    if not (args.all or args.selftest or args.record or args.workload):
        p.error("one of --workload, --all, --selftest, --record is needed")
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    if not sources_present():
        log(f"no repository sources (CMakeLists.txt, src/) under {ROOT}")
        return 2
    try:
        binary = build()
        if args.selftest:
            return cmd_selftest(binary)
        if args.record:
            return cmd_record(binary, args)
        if args.all:
            return cmd_all(binary, args)
        return cmd_run(binary, args)
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError, KeyError) as e:
        log(f"failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
