#!/usr/bin/env python3
"""The benchmark's bookkeeping, around the single-run program.

  report.py suite [--seed N] [--runs R] [--vary-seed] [--smoke] [--seconds S] [--out DIR]
      build release, run every workload of BENCHMARK.json untraced, R times
      each in a fresh process, then one traced run each; print the tables
      and write DIR/result.json
  report.py compare A.json B.json
      set two result files side by side, one row per end-to-end metric and
      workload (what compare.sh calls)
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread_of(values):
    """Median, quartiles and their distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def build():
    """Build release once and return the program's path, so that the suite
    does not pay cargo's freshness check before every run."""
    manifest = os.path.join(HERE, "Cargo.toml")
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
                   cwd=ROOT, check=True)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(ROOT, target, "release", "gq-benchmark")


def run_once(program, workload, seed, seconds, trace, smoke, out):
    argv = [program, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", out]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload}: no result line (exit code {done.returncode})")
    result = json.loads(lines[-1])
    detail = next((json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")), {})
    return result, detail, done.returncode


def tool_version(argv):
    try:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True).stdout.strip() or None
    except OSError:
        return None


def suite(args):
    spec = contract()
    program = build()
    seconds = args.seconds or spec["run_seconds"]
    out = args.out or os.path.join(HERE, "out")
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    extra = {w: {"failed_share": [], "samples": [], "seeds": []} for w in workloads}
    per_layer, details, exit_code = {}, {w: {"untraced": []} for w in workloads}, 0
    for run in range(args.runs):
        seed = args.seed + (run if args.vary_seed else 0)
        for w in workloads:
            result, detail, code = run_once(program, w, seed, seconds, 0, args.smoke, out)
            exit_code = exit_code or code
            for name, m in result["metrics"].items():
                end_to_end[w][name].append(m["value"])
            extra[w]["failed_share"].append(result["failed"] / result["attempted"])
            extra[w]["samples"].append(detail["run"]["samples"])
            extra[w]["seeds"].append(seed)
            details[w]["untraced"].append(detail)
            print(f"run {run + 1}/{args.runs}  {w:<15} seed {seed}  " + "  ".join(
                f"{n} {m['value']:.4g} {m['unit']}" for n, m in result["metrics"].items()), flush=True)
    for w in workloads:
        result, detail, code = run_once(program, w, args.seed, seconds, 1, args.smoke, out)
        exit_code = exit_code or code
        per_layer[w] = result["metrics"]
        details[w]["traced"] = detail
        print(f"traced      {w:<15} seed {args.seed}  {len(result['metrics'])} layer metrics", flush=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    table = {w: {n: dict(unit=units[n], values=v, **spread_of(v)) for n, v in end_to_end[w].items()}
             for w in workloads}
    print(f"\nEnd to end (tracing off; median of {args.runs} run(s), spread = (q3-q1)/median)")
    print(f"{'workload':<15} {'metric':<12} {'median':>12} {'unit':<5} {'spread':>7}  samples")
    for w in workloads:
        for n, cell in table[w].items():
            print(f"{w:<15} {n:<12} {cell['median']:>12.4f} {cell['unit']:<5} {cell['spread']:>6.1%}  "
                  f"{statistics.median(extra[w]['samples']):.0f}")
        print(f"{w:<15} {'failed_share':<12} {max(extra[w]['failed_share']):>12.6f} ratio")
    print(f"\nPer layer (the traced run, seed {args.seed}; time per read or per write; 0 = layer not crossed)")
    names = [m["name"] for m in spec["per_layer"]]
    print(f"{'metric':<34} {'unit':<6}" + "".join(f"{w:>16}" for w in workloads))
    for n in names:
        unit = per_layer[workloads[0]][n]["unit"]
        print(f"{n:<34} {unit:<6}" + "".join(f"{per_layer[w][n]['value']:>16.4f}" for w in workloads))
    for w in workloads:
        rows = details[w]["untraced"][-1]["run"]["per_op"]
        print(f"\n{w}: per operation of caller 0 (last untraced run)")
        for r in rows:
            print(f"  {r['op']:<34} {r['samples']:>7} samples  median {r['median_ms']:>9.4f} ms  "
                  f"{r['share_of_time']:>6.1%} of the time")

    any_detail = details[workloads[0]]["untraced"][0]
    stamp = {
        "seed": args.seed, "runs": args.runs, "vary_seed": args.vary_seed, "seconds": seconds,
        "smoke": args.smoke, "nproc": any_detail.get("nproc"), "executor_threads": any_detail.get("threads"),
        "git_commit": tool_version(["git", "rev-parse", "HEAD"]),
        "rustc": tool_version(["rustc", "--version"]),
        "when": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "result.json")
    with open(path, "w") as f:
        json.dump({"stamp": stamp, "end_to_end": table, "extra": extra, "per_layer": per_layer,
                   "detail": details}, f, indent=1)
    print(f"\n{json.dumps(stamp)}\nwrote {path}")
    return exit_code


def compare(args):
    spec = contract()
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    worse = 0
    print(f"A = {args.a}  ({a['stamp']['git_commit']}, seed {a['stamp']['seed']}, {a['stamp']['runs']} run(s))")
    print(f"B = {args.b}  ({b['stamp']['git_commit']}, seed {b['stamp']['seed']}, {b['stamp']['runs']} run(s))")
    print(f"{'workload':<15} {'metric':<12} {'A median':>12} {'B median':>12} {'unit':<5} "
          f"{'B/A':>8} {'bound':>6} {'spread':>7}  verdict")
    for w in (x["name"] for x in spec["workloads"]):
        for m in spec["end_to_end"]:
            ca, cb = a["end_to_end"][w][m["name"]], b["end_to_end"][w][m["name"]]
            ratio = cb["median"] / ca["median"]
            # How much worse B is than A, as a share of A's median.
            worsening = ratio - 1 if m["better"] == "lower" else 1 - ratio
            spread = max(ca["spread"], cb["spread"])
            verdict = "worse" if worsening > m["bound"] else "unresolved" if spread > m["bound"] else "ok"
            worse += verdict == "worse"
            print(f"{w:<15} {m['name']:<12} {ca['median']:>12.4f} {cb['median']:>12.4f} {m['unit']:<5} "
                  f"{ratio:>7.3f}x {m['bound']:>6.0%} {spread:>6.1%}  {verdict}  (base A = {ca['median']:.4g})")
        fa, fb = max(a["extra"][w]["failed_share"]), max(b["extra"][w]["failed_share"])
        verdict = "worse" if fb > fa else "ok"
        worse += verdict == "worse"
        print(f"{w:<15} {'failed_share':<12} {fa:>12.6f} {fb:>12.6f} ratio {'':>8} {'none':>6} {'':>7}  {verdict}")
    differing = 0
    for w in (x["name"] for x in spec["workloads"]):
        for m in spec["per_layer"]:
            if m["unit"] == "count":
                va, vb = a["per_layer"][w][m["name"]]["value"], b["per_layer"][w][m["name"]]["value"]
                if va != vb:
                    differing += 1
                    print(f"exact count differs: {w} {m['name']}: A {va} B {vb}")
    print(f"exact counts (unit count, traced run): {'identical' if not differing else f'{differing} differ'}")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("suite")
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    s.add_argument("--vary-seed", action="store_true", help="run r uses seed + r (the contract's spread check)")
    s.add_argument("--smoke", action="store_true", help="measuring time / 100, one set-up: does it run at all")
    s.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    s.add_argument("--out", help="default: benchmark/out")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = parser.parse_args()
    sys.exit(suite(args) if args.mode == "suite" else compare(args))


if __name__ == "__main__":
    main()
