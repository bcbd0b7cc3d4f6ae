"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread, as a share of the median, against its bound,
and the spread the phase times would have without host speed calibration.

    python3 perfbench/spread.py --workload fine_horizon --seeds 1 2 3 4 5

Runs one benchmark process at a time and waits for each; the values go to
`.perfbench_out/spread-<workload>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    values, raw, failed = {}, {}, 0
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        for name in ("setup_s", "solve_s", "total_s"):
            raw.setdefault(name, []).append(statistics.median(
                t[name] for t in info["info"]["raw_per_iteration"]))
        failed += result["failed"] + (not result["correct"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.5g}"
                                          for n, m in result["metrics"].items()), flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, failed operations or incorrect: {failed}")
    summary = {"workload": args.workload, "seconds": seconds, "seeds": args.seeds,
               "failed": failed, "values": values, "raw_values": raw, "metrics": {},
               "raw_metrics": {}}
    for spec in bench["end_to_end"]:
        xs = values[spec["name"]]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / med
        flag = "ok" if share < spec["bound"] / 3 else "WIDE"
        summary["metrics"][spec["name"]] = {"unit": spec["unit"], "median": med, "q1": q1,
                                            "q3": q3, "spread": share, "bound": spec["bound"]}
        line = (f"  {spec['name']:22s} median {med:12.6g} {spec['unit']:5s} spread {share:7.2%}"
                f"  bound {spec['bound']:.0%}  {flag}")
        if spec["name"] in raw:
            xs = raw[spec["name"]]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            summary["raw_metrics"][spec["name"]] = {"median": statistics.median(xs),
                                                    "spread": (q3 - q1) / statistics.median(xs)}
            line += f"   raw: median {statistics.median(xs):.4g} spread " \
                    f"{summary['raw_metrics'][spec['name']]['spread']:7.2%}"
        print(line)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
