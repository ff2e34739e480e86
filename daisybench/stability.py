"""Run the benchmark as sets of seeded runs and report whether it is steady.

    python3 daisybench/stability.py --workloads fd-spj,dc-range --runs 10 --sets 2

For each workload, set ``k`` runs ``run.py`` with seeds
``first + k*runs ... first + (k+1)*runs - 1``. For every end-to-end metric
of ``BENCHMARK.json``, ``setup_s`` included, it reports the median and the
quartile spread as a share of the median (``statistics.quantiles(values,
n=4)``), which must stay within the metric's bound, and, with two sets,
whether the two medians differ, in either direction, by more than the
bound (as a share of the first). It also checks that the share of failed
operations is the same in every run. The report is printed and written to
``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "daisybench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr[-2000:]
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{tail}")
    return {"wall_s": wall, "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=2)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    report, steady = {}, True
    for w in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                r = run_once(w, seed, bench["run_seconds"])
                runs.append(r)
                line = f"{w} seed {seed}: wall {r['wall_s']:.1f}s {json.dumps(r['result'])}"
                print(line, flush=True)
            sets.append(runs)
        rep = {"wall_s_max": max(r["wall_s"] for s in sets for r in s)}
        shares = {r["result"]["failed"] / r["result"]["attempted"] for s in sets for r in s}
        rep["failed_shares"] = sorted(shares)
        rep["all_correct"] = all(r["result"]["correct"] for s in sets for r in s)
        steady &= len(shares) == 1 and rep["all_correct"]
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [[r["result"]["metrics"][name]["value"] for r in s] for s in sets]
            row = {"medians": [statistics.median(v) for v in per_set], "bound": bound}
            if len(per_set[0]) >= 2:
                row["spreads"] = [spread(v) for v in per_set]
                row["spread_ok"] = all(s <= bound for s in row["spreads"])
                row["spread_below_third"] = all(s <= bound / 3 for s in row["spreads"])
                steady &= row["spread_ok"]
            if len(sets) == 2:
                a, b = row["medians"]
                row["second_vs_first"] = (b - a) / a
                row["medians_agree"] = abs(b - a) / a <= bound
                steady &= row["medians_agree"]
            rep[name] = row
        report[w] = rep
        print(json.dumps({w: rep}, indent=1), flush=True)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"stability-{int(time.time())}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"steady: {steady}; report in {path}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
