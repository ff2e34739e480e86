"""Reference figure, not a workload metric: the offline cleaner in its
per-group mode (one dataset pass per batch of erroneous groups) on the
``fd-spj`` input, next to its vectorized mode. Both run with
``offline_clean``'s default batch size.

    python3 daisybench/per_group.py --seed 1

Prints one JSON line with both cleaning times and the per-group pass count.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from workloads import fd_spj

    from repro.core import prob
    from repro.core.offline import offline_clean

    inst = fd_spj(args.seed)
    pdf, rules = inst.tables["lineorder"], inst.rules["lineorder"]
    work = run.OUT / f"per-group-{os.getpid()}"
    spark = run.start_spark(work, None)
    try:
        warm_sess, _ = run.setup(spark, fd_spj(run.WARM_SEED, small=True), run.no_span)
        del warm_sess
        run.drop_cached(spark)
        out = {"seed": args.seed, "rows": len(pdf)}
        for mode in ("vectorized", "per_group"):
            run.collect_garbage(spark)
            t0 = time.perf_counter()
            res = offline_clean(prob.spark_with_tid(spark, pdf), rules, mode=mode)
            res.table.count()
            out[f"{mode}_s"] = time.perf_counter() - t0
            out[f"{mode}_passes"] = res.passes
            run.drop_cached(spark)
    finally:
        run.stop_spark(spark)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
