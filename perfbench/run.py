"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload build --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: the program is imported from
``src/``.  Each workload makes its inputs from ``--seed``, measures for
about ``--seconds`` seconds, checks the program's outputs and prints a
table of every metric with its unit and sample count, then — as the last
line of standard output — one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` is a separate run
that reports the per-layer metrics, measured from spans around the calls
into each layer, and the tracing overhead.

Workload facts (why each was chosen, the layers it stresses and bypasses,
sizes, the serve reference rate and p99 limit, the fleet reference
digest) live in ``perfbench/config.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

SRC = os.path.join(os.getcwd(), "src")
WORKLOADS = ("build", "serve", "fleet")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no program to measure: {SRC}/repro is missing; "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)

    import common
    from repro.toolchain import default_jobs

    cfg = common.load_config()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    module = __import__(f"bench_{args.workload}")
    try:
        result = module.run(
            args.seed, args.seconds, bool(args.trace), cfg["workloads"][args.workload]
        )
    finally:
        shutil.rmtree(common.WORK_DIR, ignore_errors=True)
    result.conform(spec["per_layer" if args.trace else "end_to_end"], idle_ok=bool(args.trace))
    print(f"host: nproc={default_jobs()} python={sys.version.split()[0]}")
    print(result.render())
    print(result.json_line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
