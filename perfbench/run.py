"""Run one workload of the tokenskip benchmark and print its result.

    python3 perfbench/run.py --workload live_small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. --trace 0 prints the end-to-end metrics
of BENCHMARK.json; --trace 1 repeats the same operations under the tracer
and prints the per-layer metrics. The last line of standard output is the
result object; the line before it records the environment. A full record of
the run goes to perfbench/out/.
"""

import os
import time

_T0 = time.perf_counter()

# Before numpy is imported: OpenBLAS would otherwise start one thread per core
# of a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def _import_package():
    """Import tokenskip from this checkout's src/, or return an error message."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    try:
        import tokenskip
    except ImportError as exc:
        return f"cannot import tokenskip from {src}: {exc}"
    if not os.path.abspath(tokenskip.__file__).startswith(src + os.sep):
        return f"tokenskip was imported from {tokenskip.__file__}, not from {src}"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    error = _import_package()
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = spec["per_layer" if args.trace else "end_to_end"]
    import_s = time.perf_counter() - _T0

    result = bench.run_workload(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace), OUT_DIR, import_s)
    env = bench.environment(ROOT, args.seed)
    bench.write_record(os.path.join(
        OUT_DIR, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"), result, env)
    for failure in result["record"]["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(bench.result_line(result, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
