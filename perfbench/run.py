"""The conninsure benchmark.

    python3 perfbench/run.py --workload fleet|biglist|disputes \\
        --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, sets it up, runs it for S
seconds and checks every output.  It prints the environment, every metric
with its unit and sample count, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, from an untraced run; with
--trace 1 they are its per_layer metrics, from a run whose second half is
traced.  The exit code is 0 only when every output was correct.

A summary of each run goes to perfbench/out/, and the spans of a traced
run to perfbench/out/<workload>-<seed>-spans.jsonl.
"""

import argparse
import dataclasses
import json
import os
import sys

import checkout

WORKLOADS = ("fleet", "biglist", "disputes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def declared_metrics(trace: bool) -> list[str]:
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout.use_sources()
    import biglist
    import disputes
    import fleet
    import harness
    import layers

    module = {"fleet": fleet, "biglist": biglist, "disputes": disputes}[args.workload]
    trace = bool(args.trace)
    with harness.WorkDir(args.workload) as work:
        outcome = module.run(args.seed, args.seconds, trace, work)

    tally, report = outcome.tally, outcome.report
    report.add("error_rate", tally.failed / max(tally.attempted, 1), "ratio", tally.attempted)
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("environment: " + json.dumps(outcome.env, sort_keys=True))
    moves = {m[0]: m[4] for m in layers.PER_LAYER} if trace else {}
    for name, metric in report.metrics.items():
        print(metric.line() + (f"  -> {moves[name]}" if name in moves else ""))
    for error in tally.errors:
        print(f"  FAILED: {error}")

    wanted = declared_metrics(trace)
    missing = [name for name in wanted if name not in report.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    stem = os.path.join(harness.OUT_DIR, f"{args.workload}-{args.seed}")
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({
            "environment": outcome.env,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "errors": tally.errors,
            "metrics": {name: dataclasses.asdict(m) for name, m in report.metrics.items()},
            "moves": moves,
        }, fh, indent=1)
    if outcome.spans:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for span in outcome.spans:
                fh.write(json.dumps(dataclasses.astuple(span)) + "\n")

    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": report.metrics[name].value, "unit": report.metrics[name].unit}
            for name in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
