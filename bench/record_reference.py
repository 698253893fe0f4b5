"""Record bench/reference.json: per-group mean errors of every workload.

    python3 bench/record_reference.py

Run from the root of a checkout.  Runs each workload's sweep once at the
reference seed (the configs' master_seed) and stores the mean err_relative
of every (r, m, eps) group, which checks.check_reference compares against.
Re-record only with a change that is meant to move the results, and say so.
"""

import json
import os
import sys

import checks
import run


def main():
    pkg = run.import_package()
    seed = None
    means = {}
    for name, workload in sorted(run.WORKLOADS.items()):
        config = pkg["harness"].load_config(
            os.path.join(run.BENCH_DIR, "configs", workload.config)
        )
        if seed is None:
            seed = config.master_seed
        elif config.master_seed != seed:
            raise SystemExit("workload configs disagree on master_seed")
        run.set_up(pkg, workload.command, config)
        _, csv_path = run.run_sweep(pkg, workload, seed, config.output_path)
        records = pkg["harness"].read_records_csv(csv_path)
        checks.check_complete(workload.command, config, records)
        checks.check_shape(workload.command, pkg["harness"], records)
        means[name] = checks.reference_groups(records)
        print(f"{name}: {len(means[name])} groups", file=sys.stderr)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "group_mean_err_relative": means}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
