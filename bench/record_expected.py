"""Record every workload case's answer into ``expected.json``.

Run from the root of a source checkout, only after a change that is meant
to alter the trained model:

    python3 bench/record_expected.py [--workload NAME ...]

Each case runs one episode; the file keeps the final held-out
log-likelihood and the digest of the final server prior.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

DEFAULT_REL_TOL = 1e-6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    root = Path.cwd()
    problem = run.import_fedcox(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    path = run.EXPECTED_PATH
    record = (json.loads(path.read_text()) if path.exists()
              else {"rel_tol": DEFAULT_REL_TOL, "workloads": {}})
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    for name in args.workload:
        workload = WORKLOADS[name]()
        cases = {}
        for case in range(run.CASES):
            with tempfile.TemporaryDirectory(dir=scratch) as workdir:
                call = workload.prepare(case, Path(workdir))
                episode = run.run_episode(call, workload.rounds)
            value = episode["heldout_loglik"]
            if episode["error"] or not math.isfinite(value):
                print(f"error: {name} case {case}: {episode['error'] or value}",
                      file=sys.stderr)
                return 1
            cases[str(case)] = {"heldout_loglik": value,
                                "theta_sha256": episode["theta_sha256"]}
            print(f"{name} {case} {value!r} run_s {episode['run_s']:.3f}",
                  flush=True)
        record["workloads"][name] = cases
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    scratch.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
