"""Write the golden output digests to perfbench/golden.json.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/golden.py

The benchmark compares every table/verify stdout, the printed symbolic
discriminant and the rank job's stdout with these SHA-256 digests, so a
later change that alters a single byte of those outputs counts as a failed
job.
"""

import json
from pathlib import Path

from run import run_untimed
from workloads import DERIVE_GENERA, RANK_ARGS, REDUCE_GENUS, SYMBOLIC_DISC_G3, sha256


def main() -> None:
    jobs = {f"table.g{REDUCE_GENUS}": ["table", "--genus", str(REDUCE_GENUS)]}
    for g in DERIVE_GENERA:
        for cmd in ("table", "verify"):
            jobs[f"{cmd}.g{g}"] = [cmd, "--genus", str(g)]
    jobs["symbolic_disc.g3"] = ["-c", SYMBOLIC_DISC_G3]
    jobs["rank.g8"] = RANK_ARGS
    golden = {key: sha256(run_untimed(args)) for key, args in jobs.items()}
    Path(__file__).with_name("golden.json").write_text(json.dumps(golden, indent=2) + "\n")


if __name__ == "__main__":
    main()
