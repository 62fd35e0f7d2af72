"""One set-up probe: the set-up a job does before it simulates.

    python probe.py <workload> --seed N

In a fresh interpreter, imports ``repro`` and builds the job's cells,
machine specs and cache fingerprints, with the reference kernel of
:mod:`hostspeed` interleaved, and prints the time this took at the
nominal host speed.  Starting the interpreter itself is not counted.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

import hostspeed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with hostspeed.interleaved() as speed:
        started = time.perf_counter()
        import campaign
        campaign.fingerprints(campaign.plan(args.workload, args.seed))
        elapsed_s = time.perf_counter() - started
    print(hostspeed.rescale(elapsed_s, speed["kernel_s"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
