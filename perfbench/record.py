"""Record the reference files the benchmark compares against.

    python3 perfbench/record.py            # perfbench/digests.json
    python3 perfbench/record.py --profile  # also perfbench/profile.json

Run from the root of a checkout of the commit that defines the reference.
``digests.json`` maps each request key to the digest of its result bytes:
the anchor requests carried by every core-galois and check-prime pool, and
every request the seed can pick for cli-gallery.  Each answer is checked
before it is recorded.  ``profile.json`` holds the traced call counts of
each workload at seed 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

W = run.load_workloads()


def cli_menu_pools():
    """Pools that together hold every request cli-gallery can make."""
    menus = W.cli_menus()
    rounds = max(math.ceil(len(m) / W.PICKS.get(k, 1)) for k, m in menus.items())
    for i in range(rounds):
        choices = {}
        for knob, menu in menus.items():
            n = W.PICKS.get(knob, 1)
            choices[knob] = [menu[(i * n + j) % len(menu)] for j in range(n)]
        pool = W.cli_gallery_pool(choices, os.path.join(run.WORK, "cli-gallery"))
        W.prepare_certificates(pool)
        yield pool


def record_digests():
    out = {}
    pools = [W.anchors("core-galois"), W.anchors("check-prime")]
    for pool in pools + list(cli_menu_pools()):
        for req in pool:
            if req["key"] not in out:
                out[req["key"]] = W.digest(W.run_checked(req))
    with open(run.DIGESTS, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(out)} digests")


def record_profile():
    profile = {}
    for workload in W.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", workload, "--seed", "1", "--trace", "1"],
                              cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = run.last_json(proc.stdout)
        if not result["correct"]:
            sys.exit(f"{workload}: the traced run reported wrong verdicts")
        metrics = result["metrics"]
        profile[workload] = {k: v["value"] for k, v in metrics.items()
                             if k.endswith((".calls", ".distinct"))}
    with open(os.path.join(HERE, "profile.json"), "w") as fh:
        json.dump(profile, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--profile", action="store_true")
    args = ap.parse_args()
    os.chdir(run.ROOT)
    record_digests()
    if args.profile:
        record_profile()
