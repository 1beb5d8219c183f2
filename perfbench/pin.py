"""Regenerate ``pins.json``: the study-cold report digest and fidelity per seed.

    python3 perfbench/pin.py --seeds 0-23

Each seed runs one traced study-cold unit; the pin is taken only when the
layer-by-layer report and ``repro run``'s report hash the same.  A change
to a pin is a change to the program's output and must be called out.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, run_unit


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-23,42")
    args = parser.parse_args()
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    study = pins.setdefault("study-cold", {})
    for seed in parse_seeds(args.seeds):
        record = run_unit("study-cold", seed, trace=True)
        if record.get("exit_code", 0) != 0 or (
                record["digest"] != record["replay_digest"]):
            print(f"seed {seed}: unit failed, not pinned", file=sys.stderr)
            return 1
        study[str(seed)] = {"digest": record["digest"],
                            "fidelity": record["fidelity"]}
        print(f"seed {seed}: {record['digest'][:16]} "
              f"mean {record['fidelity']['mean']:.4f} "
              f"max {record['fidelity']['max']:.4f}", flush=True)
    pins["study-cold"] = dict(sorted(study.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
