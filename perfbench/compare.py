"""Compare two benchmark reports written by run.py to .perfbench/results/.

    python3 perfbench/compare.py OLD.json NEW.json

Prints the output files whose sha256 differ, the counts that differ, and
every metric from both reports. Timings are only comparable when both
reports come from the same machine and kernel backend; otherwise the
script says so and exits 1.
"""

from __future__ import annotations

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = load(argv[1]), load(argv[2])
    comparable = old["machine"]["key"] == new["machine"]["key"]
    if not comparable:
        print(f"NOT COMPARABLE: {old['machine']['key']} vs {new['machine']['key']}")
    same_run = all(old[k] == new[k] for k in ("workload", "seed", "trace"))
    if not same_run:
        print("different workload, seed or trace setting: digests and counts are not expected to match")

    old_d, new_d = old["digests"] or {}, new["digests"] or {}
    differ = sorted(k for k in old_d.keys() | new_d.keys() if old_d.get(k) != new_d.get(k))
    print(f"outputs: {len(old_d)} vs {len(new_d)} files, {len(differ)} differ")
    for name in differ:
        print(f"  {name}: {old_d.get(name, '-')[:12]} -> {new_d.get(name, '-')[:12]}")

    for key in sorted(old["counts"].keys() | new["counts"].keys()):
        a, b = old["counts"].get(key), new["counts"].get(key)
        if a != b:
            print(f"count {key}: {a} -> {b}")

    for key in sorted(old["metrics"].keys() | new["metrics"].keys()):
        a, b = old["metrics"].get(key), new["metrics"].get(key)
        change = f"  ({b / a - 1:+.1%})" if isinstance(a, (int, float)) and isinstance(b, (int, float)) and a else ""
        print(f"{key:48s} {a!s:>24} {b!s:>24}{change}")
    return 0 if comparable else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
