#!/usr/bin/env python3
"""Golden-output test for `cea_query --profile`.

Runs cea_query single-threaded on a fixed input and asserts that the
runtime-profile tree has exactly the expected shape: same nodes, same
counters, same insertion order. Measured values (times, byte counts,
morsel counts) are normalized to `N` before comparison; fields that are
fully determined by the flags (threads, rows_in, worker count) are
checked verbatim.

A second run with --stats=json asserts the same tree nests under the
"profile" key of the JSON stats document.

The same two checks then run on a query that spills to a fresh temporary
directory, against SPILL_GOLDEN: its "spill" node sits between "memory"
and "workers", and the run must actually spill (files = 1).

Usage: check_profile_golden.py PATH_TO_CEA_QUERY
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile

FLAGS = ["--n=65536", "--k=256", "--seed=7", "--threads=1"]

# The golden tree: values that depend only on the flags are literal;
# everything measured is N.
GOLDEN = """\
query:
  threads: 1
  - total_time: N
  - rows_in: 65536
  strategy:
    policy: ADAPTIVE
    alpha0: N
    c: 10
    - mean_alpha: N
    - alpha_samples: N
    - switches_to_partition: N
    - switches_to_hash: N
    - final_hash_passes: N
    - distinct_shortcut_runs: N
    - fallback_buckets: N
  passes:
    - passes: N
    - morsels: N
    - tables_flushed: N
    level_0:
      - rows_hashed: 65536
      - rows_partitioned: 0
      - cpu_time: N
  scheduler:
    - tasks_submitted: N
    - tasks_executed: N
    - tasks_helped: N
  memory:
    - peak_bytes: N
    - chunks_fresh: N
    - chunks_recycled: N
  workers:
    count: 1
    - morsels: N
    - morsels_max: N
    - rows_hashed: 65536
    - rows_partitioned: 0
    - tables_flushed: N
"""

# 2.5 MiB of runs go to disk and are read back; the spill directory is a
# fresh temporary one, so its path is normalized to DIR.
SPILL_FLAGS = ["--n=262144", "--k=262144", "--seed=7", "--threads=1",
               "--mem_budget_mb=16", "--spill_threshold=0.5"]

SPILL_GOLDEN = """\
query:
  threads: 1
  - total_time: N
  - rows_in: 262144
  strategy:
    policy: ADAPTIVE
    alpha0: N
    c: 10
    - mean_alpha: N
    - alpha_samples: N
    - switches_to_partition: N
    - switches_to_hash: N
    - final_hash_passes: N
    - distinct_shortcut_runs: N
    - fallback_buckets: N
  passes:
    - passes: N
    - morsels: N
    - tables_flushed: N
    level_0:
      - rows_hashed: N
      - rows_partitioned: N
      - cpu_time: N
    level_1:
      - rows_hashed: N
      - rows_partitioned: N
      - cpu_time: N
  scheduler:
    - tasks_submitted: N
    - tasks_executed: N
    - tasks_helped: N
  memory:
    - peak_bytes: N
    - chunks_fresh: N
    - chunks_recycled: N
  spill:
    dir: DIR
    threshold: N
    - spilled_bytes: N
    - read_bytes: N
    - files: N
    - buckets_restored: N
    - restore_time: N
    - write_wait_time: N
    - write_time: N
  workers:
    count: 1
    - morsels: N
    - morsels_max: N
    - rows_hashed: N
    - rows_partitioned: N
    - tables_flushed: N
"""

NUMERIC = re.compile(r"^-?\d+(\.\d+)?(ms|B|KiB|MiB|GiB)?$")


def normalize(text):
    out = []
    for line in text.splitlines():
        if ": " not in line:
            out.append(line)
            continue
        head, _, value = line.rpartition(": ")
        if NUMERIC.match(value):
            out.append(head + ": N")
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def run(binary, flags):
    proc = subprocess.run([binary] + flags,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        print(f"cea_query exited {proc.returncode}", file=sys.stderr)
        sys.exit(1)
    return proc.stdout


def diff(actual, golden):
    a, g = actual.splitlines(), golden.splitlines()
    msgs = []
    for i in range(max(len(a), len(g))):
        got = a[i] if i < len(a) else "<missing>"
        want = g[i] if i < len(g) else "<missing>"
        if got != want:
            msgs.append(f"  line {i + 1}: got {got!r}, want {want!r}")
    return msgs


def check(binary, flags, golden, literals, want_children, rows_in,
          spill_dir=None):
    """Checks one query's text tree and its JSON nesting; 0 when they
    match."""
    # --- Text tree -------------------------------------------------------
    raw = run(binary, flags + ["--profile"])
    # Keep only the tree (cea_query's summary goes to stderr already, but
    # be robust to any preamble before the root node).
    start = raw.find("query:\n")
    if start < 0:
        print("no 'query:' root in --profile output", file=sys.stderr)
        print(raw, file=sys.stderr)
        return 1
    tree = raw[start:]
    if spill_dir is not None:
        tree = tree.replace(f"dir: {spill_dir}\n", "dir: DIR\n")

    # Shape comparison with all values collapsed; flag-determined fields
    # are then re-checked verbatim against the raw tree below.
    normalized = normalize(tree)
    golden_normalized = normalize(golden)
    if normalized != golden_normalized:
        print("profile tree shape mismatch (values normalized):",
              file=sys.stderr)
        for m in diff(normalized, golden_normalized):
            print(m, file=sys.stderr)
        return 1
    # Now the literal fields, straight from the raw tree.
    for literal in literals:
        if literal not in tree:
            print(f"missing literal line {literal!r} in profile",
                  file=sys.stderr)
            return 1

    # --- JSON nesting ----------------------------------------------------
    doc = json.loads(run(binary, flags + ["--stats=json"]))
    profile = doc.get("profile")
    if not isinstance(profile, dict) or profile.get("name") != "query":
        print("stats JSON is missing the nested profile", file=sys.stderr)
        return 1
    children = [c["name"] for c in profile.get("children", [])]
    if children != want_children:
        print(f"profile children {children} != {want_children}",
              file=sys.stderr)
        return 1
    counters = profile.get("counters", {})
    if counters.get("rows_in") != rows_in:
        print(f"profile JSON rows_in = {counters.get('rows_in')}, "
              f"want {rows_in}", file=sys.stderr)
        return 1
    if spill_dir is not None:
        spill = profile["children"][children.index("spill")]
        files = spill.get("counters", {}).get("files")
        if files != 1:
            print(f"profile JSON spill files = {files}, want 1 (the query "
                  f"did not spill)", file=sys.stderr)
            return 1
    return 0


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = argv[1]

    if check(binary, FLAGS, GOLDEN,
             ("  threads: 1\n", "  - rows_in: 65536\n", "    count: 1\n",
              "      - rows_hashed: 65536\n",
              "      - rows_partitioned: 0\n"),
             ["strategy", "passes", "scheduler", "memory", "workers"],
             65536) != 0:
        return 1

    spill_dir = tempfile.mkdtemp(prefix="cea_profile_golden_")
    try:
        if check(binary, SPILL_FLAGS + [f"--spill_dir={spill_dir}"],
                 SPILL_GOLDEN,
                 ("  threads: 1\n", "  - rows_in: 262144\n",
                  "    count: 1\n"),
                 ["strategy", "passes", "scheduler", "memory", "spill",
                  "workers"],
                 262144, spill_dir) != 0:
            return 1
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    print("check_profile_golden: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
