#!/usr/bin/env python3
"""A/B runs and ledgers for the OCD benchmark (perfbench/run.py).

    python3 tools/bench.py --ab REV --workload async-calm --pairs 10
    python3 tools/bench.py --ab REV --workload async-calm --pairs 10 \\
        --ledger BENCH_26.json
    python3 tools/bench.py --check-ledger BENCH_*.json

Run from the repository root.  --ab takes a snapshot of revision REV
(the base) and one of the working tree as it stands (the change, or
--head REV for another revision), each in a directory of its own under
a scratch root (git archive for a revision, a copy of the tracked and
untracked non-ignored files for the working tree; no git worktree is
registered).  In each snapshot it runs perfbench/run.py, unchanged,
once per side and pair, alternating which side runs first, all at one
seed.  perfbench/run.py builds its own release executable in its
snapshot on the first run.

For every metric BENCHMARK.json lists (end-to-end ones with --trace 0,
per-layer ones with --trace 1) it prints the median paired ratio
(change / base), the pairs the change wins and loses in the metric's
"better" direction, the base's median and interquartile range, and
whether the medians differ by more than that range.  Metrics that
perfbench/metrics.json marks exact (alloc_mw, makespan_over_lb) are
compared value for value instead: identical, or lower / higher on every
pair.

--ledger FILE writes (or updates, one entry per workload, trace flag
and seed) a JSON ledger: every run's metrics, the seed, both git revisions,
the OCaml version and a host fingerprint.  --check-ledger validates
ledgers against that schema using the standard library only.
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

SCHEMA = "ocd-bench-ledger/1"
RUN_PY = os.path.join("perfbench", "run.py")


def die(msg):
    print("bench: " + msg, file=sys.stderr)
    sys.exit(2)


def git(*args):
    done = subprocess.run(["git", *args], stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        die("git %s failed" % " ".join(args))
    return done.stdout.strip()


# ----------------------------------------------------------------------
# snapshots


def snapshot_rev(rev, dest):
    """Extracts revision [rev] of the repository into [dest]."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest)
    if archive.wait() != 0:
        die("git archive %s failed" % rev)


def snapshot_worktree(dest):
    """Copies the working tree's tracked and untracked, non-ignored
    files into [dest], so later edits cannot leak into a run."""
    files = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").split("\0")
    for f in files:
        if f and os.path.isfile(f):
            target = os.path.join(dest, f)
            os.makedirs(os.path.dirname(target) or dest, exist_ok=True)
            shutil.copy2(f, target)


def describe_worktree():
    rev = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no") != ""
    return {"rev": rev, "dirty": dirty}


# ----------------------------------------------------------------------
# runs


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run in [checkout]; returns its JSON result line."""
    cmd = [sys.executable, RUN_PY, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        die("perfbench failed in %s (exit %d)" % (checkout, done.returncode))
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def host_fingerprint():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mem_kb = 0
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
                    break
    except OSError:
        pass
    return {
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "cpu_model": model,
        "cpus": os.cpu_count() or 0,
        "mem_total_kb": mem_kb,
        "python": platform.python_version(),
    }


def ocaml_version():
    try:
        done = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                              stdout=subprocess.PIPE, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------------
# statistics


def metric_specs(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open(os.path.join("perfbench", "metrics.json")) as f:
        notes = json.load(f)
    group = "per_layer" if trace else "end_to_end"
    return [
        {"name": m["name"], "better": m["better"],
         "exact": notes.get(group, {}).get(m["name"], {}).get("kind") == "exact"}
        for m in spec[group]
    ]


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(runs, specs):
    """Per-metric summary of the paired runs."""
    out = {}
    for m in specs:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["base"]["metrics"][name] for r in runs]
        head = [r["head"]["metrics"][name] for r in runs]
        wins = losses = 0
        ratios = []
        for b, h in zip(base, head):
            if h != b:
                if (h < b) == lower:
                    wins += 1
                else:
                    losses += 1
            if b != 0:
                ratios.append(h / b)
        q1, bmed, q3 = quartiles(base)
        hmed = statistics.median(head)
        entry = {
            "better": m["better"],
            "exact": m["exact"],
            "wins": wins,
            "losses": losses,
            "ties": len(runs) - wins - losses,
            "median_ratio": statistics.median(ratios) if ratios else None,
            "base_median": bmed,
            "base_q1": q1,
            "base_q3": q3,
            "base_iqr": q3 - q1,
            "head_median": hmed,
            "clears_base_iqr": abs(hmed - bmed) > (q3 - q1),
        }
        if m["exact"]:
            if base == head:
                verdict = "identical"
            elif wins == len(runs):
                verdict = "better on every pair"
            elif losses == len(runs):
                verdict = "worse on every pair"
            else:
                verdict = "mixed"
            entry["exact_verdict"] = verdict
        out[name] = entry
    return out


def fmt(x):
    if x is None:
        return "-"
    if isinstance(x, float):
        return "%.4g" % x
    return str(x)


def print_summary(workload, trace, runs, summary):
    print("\n%s (trace %d), %d pairs" % (workload, trace, len(runs)))
    print("%-28s %9s %5s %6s %11s %11s %11s  %s" % (
        "metric", "ratio", "wins", "losses", "base med", "base IQR",
        "head med", "verdict"))
    for name, e in summary.items():
        if e["exact"]:
            verdict = "exact: " + e["exact_verdict"]
        else:
            verdict = "outside base IQR" if e["clears_base_iqr"] else "inside base IQR"
        print("%-28s %9s %5d %6d %11s %11s %11s  %s" % (
            name, fmt(e["median_ratio"]), e["wins"], e["losses"],
            fmt(e["base_median"]), fmt(e["base_iqr"]), fmt(e["head_median"]),
            verdict))
    failed = sum(r[s]["failed"] for r in runs for s in ("base", "head"))
    print("failed ops over all runs: %d" % failed)


# ----------------------------------------------------------------------
# ledger


ENTRY_KEYS = {"workload": str, "trace": int, "seconds": (int, float),
              "seed": int, "pairs": int, "started": str, "runs": list,
              "summary": dict}
RUN_KEYS = {"pair": int, "first": str, "base": dict, "head": dict}
SIDE_KEYS = {"correct": bool, "attempted": int, "failed": int,
             "metrics": dict}
SUMMARY_KEYS = {"better": str, "exact": bool, "wins": int, "losses": int,
                "ties": int, "base_median": (int, float),
                "base_q1": (int, float), "base_q3": (int, float),
                "base_iqr": (int, float), "head_median": (int, float),
                "clears_base_iqr": bool}


def is_type(v, ty):
    """isinstance, except that a bool is no number."""
    if ty is bool:
        return isinstance(v, bool)
    return not isinstance(v, bool) and isinstance(v, ty)


def check_keys(obj, keys, where, errors):
    if not isinstance(obj, dict):
        errors.append("%s: not an object" % where)
        return False
    ok = True
    for k, ty in keys.items():
        if k not in obj:
            errors.append("%s: missing %r" % (where, k))
            ok = False
        elif not is_type(obj[k], ty):
            errors.append("%s.%s: wrong type" % (where, k))
            ok = False
    return ok


def validate_ledger(ledger):
    """Schema errors of one ledger, as a list of strings (empty: valid)."""
    errors = []
    top = {"schema": str, "base": dict, "head": dict, "ocaml": str,
           "host": dict, "entries": list}
    if not check_keys(ledger, top, "ledger", errors):
        return errors
    if ledger["schema"] != SCHEMA:
        errors.append("ledger.schema: expected %r" % SCHEMA)
    check_keys(ledger["base"], {"rev": str}, "base", errors)
    check_keys(ledger["head"], {"rev": str, "dirty": bool}, "head", errors)
    check_keys(ledger["host"], {"system": str, "machine": str, "cpus": int},
               "host", errors)
    if not ledger["entries"]:
        errors.append("ledger.entries: empty")
    for i, e in enumerate(ledger["entries"]):
        where = "entries[%d]" % i
        if not check_keys(e, ENTRY_KEYS, where, errors):
            continue
        if len(e["runs"]) != e["pairs"] or not e["runs"]:
            errors.append("%s: %d runs for %d pairs" % (where, len(e["runs"]),
                                                        e["pairs"]))
        names = None
        for j, r in enumerate(e["runs"]):
            rw = "%s.runs[%d]" % (where, j)
            if not check_keys(r, RUN_KEYS, rw, errors):
                continue
            if r["first"] not in ("base", "head"):
                errors.append("%s.first: not base or head" % rw)
            for side in ("base", "head"):
                if not check_keys(r[side], SIDE_KEYS, "%s.%s" % (rw, side), errors):
                    continue
                ms = r[side]["metrics"]
                if not all(is_type(v, (int, float)) for v in ms.values()):
                    errors.append("%s.%s.metrics: non-numeric value" % (rw, side))
                if names is None:
                    names = set(ms)
                elif set(ms) != names:
                    errors.append("%s.%s.metrics: metric set differs" % (rw, side))
        for name, s in e["summary"].items():
            check_keys(s, SUMMARY_KEYS, "%s.summary.%s" % (where, name), errors)
            if names is not None and name not in names:
                errors.append("%s.summary.%s: no such metric in runs" % (where, name))
    return errors


def read_ledger(path, base, head):
    """The ledger at [path], or None if there is none yet; dies if it
    records other revisions.  [ab] calls it before the first pair, so a
    mismatch costs no runs."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        ledger = json.load(f)
    if ledger.get("base") != base or ledger.get("head") != head:
        die("%s records other revisions; choose another file" % path)
    return ledger


def write_ledger(path, base, head, entry):
    ledger = read_ledger(path, base, head)
    if ledger is None:
        ledger = {"schema": SCHEMA, "base": base, "head": head,
                  "ocaml": ocaml_version(), "host": host_fingerprint(),
                  "entries": []}
    key = lambda e: (e["workload"], e["trace"], e["seed"])
    ledger["entries"] = [
        e for e in ledger["entries"] if key(e) != key(entry)
    ] + [entry]
    errors = validate_ledger(ledger)
    if errors:
        die("refusing to write an invalid ledger: " + "; ".join(errors))
    with open(path, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s" % path)


def check_ledgers(paths):
    bad = 0
    for p in paths:
        try:
            with open(p) as f:
                errors = validate_ledger(json.load(f))
        except (OSError, ValueError) as e:
            errors = [str(e)]
        for err in errors:
            print("%s: %s" % (p, err))
        if errors:
            bad += 1
        else:
            print("%s: ok" % p)
    return 1 if bad else 0


# ----------------------------------------------------------------------


def ab(args):
    if not (os.path.isfile(RUN_PY) and os.path.isfile("BENCHMARK.json")):
        die("run from the repository root")
    base = {"rev": git("rev-parse", "--verify", args.ab + "^{commit}")}
    head = ({"rev": git("rev-parse", "--verify", args.head + "^{commit}"),
             "dirty": False} if args.head else describe_worktree())
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f).get("run_seconds", 40)
    with open("BENCHMARK.json") as f:
        known = [w["name"] for w in json.load(f)["workloads"]]
    if args.workload not in known:
        die("unknown workload %r (BENCHMARK.json lists %s)"
            % (args.workload, ", ".join(known)))
    if args.ledger:
        read_ledger(args.ledger, base, head)
    specs = metric_specs(args.trace)
    root = tempfile.mkdtemp(prefix="ocd-bench-", dir=args.scratch)
    try:
        dirs = {"base": os.path.join(root, "base"),
                "head": os.path.join(root, "head")}
        snapshot_rev(base["rev"], dirs["base"])
        if args.head:
            snapshot_rev(head["rev"], dirs["head"])
        else:
            snapshot_worktree(dirs["head"])
        started = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds")
        runs = []
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"pair": i, "first": order[0]}
            for side in order:
                pair[side] = run_once(dirs[side], args.workload, args.seed,
                                      seconds, args.trace)
            shown = [m["name"] for m in specs
                     if pair["base"]["metrics"][m["name"]] != 0][:2]
            print("pair %d (%s first): " % (i, order[0]) + ", ".join(
                "%s %s -> %s" % (name, fmt(pair["base"]["metrics"][name]),
                                 fmt(pair["head"]["metrics"][name]))
                for name in shown), flush=True)
            runs.append(pair)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    summary = summarise(runs, specs)
    print_summary(args.workload, args.trace, runs, summary)
    if args.ledger:
        write_ledger(args.ledger, base, head, {
            "workload": args.workload, "trace": args.trace,
            "seconds": seconds, "seed": args.seed, "pairs": args.pairs,
            "started": started, "runs": runs, "summary": summary})
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="A/B runs of perfbench/run.py and the BENCH_*.json ledger.")
    ap.add_argument("--ab", metavar="REV",
                    help="base revision to compare the working tree against")
    ap.add_argument("--head", metavar="REV",
                    help="measure this revision instead of the working tree")
    ap.add_argument("--workload", help="a workload BENCHMARK.json lists")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="per run (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--ledger", metavar="FILE",
                    help="write or update this JSON ledger")
    ap.add_argument("--scratch", metavar="DIR",
                    help="where the snapshots go (default: the system temp dir)")
    ap.add_argument("--check-ledger", nargs="+", metavar="FILE",
                    help="validate ledgers and exit")
    args = ap.parse_args()
    if args.check_ledger:
        return check_ledgers(args.check_ledger)
    if not args.ab or not args.workload:
        ap.error("--ab and --workload are required (or use --check-ledger)")
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    return ab(args)


if __name__ == "__main__":
    sys.exit(main())
