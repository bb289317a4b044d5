#!/usr/bin/env python3
"""Same-host A/B perf gate: this checkout against its merge-base with a base.

    python3 ci/perf_ab.py <base-rev>
    python3 ci/perf_ab.py --self-test

Run from anywhere inside the repository. The parent side is
`git merge-base <base-rev> HEAD`, checked out as a detached worktree under
build-perf-ab/ and removed on exit; the change side is this working tree.
Each side runs its own BENCHMARK.json `command` (perfbench/run.py), and is
built once by its `--self-test`, which also checks that side's output
parity.

Every workload and end-to-end metric comes from BENCHMARK.json. Each
workload runs in PAIRS parent/change pairs on seeds 1..PAIRS, flipping
which side goes first each pair, so drift of the host lands on both sides.
`replay_d128` and `replay_int8_durable` run a second set of pairs with
PP_GEMM_FORCE_KERNEL=blocked, so the portable kernel stays gated.

The gate fails when, for any (workload, metric), the change's median is
worse than the parent's by more than the metric's `bound` in its `better`
direction, when any run exits non-zero or prints "correct": false, or
when the change fails a larger share of its attempts than the parent.

Writes BENCH_<workload>.json at the repository root: the host fingerprint,
both shas, each side's per-metric median and IQR per lane, and the
per-layer block of one traced run of the change. `--self-test` feeds
synthetic result lines through the decision rule, with no build and no git.
"""
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = os.path.join(ROOT, "build-perf-ab", "base")
# Sized on a 4-core host: single runs spread -20%/+26% around their median,
# and an A/A of 5 pairs of 2 s saw setup_s medians 26% apart (bound 25%).
# 8 pairs of 1 s take the same ~6 min, the parent's build included.
PAIRS = 8
SECONDS = 1
ENVS = {"default": {}, "blocked": {"PP_GEMM_FORCE_KERNEL": "blocked"}}
BLOCKED_WORKLOADS = ("replay_d128", "replay_int8_durable")


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_result(stdout):
    """The result object of a perfbench run: its last stdout line."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def values(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if r["result"] and name in r["result"]["metrics"]]


def worse_by(metric, base, head):
    """How much worse `head` is than `base`, as a fraction of `base`, in the
    metric's `better` direction (negative when better)."""
    delta = head - base if metric["better"] == "lower" else base - head
    if base == 0:
        return float("inf") if delta > 0 else 0.0
    return delta / abs(base)


def failed_share(runs):
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return failed / attempted if attempted else 1.0


def judge(metrics, base_runs, head_runs):
    """The decision rule. Each run is {"rc": exit code, "result": the parsed
    result line or None}. Returns (failures, rows): one message per reason
    to fail, and (metric, base median, head median, worse_by) per metric."""
    failures = []
    for side, runs in (("parent", base_runs), ("change", head_runs)):
        for r in runs:
            if r["rc"] != 0:
                failures.append("%s run exited %d" % (side, r["rc"]))
            elif r["result"] is None:
                failures.append("%s run printed no result line" % side)
            elif r["result"].get("correct") is not True:
                failures.append('%s run printed "correct": false' % side)
    if failures:
        return failures, []
    base_share, head_share = failed_share(base_runs), failed_share(head_runs)
    if head_share > base_share:
        failures.append("failed share %.3g > parent's %.3g" %
                        (head_share, base_share))
    rows = []
    for m in metrics:
        name = m["name"]
        base, head = values(base_runs, name), values(head_runs, name)
        if not head:
            failures.append("%s: missing from the change's results" % name)
            continue
        if not base:
            continue
        b, h = statistics.median(base), statistics.median(head)
        worse = worse_by(m, b, h)
        rows.append((name, b, h, worse))
        if worse > m["bound"]:
            failures.append("%s: %.4g -> %.4g, %.0f%% worse (bound %.0f%%)" %
                            (name, b, h, 100 * worse, 100 * m["bound"]))
    return failures, rows


# ----------------------------------------------------------------- runs

def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def remove_worktree():
    if os.path.exists(WORKTREE):
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        WORKTREE], capture_output=True)
        shutil.rmtree(WORKTREE, ignore_errors=True)
    subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                   capture_output=True)


def perfbench(checkout, args, env="default"):
    """Runs the checkout's own benchmark command. Build output and the human
    report stay out of the way; the result line is returned parsed."""
    full_env = {k: v for k, v in os.environ.items()
                if not any(k in e for e in ENVS.values())}
    full_env.update(ENVS[env])
    proc = subprocess.run(load_spec(checkout)["command"] + args, cwd=checkout,
                          env=full_env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:] + proc.stdout[-2000:])
    return {"rc": proc.returncode, "result": parse_result(proc.stdout)}


def run_args(workload, seed, trace=0):
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]


def summary(metrics, runs):
    out = {}
    for m in metrics:
        got = values(runs, m["name"])
        if len(got) > 1:
            q1, q2, q3 = statistics.quantiles(got, n=4, method="inclusive")
            out[m["name"]] = {"median": q2, "iqr": q3 - q1}
    return out


def bench_json(obj):
    """One top-level key per line, so a trajectory diff shows which part
    moved."""
    return "{\n%s\n}\n" % ",\n".join(
        " %s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
        for k, v in sorted(obj.items()))


def gate(base_rev):
    spec = load_spec(ROOT)
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    base_sha = git("merge-base", base_rev, "HEAD")
    head_sha = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        head_sha += "+dirty"
    sides = {"parent": WORKTREE, "change": ROOT}

    # The (workload, lane) comparisons, each between two arms; an arm is
    # (side, env) and its runs are shared by every comparison naming it.
    comparisons = [(w, "default", ("parent", "default"),
                    ("change", "default")) for w in workloads]
    comparisons += [(w, "blocked", ("parent", "blocked"),
                     ("change", "blocked"))
                    for w in BLOCKED_WORKLOADS if w in workloads]
    arms = {(w,) + arm: [] for w, _, a, b in comparisons for arm in (a, b)}

    remove_worktree()
    os.makedirs(os.path.dirname(WORKTREE), exist_ok=True)
    git("worktree", "add", "--detach", WORKTREE, base_sha)
    try:
        for side, checkout in sides.items():
            print("perf_ab: build + self-test, %s" % side, flush=True)
            if perfbench(checkout, ["--self-test"])["rc"] != 0:
                print("perf_ab: FAIL: the %s's perfbench self-test failed" %
                      side)
                return 1
        for seed in range(1, PAIRS + 1):
            print("perf_ab: pair %d/%d" % (seed, PAIRS), flush=True)
            for w in workloads:
                keys = [k for k in arms if k[0] == w]
                # Parent and change alternate; the order flips each pair.
                keys.sort(key=lambda k: (k[2], k[1] == "parent"))
                if seed % 2 == 0:
                    keys.reverse()
                for key in keys:
                    _, side, env = key
                    arms[key].append(perfbench(sides[side], run_args(w, seed),
                                               env))
        traced = {w: perfbench(ROOT, run_args(w, 1, trace=1))
                  for w in workloads}
    finally:
        remove_worktree()

    failures = []
    files = {w: {"workload": w, "parent_sha": base_sha, "change_sha": head_sha,
                 "pairs": PAIRS, "seconds": SECONDS, "lanes": {}}
             for w in workloads}
    for w, lane, a, b in comparisons:
        a_runs, b_runs = arms[(w,) + a], arms[(w,) + b]
        found, rows = judge(metrics, a_runs, b_runs)
        print("%s [%s]" % (w, lane))
        for name, base, head, worse in rows:
            print("  %-20s parent %12.4g  change %12.4g  %+6.1f%% worse" %
                  (name, base, head, 100 * worse))
        failures += ["%s [%s] %s" % (w, lane, f) for f in found]
        files[w]["lanes"][lane] = {"parent": summary(metrics, a_runs),
                                   "change": summary(metrics, b_runs)}

    per_layer = [m["name"] for m in spec["per_layer"]]
    for w, run in traced.items():
        result = os.path.join(ROOT, ".bench_build", "results",
                              "%s-seed1-trace1.json" % w)
        host = None
        if run["rc"] == 0 and os.path.exists(result):
            with open(result) as f:
                host = json.load(f).get("host")
        else:
            failures.append("%s: traced run of the change failed" % w)
        got = (run["result"] or {}).get("metrics", {})
        files[w]["host"] = host
        files[w]["per_layer"] = {n: got[n]["value"] for n in per_layer
                                 if n in got}
        with open(os.path.join(ROOT, "BENCH_%s.json" % w), "w") as f:
            f.write(bench_json(files[w]))

    if failures:
        print("perf_ab: FAIL (parent %s, change %s)" % (base_sha[:12],
                                                        head_sha[:12]))
        for f in failures:
            print("  " + f)
        return 1
    print("perf_ab: PASS (parent %s, change %s)" % (base_sha[:12],
                                                    head_sha[:12]))
    return 0


# ------------------------------------------------------------- self-test

def self_test():
    metrics = load_spec(ROOT)["end_to_end"]

    def line(scale=1.0, only=None, correct=True, failed=0):
        """A result line with every metric (or just `only`) made `scale`x
        worse in its `better` direction."""
        values = {}
        for m in metrics:
            worse = scale if only in (None, m["name"]) else 1.0
            values[m["name"]] = 100.0 * (
                worse if m["better"] == "lower" else 1 / worse)
        return json.dumps({"correct": correct, "attempted": 1000,
                           "failed": failed,
                           "metrics": {n: {"value": v, "unit": "-"}
                                       for n, v in values.items()}})

    def runs(*lines, rc=0):
        return [{"rc": rc, "result": parse_result("log line\n" + text)}
                for text in lines]

    base = runs(line(), line(), line())
    # (what, change runs, must pass, a metric the failure must name)
    cases = [("identical runs pass", base, True, None),
             ("every metric 1.1x worse passes", runs(*[line(1.1)] * 3), True,
              None),
             ("every metric 2x better passes", runs(*[line(0.5)] * 3), True,
              None)]
    cases += [("%s 2x worse fails" % m["name"],
               runs(*[line(2.0, only=m["name"])] * 3), False, m["name"])
              for m in metrics]
    cases += [
        ('a "correct": false run fails',
         runs(line(), line(correct=False), line()), False, None),
        ("more failed fails", runs(line(), line(failed=1), line()), False,
         None),
        ("a non-zero exit fails", runs(line(), line()) + runs(line(), rc=1),
         False, None),
        ("a run with no result line fails",
         runs(line(), line()) + [{"rc": 0, "result": parse_result("")}],
         False, None),
    ]
    bad = 0
    for what, head, want_pass, name in cases:
        failures, _ = judge(metrics, base, head)
        ok = (not failures) == want_pass and (
            name is None or any(f.startswith(name + ":") for f in failures))
        bad += not ok
        print("  %-4s %s%s" % ("ok" if ok else "FAIL", what,
                               " (%s)" % failures[0] if failures else ""))
    print("perf_ab self-test: %s" % ("PASS" if bad == 0 else "FAIL"))
    return 1 if bad else 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the worktree is removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return gate(argv[0])
    except subprocess.CalledProcessError as e:
        print("perf_ab: %s failed: %s" % (" ".join(e.cmd), e.stderr.strip()),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
