"""Benchmark of diffalg's verdict path.

    python3 perfbench/run.py --workload core-galois|check-prime|cli-gallery
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is one closed loop with a
single client: the next request goes out only after the previous verdict
returns.  All inputs are generated from the seed during set-up; every
verdict is checked after the timed loop.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).

Every end-to-end timing is scaled to a reference speed by the speed kernel
(``speed.py``) run next to it in the same process, because the host's speed
for the same code moves by up to about 2x; the unscaled figures are printed
on the line before the result.

The traced run executes one fixed pass in two fresh interpreters under
different ``PYTHONHASHSEED`` values and requires their call counts to agree.
Child interpreters get a private bytecode cache inside the benchmark's
directory, so their start-up cost is that of an installed package.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Fixture paths appear in the CLI's argv and output, so they are relative
# to the checkout root, the working directory of every run.
WORK = os.path.relpath(os.path.join(HERE, ".work"), ROOT)
PYCACHE = os.path.join(HERE, ".pycache")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_SAMPLES = 3
COLD_SAMPLES = 15
MIN_PASSES = 3
# The speed kernel runs after every KERNEL_EVERY_S of request time; each
# request is scaled by the median of the KERNEL_WINDOW runs nearest to it.
KERNEL_EVERY_S = 0.04
KERNEL_WINDOW = 7
# verdict_ms.tail is this percentile of the per-request latencies: the
# highest whole percentile with at least ten of the pool's requests (216 to
# 250 of them) beyond it.
TAIL_PERCENTILE = 95
CHILD_TIMEOUT = 150


def child_env(hashseed=None):
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env["PYTHONPATH"] = SRC
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return env


def run_child(argv, hashseed=None):
    """Run one child interpreter to completion and return its stdout."""
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(hashseed),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {argv[:4]} exited with {proc.returncode}")
    return proc.stdout


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def self_argv(args, mode):
    return [os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--child", mode]


# -- in-process pieces --------------------------------------------------------


def load_workloads():
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    return workloads


def set_up(workload, seed):
    """Import, input generation and one warm-up pass."""
    W = load_workloads()
    pool = W.make_pool(workload, seed, WORK)
    for req in W.warmup_set(pool):
        req["run"]()
    return W, pool


class Checker:
    """Checks every executed request: its bytes must pass the request's
    answer check, equal the digest recorded at the seed commit where one
    exists, and be identical on every repetition."""

    def __init__(self, W, workload):
        self.W = W
        with open(DIGESTS) as fh:
            self.recorded = json.load(fh)
        self.must_be_recorded = workload == "cli-gallery"
        self.seen = {}
        self.failures = []

    def check(self, req, code, out):
        text = req["encode"](code, out)
        key = req["key"]
        if key in self.seen:
            return self.seen[key] == text
        ok = True
        try:
            req["expect"](code, text)
        except (self.W.CheckFailed, KeyError, TypeError, ValueError) as exc:
            self.failures.append(f"{req['label']} {key}: {exc!r}")
            ok = False
        want = self.recorded.get(key)
        if want is None and self.must_be_recorded:
            self.failures.append(f"{req['label']} {key}: no recorded digest")
            ok = False
        elif want is not None and want != self.W.digest(text):
            self.failures.append(f"{req['label']} {key}: bytes differ from the seed commit")
            ok = False
        self.seen[key] = text if ok else None
        return ok


def closed_loop(pool, seconds, between_passes):
    """Run the pool in order, pass after pass, until the time is up and at
    least MIN_PASSES passes are complete.  Returns one record per verdict,
    the duration of every complete pass and the speed-kernel runs as
    ``(number of records before it, ms)``: one before each pass and one
    after every KERNEL_EVERY_S of request time.  ``between_passes`` runs
    untimed after each pass, given the share of the run done so far."""
    records, passes, kernels = [], [], [(0, speed.kernel_ms())]
    clock = time.perf_counter
    start = pass_start = clock()
    deadline = start + seconds
    since_kernel = 0.0
    i = 0
    while True:
        req = pool[i % len(pool)]
        t0 = clock()
        try:
            code, out = req["run"]()
            err = None
        except Exception as exc:  # a crash is a failed verdict, not the end of the run
            code, out, err = None, None, repr(exc)
        t1 = clock()
        records.append((req, code, out, err, t1 - t0))
        since_kernel += t1 - t0
        if since_kernel >= KERNEL_EVERY_S:
            kernels.append((len(records), speed.kernel_ms()))
            since_kernel = 0.0
        i += 1
        if i % len(pool) == 0:
            passes.append(clock() - pass_start)
            between_passes(sum(passes) / seconds)
            pass_start = clock()
            deadline += pass_start - t1
            if pass_start >= deadline and len(passes) >= MIN_PASSES:
                return records, passes, kernels
            kernels.append((len(records), speed.kernel_ms()))


def count_failures(checker, records):
    failed = 0
    for req, code, out, err, _ in records:
        if err is not None:
            checker.failures.append(f"{req['label']} {req['key']}: {err}")
            failed += 1
        elif not checker.check(req, code, out):
            failed += 1
    return failed


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def scaled_ms(pool, records, kernels):
    """Each pool entry's latency at the reference speed: the median over its
    repetitions, each scaled by the KERNEL_WINDOW speed-kernel runs nearest
    to it."""
    at = [j for j, _ in kernels]
    ms = [m for _, m in kernels]
    half = KERNEL_WINDOW // 2
    local = [speed.scale(ms[max(0, k - half):k + half + 1]) for k in range(len(ms))]
    reps = [[] for _ in pool]
    for j, rec in enumerate(records):
        k = min(bisect.bisect_right(at, j), len(ms) - 1)
        reps[j % len(pool)].append(rec[4] * 1e3 * local[k])
    return [statistics.median(r) for r in reps]


def cold_cli_fixture(W, pool, workload):
    """The argv of a fresh CLI process on one fixture, and the request whose
    warm verdict it must reproduce."""
    if workload == "cli-gallery":
        req = next(r for r in pool if r["label"] == "ld")
        return req["argv"], req
    req = pool[0]
    command, payload, config = req["cli_args"]
    files = W.Files(os.path.join(WORK, workload))
    argv = [command, files.put(payload), "--format", "json"]
    if command == "check":
        argv += ["--predicate", config["predicate"]]
    return argv, req


def same_verdict(req, stdout, returncode):
    code, out = req["run"]()
    if "argv" in req:
        return stdout == out and returncode == code
    cert = json.loads(stdout)
    return returncode == code == cert["exit_code"] and \
        req["encode"](code, cert["result"]) == req["encode"](code, out)


def cold_cli_sample(argv):
    """Wall time of one fresh ``python -m diffalg.cli`` process, with its
    output."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "diffalg.cli"] + argv, cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
    return (time.perf_counter() - t0) * 1e3, proc.stdout, proc.returncode


def scaled_cold_sample(argv):
    """One cold CLI sample, scaled by the speed kernel run just before and
    just after it in this process, which shares its core with the child."""
    before = speed.kernel_runs()
    ms, out, code = cold_cli_sample(argv)
    return ms * speed.scale(before + speed.kernel_runs()), out, code


class Spread:
    """A side measurement sampled between passes of the loop, so that its
    samples spread over the run like the passes do."""

    def __init__(self, count, take):
        self.count, self.take, self.values = count, take, []

    def between_passes(self, share):
        if len(self.values) < self.count * min(share, 1.0):
            self.values.append(self.take())

    def finish(self):
        while len(self.values) < self.count:
            self.values.append(self.take())
        return self.values


def pin_to_one_core():
    """Keep this process and its children on one core, so the speed kernel
    measures the core the measured work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def warm_pycache():
    """Compile the package and what it imports into the private cache."""
    run_child(["-c", "import diffalg.cli"])


# -- the two kinds of run -------------------------------------------------------


def untraced(args):
    warm_pycache()
    W, pool = set_up(args.workload, args.seed)
    setups = Spread(SETUP_SAMPLES,
                    lambda: last_json(run_child(self_argv(args, "setup")))["setup_s"])
    argv, cold_req = cold_cli_fixture(W, pool, args.workload)
    cold = Spread(COLD_SAMPLES, lambda: scaled_cold_sample(argv))
    records, passes, kernels = closed_loop(
        pool, args.seconds,
        lambda share: (setups.between_passes(share), cold.between_passes(share)))
    checker = Checker(W, args.workload)
    failed = count_failures(checker, records)
    cold_runs = cold.finish()
    cold_ok = all(same_verdict(cold_req, out, code) for _, out, code in cold_runs)
    if not cold_ok:
        checker.failures.append(f"cold CLI {argv[0]}: output differs from the warm verdict")
    latencies = scaled_ms(pool, records, kernels)
    n = len(records)
    metrics = {
        "verdicts_per_s": (1e3 * len(latencies) / sum(latencies), "1/s"),
        "verdict_ms.p50": (statistics.median(latencies), "ms"),
        "verdict_ms.tail": (percentile(latencies, TAIL_PERCENTILE), "ms"),
        "setup_s": (statistics.median(setups.finish()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cold_cli_ms.p50": (statistics.median(ms for ms, _, _ in cold_runs), "ms"),
    }
    raw = [statistics.median(rec[4] * 1e3 for rec in records[j::len(pool)])
           for j in range(len(pool))]
    report(args, n, failed, checker.failures, cold_ok, metrics, {
        "failed_frac": (failed / n, "1"),
        "samples": (n, "count"),
        "requests_per_pass": (len(pool), "count"),
        "passes_s": (passes, "s"),
        "tail_percentile": (TAIL_PERCENTILE, "%"),
        "setup_samples_s": (setups.values, "s"),
        "kernel_ms": (statistics.median(ms for _, ms in kernels), "ms"),
        "unscaled_verdicts_per_s": (1e3 * len(raw) / sum(raw), "1/s"),
        "unscaled_verdict_ms.p50": (statistics.median(raw), "ms"),
        "unscaled_verdict_ms.tail": (percentile(raw, TAIL_PERCENTILE), "ms"),
    })


def traced(args):
    warm_pycache()
    first = last_json(run_child(self_argv(args, "traced-probe"), hashseed=1))
    second = last_json(run_child(self_argv(args, "traced"), hashseed=2))
    from tracing import UNREACHED, metric_names

    inexact = sorted(name for name in first["calls"]
                     if first["calls"][name] != second["calls"][name])
    zero_everywhere = [name for name, calls in first["coverage"].items()
                       if calls == 0 and name not in UNREACHED]
    if zero_everywhere:
        sys.stderr.write("boundaries with no calls on any workload (renamed or "
                         f"dead?): {zero_everywhere}\n")
        sys.exit(3)
    values = {}
    for name, unit in metric_names():
        if name.endswith(".self_s"):
            values[name] = (statistics.mean([first["layers"][name], second["layers"][name]]), unit)
        else:
            values[name] = (first["layers"][name], unit)
    imports = [last_json(run_child(["-c", IMPORT_PROBE]))["import_ms"]
               for _ in range(COLD_SAMPLES)]
    starts = []
    for _ in range(COLD_SAMPLES):
        t0 = time.perf_counter()
        run_child(["-c", "pass"])
        starts.append((time.perf_counter() - t0) * 1e3)
    values["cli.out_bytes"] = (first["out_bytes"], "bytes")
    values["cli.import_ms"] = (statistics.median(imports), "ms")
    values["cli.interpreter_ms"] = (statistics.median(starts), "ms")
    values["trace.overhead_frac"] = (statistics.mean([first["overhead"], second["overhead"]]), "1")
    values["trace.inexact_counts"] = (len(inexact), "count")
    attempted = first["attempted"] + second["attempted"]
    failed = first["failed"] + second["failed"]
    report(args, attempted, failed, first["failures"] + second["failures"], True, values, {
        "inexact": (inexact, "names"),
        "aliases_patched": (first["aliases"], "names"),
    })


IMPORT_PROBE = ("import json, time; t = time.perf_counter(); import diffalg.cli; "
                "print(json.dumps({'import_ms': (time.perf_counter() - t) * 1e3}))")


def report(args, attempted, failed, failures, extra_ok, metrics, notes):
    for line in failures[:20]:
        print("FAIL", line)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      **{k: {"value": v, "unit": u} for k, (v, u) in notes.items()}}))
    print(json.dumps({
        "correct": failed == 0 and not failures and extra_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# -- children -------------------------------------------------------------------


def child_setup(args):
    """Time one set-up, scaled by the speed kernel run before and after it."""
    before = speed.kernel_runs()
    t0 = time.perf_counter()
    set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s * speed.scale(before + speed.kernel_runs())}))


def child_traced(args, probe):
    """One untraced and one traced pass over the same fixed requests."""
    W, pool = set_up(args.workload, args.seed)
    import tracing

    fixed = [r for r in pool if r.get("replica", 0) == 0]
    t0 = time.perf_counter()
    for req in fixed:
        req["run"]()
    plain = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    records = []
    for req in fixed:
        try:
            code, out = req["run"]()
            records.append((req, code, out, None, 0.0))
        except Exception as exc:  # counted as a failed verdict
            records.append((req, None, None, repr(exc), 0.0))
    traced_s = time.perf_counter() - t0
    layers = tracer.metrics()
    calls = {k: v for k, v in layers.items() if k.endswith((".calls", ".distinct"))}
    out_bytes = sum(len(r[2].encode()) for r in records if r[0].get("argv") and r[2])
    coverage = {}
    if probe:
        # other workloads' warm-up sets, so a boundary that none of them
        # reaches (a renamed function, a dead path) fails loudly
        for other in W.WORKLOADS:
            if other != args.workload:
                for req in W.warmup_set(W.make_pool(other, args.seed, WORK)):
                    req["run"]()
        coverage = {prefix: tracer.calls[prefix] for prefix, *_ in tracing.BOUNDARIES}
    tracer.uninstall()
    checker = Checker(W, args.workload)
    failed = count_failures(checker, records)
    print(json.dumps({"calls": calls, "layers": layers, "out_bytes": out_bytes,
                      "overhead": traced_s / plain - 1, "coverage": coverage,
                      "aliases": tracer.aliases, "attempted": len(records),
                      "failed": failed, "failures": checker.failures}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["core-galois", "check-prime", "cli-gallery"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--child", choices=["setup", "traced", "traced-probe"],
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    os.chdir(ROOT)
    pin_to_one_core()
    if not os.path.isfile(os.path.join(SRC, "diffalg", "__init__.py")):
        sys.exit(f"no diffalg sources under {SRC}: run from a checkout of the repository")
    if args.child == "setup":
        child_setup(args)
    elif args.child:
        child_traced(args, probe=args.child == "traced-probe")
    elif args.trace:
        traced(args)
    else:
        untraced(args)


if __name__ == "__main__":
    main()
