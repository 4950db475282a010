"""fplab benchmark: time the `fplab` CLI on four workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (it needs `src/fplab` and
`BENCHMARK.json`).  Each CLI command runs in a fresh process through
`perfbench/child.py`, so every iteration pays import, field builds and the
lazy inverse table as a real `fplab` call does.  Iterations repeat for about
`--seconds` seconds, cycling through CLI seeds derived from --seed; a metric
is the median over the repeats of each CLI seed, averaged over the seeds.

--trace 0 reports the end-to-end metrics: wall_s (time inside
`fplab.cli.main`, summed over the workload's commands), setup_s (process
spawn to `import fplab.cli` done) and peak_rss_mb (the iteration's high-water
RSS, parent or largest pool worker).  --trace 1 alternates untraced and
traced iterations and reports the per-layer metrics of BENCHMARK.json: self
time and calls per fplab module and function, pool accounting and the
tracing overhead.

Every command invocation is one attempted operation.  It fails when the
process exits nonzero, a row has status `fail`, or the sha256 of
`<command>.csv` + `summary.json` differs from the first invocation of that
command at that CLI seed in the run (traced runs included).  The last stdout
line is the JSON result; a report with provenance, digests and raw samples
goes to `.perfbench/`.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

CAP_PRIMES = "65521,262139,1048573"
# Why each workload exists is in BENCHMARK.json.  `dominant` is the layer the
# traced run should show with the largest self time.  `seeds` is how many CLI
# seeds a run cycles through: the default-prime sweep draws set sizes that
# flip collinear_triples between its two routes, so one seed's cost varies by
# about 20 % from the next and a run averages over many seeds; the cap sweeps'
# cost is set by p, so they repeat one seed.
WORKLOADS = {
    "sweep-cap": {
        "commands": [["sweep", "--workers", "1"]],
        "config": {"sweep_primes": CAP_PRIMES},
        "workers": 1,
        "dominant": "energy",
        "seeds": 1,
    },
    "sweep-small": {
        "commands": [["sweep", "--workers", "1"]],
        "config": {},
        "workers": 1,
        "dominant": "geometry",
        "seeds": 16,
    },
    "checks": {
        "commands": [["identities"], ["oracles"], ["regions"], ["charsum"]],
        "config": {},
        "workers": 1,
        "dominant": "bounds",
        "seeds": 4,
    },
    "sweep-cap-pool": {
        "commands": [["sweep", "--workers", "2"]],
        "config": {"sweep_primes": CAP_PRIMES},
        "workers": 2,
        # kernels run in the workers, whose spans are not recorded
        "dominant": "suites",
        "seeds": 1,
    },
}

MIN_ITERATIONS = 2  # of untraced iterations, so wall_s is never one sample
SETUP_PROBES = 3
DEADLINE_S = 170  # every run must end within 180 s
STOP_STARTING_S = 140  # no new iteration after this, whatever --seconds says


def monotonic():
    # CLOCK_MONOTONIC is shared by all processes, so a child's stamp can be
    # subtracted from the parent's spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    def __init__(self, workload, seed, seconds):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        # CLI seeds of this run, a function of --seed only
        self.cli_seeds = [1000 * seed + j for j in range(self.spec["seeds"])]
        self.seconds = seconds
        self.t0 = monotonic()
        self.attempted = 0
        self.failures = []
        self.digests = {}  # "command seed=N" -> first digest seen
        self.setup = []
        self.numpy = None
        self.wrapped = None
        self.rebound = None
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
        self.config = os.path.join(self.dir, "fplab.cfg")
        with open(self.config, "w") as fh:
            fh.write(f"# perfbench workload {workload}\n")
            for key, value in self.spec["config"].items():
                fh.write(f"{key} = {value}\n")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))

    def elapsed(self):
        return monotonic() - self.t0

    def spawn(self, result_path, trace, argv):
        """Run child.py once; returns (result dict or None, error text)."""
        timeout = max(5.0, DEADLINE_S - self.elapsed())
        t_spawn = monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, result_path, "1" if trace else "0", *argv],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
            proc.communicate()
            err = b"timed out"
        if not os.path.exists(result_path):
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or ["no output"]
            return None, tail[0]
        with open(result_path) as fh:
            result = json.load(fh)
        os.remove(result_path)
        self.setup.append(result["t_ready"] - t_spawn)
        self.numpy = result["numpy"]
        return result, ""

    def probe_setup(self):
        # a failed import also fails every command, which the gate counts
        self.spawn(os.path.join(self.dir, "probe.json"), False, [])

    def command(self, index, cmd, traced, cli_seed):
        """One CLI invocation: one attempted operation under the output gate."""
        self.attempted += 1
        out = os.path.join(self.dir, f"out{index}")
        argv = [*cmd, "--config", self.config, "--seed", str(cli_seed), "--out", out]
        result, err = self.spawn(os.path.join(self.dir, "result.json"), traced, argv)
        key = f"{' '.join(cmd)} seed={cli_seed}"
        label = key + (" (traced)" if traced else "")
        if result is None:
            self.failures.append(f"{label}: process failed: {err}")
            return None
        if result["rc"] != 0:
            self.failures.append(f"{label}: exit code {result['rc']}")
            return None
        try:
            with open(os.path.join(out, f"{cmd[0]}.csv"), "rb") as fh:
                data = fh.read()
            with open(os.path.join(out, "summary.json"), "rb") as fh:
                digest = hashlib.sha256(data + fh.read())
        except OSError as exc:
            self.failures.append(f"{label}: output missing: {exc}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        rows = list(csv.DictReader(data.decode().splitlines()))
        failed_rows = sum(1 for row in rows if row["status"] == "fail")
        if failed_rows:
            self.failures.append(f"{label}: {failed_rows} rows with status fail")
            return None
        first = self.digests.setdefault(key, digest.hexdigest())
        if digest.hexdigest() != first:
            self.failures.append(f"{label}: output digest {digest.hexdigest()} != {first}")
            return None
        result["rows"] = len(rows)
        if traced:
            self.wrapped, self.rebound = result["wrapped"], result["rebound"]
        return result

    def iteration(self, traced, index):
        """All of the workload's commands once at one CLI seed; None if any
        failed.  Seeds go s0, s0, s1, s2, ... and cycle, so every run of two
        or more iterations repeats a seed and the digest check bites."""
        cli_seed = self.cli_seeds[max(index - 1, 0) % len(self.cli_seeds)]
        results = [self.command(i, cmd, traced, cli_seed)
                   for i, cmd in enumerate(self.spec["commands"])]
        if any(r is None for r in results):
            return None
        it = {
            "cli_seed": cli_seed,
            "wall_s": sum(r["wall_s"] for r in results),
            "peak_rss_mb": max(r["maxrss_mb"] for r in results),
            "worker_cpu_s": sum(r["children_cpu_s"] for r in results),
            "rows": sum(r["rows"] for r in results),
        }
        if traced:
            layers = {}
            for r in results:
                for name, (own, calls) in r["layers"].items():
                    acc = layers.setdefault(name, [0.0, 0])
                    acc[0] += own
                    acc[1] += calls
            it["layers"] = layers
            it["run_sweep_s"] = sum(r["run_sweep_s"] for r in results)
            it["spans"] = sum(r["spans"] for r in results)
        return it

    def repeat(self, step, minimum):
        """Call step(0), step(1), ... at least `minimum` times, then until the
        next call would end past --seconds; returns the list of results."""
        out, durations = [], []
        while True:
            t = monotonic()
            out.append(step(len(out)))
            durations.append(monotonic() - t)
            if self.elapsed() > STOP_STARTING_S:
                return out
            next_end = self.elapsed() + statistics.median(durations)
            if len(out) >= minimum and next_end > self.seconds:
                return out

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def end_to_end(run):
    run.probe_setup()  # first import writes the bytecode cache; not a sample
    run.setup.clear()
    # probes before and after the iterations, so set-up samples span the run
    for _ in range(SETUP_PROBES):
        run.probe_setup()
    its = run.repeat(lambda i: run.iteration(False, i), MIN_ITERATIONS)
    its = [it for it in its if it is not None]
    for _ in range(SETUP_PROBES):
        run.probe_setup()
    samples = {
        "wall_s": by_seed(its, lambda it: it["wall_s"]),
        "setup_s": {"all": list(run.setup)},
        "peak_rss_mb": by_seed(its, lambda it: it["peak_rss_mb"]),
    }
    return samples, {}


def by_seed(iterations, value):
    """{cli seed: [value of each iteration at that seed]}"""
    out = {}
    for it in iterations:
        out.setdefault(str(it["cli_seed"]), []).append(value(it))
    return out


def aggregate(groups):
    """Median over the repeats of each CLI seed, averaged over the seeds.
    Per-seed medians drop noisy repeats; the mean over seeds is steadier than
    a median when seeds fall into two cost clusters (the two routes)."""
    return statistics.fmean(statistics.median(v) for v in groups.values())


def per_layer(run, metric_names):
    """Alternate untraced and traced iterations; metrics from the traced ones."""
    run.probe_setup()
    pairs = run.repeat(lambda i: (run.iteration(False, i), run.iteration(True, i)), 1)
    plain = [a for a, _ in pairs if a is not None]
    traced = [b for _, b in pairs if b is not None]
    if not plain or not traced:
        return {}, {}
    overhead = (aggregate(by_seed(traced, lambda it: it["wall_s"]))
                - aggregate(by_seed(plain, lambda it: it["wall_s"])))
    wrapped = set(run.wrapped)
    missing = set()
    samples = {
        name: by_seed(traced, lambda it: layer_metric(name, it, run.spec["workers"], wrapped,
                                                      missing))
        for name in metric_names
    }
    if "trace.overhead_s" in samples:
        samples["trace.overhead_s"] = {"all": [overhead]}
    shares = layer_shares(traced)
    info = {
        "missing": sorted(missing),
        "rebound": run.rebound,
        "spans": statistics.median(t["spans"] for t in traced),
        "layer_shares": shares,
        "dominant_expected": run.spec["dominant"],
        "dominant_measured": max(shares, key=shares.get),
        "untraced_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [t["wall_s"] for t in traced],
    }
    return samples, info


def layer_metric(name, it, workers, wrapped, missing):
    """Value of one per-layer metric in one traced iteration.  A function
    that no longer exists reads 0 and is listed as missing."""
    if name == "report.rows":
        return it["rows"]
    if name == "suites.pool.worker_cpu_s":
        return it["worker_cpu_s"]
    if name == "suites.pool.busy_frac":
        wall = workers * it["run_sweep_s"]
        return it["worker_cpu_s"] / wall if wall and it["worker_cpu_s"] else 0.0
    if name == "trace.overhead_s":
        return None  # a difference of medians, set by the caller
    target, _, field = name.rpartition(".")
    known = target in wrapped if "." in target else any(
        w.startswith(target + ".") for w in wrapped)
    if not known:
        missing.add(target)
        return 0
    own, calls = it["layers"].get(target, (0.0, 0))
    return own if field == "self_s" else calls


def layer_shares(traced):
    totals = {}
    for it in traced:
        for name, (own, _) in it["layers"].items():
            if "." not in name:
                totals[name] = totals.get(name, 0.0) + own
    whole = sum(totals.values()) or 1.0
    return {k: round(v / whole, 4) for k, v in sorted(totals.items())}


def provenance(run, benchmark):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = 0
    pkg = os.path.join(SRC, "fplab")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": run.numpy,
        "git_commit": commit,
        "src_fplab_lines": lines,
        "workloads": {
            w["name"]: {"why": w["why"], "dominant_layer": WORKLOADS[w["name"]]["dominant"]}
            for w in benchmark["workloads"]
        },
    }


def measure(workload, seed, seconds, trace, benchmark, prefix=""):
    """One benchmark run of one workload: prints its report lines and
    returns the result object, or None when no iteration completed."""
    metrics = benchmark["per_layer" if trace else "end_to_end"]
    run = Run(workload, seed, seconds)
    try:
        if trace:
            samples, info = per_layer(run, [m["name"] for m in metrics])
        else:
            samples, info = end_to_end(run)
    finally:
        run.cleanup()
    for failure in run.failures:
        print(f"{prefix}FAILED {failure}")
    if not samples or any(not samples[m["name"]] for m in metrics):
        print(f"perfbench: {workload}: no iteration completed", file=sys.stderr)
        return None

    values = {m["name"]: aggregate(samples[m["name"]]) for m in metrics}
    report = {
        "workload": workload,
        "seed": seed,
        "cli_seeds": run.cli_seeds,
        "trace": trace,
        "provenance": provenance(run, benchmark),
        "digests": run.digests,
        "samples": samples,
        **info,
    }
    with open(os.path.join(WORK, f"report-{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(prefix + "provenance " + json.dumps(report["provenance"], sort_keys=True))
    for cmd, digest in sorted(run.digests.items()):
        print(f"{prefix}digest {cmd}: {digest}")
    if trace:
        print(f"{prefix}layer shares {json.dumps(info['layer_shares'])}; dominant measured "
              f"{info['dominant_measured']}, expected {info['dominant_expected']}")
        if info["missing"]:
            print(f"{prefix}missing (reported as 0): {', '.join(info['missing'])}")
    for m in metrics:
        print(f"{prefix}{m['name']} = {values[m['name']]:.6g} {m['unit']} "
              f"(n={sum(map(len, samples[m['name']].values()))} samples, "
              f"{len(samples[m['name']])} seeds)")
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all in turn (metrics named <workload>.<metric>)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fplab", "cli.py")):
        print(f"perfbench: no fplab source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, args.trace, benchmark)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in benchmark["workloads"]:
        result = measure(w["name"], args.seed, args.seconds, args.trace, benchmark,
                         prefix=f"[{w['name']}] ")
        if result is None:
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
