"""End-to-end and per-layer benchmark of armik's solve and `armik ik`.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): roundtrip, workcell,
cli_batch. Each run builds a fixed input pool from --seed, cycles it in a
closed loop with one caller for --seconds (and at least once through the
pool), then checks every result against independent oracles outside the
timed region. A repeat of an input must reproduce the checked result
exactly, and repeats as a whole may not run more than REPEAT_SPEEDUP_BOUND
faster than first visits (a result cache would; correct is then false).

--trace 0 prints the end-to-end metrics: throughput_sps (request items per
second over all calls), latency_p50_us and latency_tail_us (percentiles over
the pool's inputs of each input's fastest call time; the report names the
tail percentile and the sample count), setup_s and peak_rss_mb; fail_rate is
in the report line and in the final line as failed/attempted.

--trace 1 forces the pure backend, runs every input once untraced and once
traced (alternating which goes first) and prints per-layer self times per
solve, exact work counts from the first pass over the pool, and the tracing
overhead. It reports in layer_checks (and on stderr) every layer the workload
runs that reads 0; the spans go to .perfbench_out/spans-<workload>.csv.

Times are scaled to a reference machine speed. The shared 2-core machines
this runs on change speed by tens of percent within and between minutes, so
the loop runs a fixed calibration routine (no armik code) every CAL_PERIOD_S
and multiplies each call's time by the routine's nominal time over its
measured time around that call. Raw values are in the report line.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics. Failed requests are logged to stderr with their pool index.
"""

import argparse
import array
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# inputs per pool; one pass takes about 4-10 s on the pure backend (cli_batch:
# batches of 16 items); the tail needs >= 10 inputs beyond its percentile
POOL_SIZE = {"roundtrip": 2500, "workcell": 3000, "cli_batch": 150}
# the tail is the highest of these with >= 10 inputs beyond it
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10
CAL_PERIOD_S = 0.02
CAL_WINDOW = 5
SETUP_REPS = 11
SETUP_CAL_REPS = 5
MAX_LOGGED_FAILURES = 50
# repeat visits of an input may run at most this much faster than first
# visits (the latency_p50_us bound): inputs repeat across passes over the pool,
# so a cache of results keyed by input would otherwise read as a speedup
REPEAT_SPEEDUP_BOUND = 0.2
# share of the traced time per solve that may fall outside every layer span
ROOT_SELF_MAX_SHARE = 0.05

_CAL_M = np.arange(16.0).reshape(4, 4) / 16.0
# nominal seconds of one calibration_seconds() routine at the reference speed
CAL_NOMINAL_S = 1.0e-3


def calibration_seconds():
    """Wall time of one fixed calibration routine with no armik code: numpy
    scalar indexing, float math and small containers, like the pure kernels'
    FK and branch loops."""
    t0 = time.perf_counter()
    M, acc = _CAL_M, 0.0
    for r in range(100):
        for i in range(4):
            for j in range(4):
                acc += M[i, j] * math.sin(acc * 1e-3 + j)
        box = {"acc": acc, "ij": (r, i)}
        acc = box["acc"] * 0.5
    return time.perf_counter() - t0


class Calibration:
    """Calibration samples interleaved with the timed calls.

    mark() taken after a timed call names the calibration samples around it;
    factors()[mark] is CAL_NOMINAL_S over the median of the CAL_WINDOW
    samples on either side, so each call is scaled by the machine speed of
    its own tenth of a second rather than by the run's average: the speed
    often changes within a run.
    """

    def __init__(self):
        self.samples = array.array("d")
        self.next_at = 0.0

    def tick(self):
        if time.perf_counter() >= self.next_at:
            self.samples.append(calibration_seconds())
            self.next_at = time.perf_counter() + CAL_PERIOD_S

    def mark(self):
        return len(self.samples)

    def factors(self):
        c = list(self.samples) or [CAL_NOMINAL_S]
        w = CAL_WINDOW
        return [CAL_NOMINAL_S / statistics.median(c[max(0, j - w): j + w + 1]) for j in range(len(c) + 1)]


def import_armik(trace):
    """Import armik from this checkout's src/ (never an installed copy)."""
    if trace:
        os.environ["ARMIK_DISABLE_NUMBA"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import armik

    if not Path(armik.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"armik imported from {armik.__file__}, not from {SRC}")
    return armik


class Outcomes:
    """First result per pool input, visit counts and repeat mismatches."""

    def __init__(self, wl):
        self.wl = wl
        n = len(wl.pool)
        self.first = [None] * n
        self.visits = [0] * n
        self.mismatches = [0] * n

    def observe(self, idx, rec):
        self.visits[idx] += 1
        if self.first[idx] is None:
            self.first[idx] = rec
        elif not self.wl.same(self.first[idx], rec):
            self.mismatches[idx] += 1

    def check(self, workload, seed):
        """(attempted, failed, log lines, worst oracle errors) over every
        executed request."""
        wl, per_call = self.wl, self.wl.items_per_call
        attempted = failed = 0
        log = []
        worst = {"pose": 0.0, "psi": 0.0}
        for idx, rec in enumerate(self.first):
            if rec is None:
                continue
            attempted += self.visits[idx] * per_call
            bad = {}
            for item, reason in wl.check(wl.pool[idx], rec, worst):
                bad.setdefault(item, reason)
            # a repeat that differs from the checked first result fails whole
            failed += len(bad) * (self.visits[idx] - self.mismatches[idx])
            failed += per_call * self.mismatches[idx]
            if self.mismatches[idx]:
                bad.setdefault(-1, f"{self.mismatches[idx]} repeats differ from the first result")
            for item, reason in sorted(bad.items()):
                log.append(f"FAIL workload={workload} seed={seed} input={idx} item={item}: "
                           f"{reason}")
        return attempted, failed, log, worst


def run_untraced(wl, seconds, outcomes, cal):
    import workloads

    pool, n = wl.pool, len(wl.pool)
    lat, marks = array.array("d"), array.array("l")
    errors = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < n or time.perf_counter() < deadline:
        dt, out = workloads.call_once(wl.call, pool[i % n], errors)
        lat.append(dt)
        marks.append(cal.mark())
        outcomes.observe(i % n, workloads.record(wl, out))
        cal.tick()
        i += 1
    return lat, marks, errors


def run_traced(wl, seconds, outcomes, cal, tracer):
    """Each input once untraced and once traced, alternating the order.

    Request i is the i-th pair; the counts come from the spans of the first
    pass over the pool, so they depend only on the inputs.
    """
    import tracing
    import workloads

    pool, n = wl.pool, len(wl.pool)
    lat_u, lat_t, marks = array.array("d"), array.array("d"), array.array("l")
    errors = []
    traced_call = tracer.wrap(tracing.ROOT_SPAN, wl.call)
    tracer.prepare()
    count = None
    deadline = time.perf_counter() + seconds
    i = 0
    while i < n or time.perf_counter() < deadline:
        inp = pool[i % n]
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.request, tracer.keep = i, i < n
                tracer.install()
                try:
                    dt, out = workloads.call_once(traced_call, inp, errors)
                finally:
                    tracer.uninstall()
                lat_t.append(dt)
            else:
                dt, out = workloads.call_once(wl.call, inp, errors)
                lat_u.append(dt)
            outcomes.observe(i % n, workloads.record(wl, out))
        marks.append(cal.mark())
        if i == n - 1:
            count = tracing.counts(tracer, n)
            tracing.release_results(tracer)
            tracer.keep = False
        cal.tick()
        i += 1
    return lat_u, lat_t, marks, count, errors


def tail_percentile(n):
    """Highest TAIL_LADDER percentile with at least TAIL_MIN_BEYOND of n
    samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 100.0 * TAIL_MIN_BEYOND - 1e-6:
            return p
    return 50.0


_SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
import armik
params = armik.default_params()
R, p, psi = json.loads(sys.argv[1])
armik.solve(armik.IkRequest(pose=armik.Transform(R, p), psi=psi, params=params))
print(repr(time.perf_counter() - t0))
"""


def measure_setup(reps, first_request):
    """Median time, in fresh interpreters, of import armik, default_params()
    and the first solve, each scaled by the machine speed just before and
    after it (the median of SETUP_CAL_REPS calibrations each: a single one
    right after a child exits is often far off); one unmeasured run first
    fills the bytecode cache. Returns (scaled, raw) medians."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    arg = json.dumps(first_request)
    raw, scaled = [], []

    def speed():
        return statistics.median(calibration_seconds() for _ in range(SETUP_CAL_REPS))

    before = speed()
    for k in range(reps + 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, arg],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        after = speed()
        if k:
            t = float(done.stdout.strip().splitlines()[-1])
            raw.append(t)
            scaled.append(t * CAL_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def environment(armik, workload, seed, seconds, trace, pool_size):
    git = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            git = None
    h = hashlib.sha256()
    for path in sorted((SRC / "armik").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backend": armik.BACKEND,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git,
        "src_sha256": h.hexdigest(),
        "pool_size": pool_size,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, lat, scaled, setup, peak_rss_mb):
    """End-to-end metrics from the per-call times of an untraced run.

    Call i ran input i % n. An input's latency is its fastest (scaled) call.
    On the shared machine, neighbours slow short calls that touch much code
    and data (the median workcell request) far more than the calibration
    routine, and for whole minutes at a time: the median over an input's calls
    then moved 25% between runs, its fastest call 4%. Stalls and interference
    still count in throughput, which is over all calls. The percentiles are
    over the n inputs.
    """
    n_calls, per_call, n = len(lat), wl.items_per_call, len(wl.pool)
    p = tail_percentile(n)

    def summary(x, setup_s):
        x = np.asarray(x)
        per_input = [np.min(x[k::n]) for k in range(n)]
        p50, ptail = np.percentile(per_input, [50.0, p])
        return {
            "throughput_sps": n_calls * per_call / math.fsum(x),
            "latency_p50_us": float(p50) * 1e6,
            "latency_tail_us": float(ptail) * 1e6,
            "setup_s": setup_s,
        }

    value = summary(scaled, setup[0])
    x = np.asarray(scaled)
    ratios = [np.median(x[k + n::n]) / x[k] for k in range(min(n, n_calls - n))]
    metrics = {
        "throughput_sps": _metric(value["throughput_sps"], "1/s"),
        "latency_p50_us": _metric(value["latency_p50_us"], "us"),
        "latency_tail_us": _metric(value["latency_tail_us"], "us"),
        "setup_s": _metric(value["setup_s"], "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    extra = {
        "tail_percentile": p,
        "latency_samples": n,
        "calls": n_calls,
        "items": n_calls * per_call,
        "raw": summary(lat, setup[1]),
        # median over inputs of (median repeat-visit time / first-visit
        # time); a cache of results keyed by input would pull it below 1
        "repeat_to_first": float(np.median(ratios)) if ratios else None,
        "inputs_repeated": len(ratios),
    }
    return metrics, extra


def per_layer(outcomes, tracer, count, lat_u, lat_t, factor):
    """Per-layer metrics; factor[i] scales the times of request i."""
    import tracing

    totals, root_self = tracing.layer_times(tracer, factor)
    solves = max(1, sum(1 for rec in tracer.spans if tracer.names[rec[0]] == "ik_core.solve"))
    us = 1e-3 / solves  # scaled ns totals -> us per solve
    metrics = {name: _metric(v * us, "us") for name, v in totals.items()}
    layer_sum_us = sum(totals.values()) * us
    e2e_t = math.fsum(x * f for x, f in zip(lat_t, factor)) * 1e9 * us
    e2e_u = math.fsum(x * f for x, f in zip(lat_u, factor)) * 1e9 * us
    # median over pairs of (traced - untraced) on one input: robust to stalls
    pair_diff = [(t - u) * f for t, u, f in zip(lat_t, lat_u, factor)]
    overhead = statistics.median(pair_diff) * 1e9 * us * len(pair_diff)
    unattributed = e2e_t - layer_sum_us
    n_solves = max(count["solves"], 1)
    verified = count["verified_leaves"]
    metrics.update(
        {
            "quartic.real_roots_per_solve": _metric(count["real_roots"] / n_solves, "count"),
            "kernels.fk_chain_calls_per_solve": _metric(
                count["fk_chain_calls"] / n_solves, "count"
            ),
            "ik_core.branches_per_solve": _metric(count["accepted_branches"] / n_solves, "count"),
            "ik_core.verify_accept_ratio": _metric(
                count["accepted_branches"] / verified if verified else 0.0, "ratio"
            ),
            "ik_core.verified_leaves": _metric(verified, "count"),
            "ik_core.accepted_branches": _metric(count["accepted_branches"], "count"),
            "ik_core.raised_per_solve": _metric(count["raised"] / n_solves, "count"),
        }
    )
    for reason, k in count["reject"].items():
        metrics[f"ik_core.reject.{reason}"] = _metric(k / n_solves, "count")
    metrics["cli.output_bytes_per_item"] = _metric(cli_bytes_per_item(outcomes), "bytes")
    metrics["trace.e2e_untraced_us"] = _metric(e2e_u, "us")
    metrics["trace.e2e_traced_us"] = _metric(e2e_t, "us")
    metrics["trace.overhead_us"] = _metric(overhead, "us")
    metrics["trace.unattributed_us"] = _metric(unattributed, "us")
    root_self_us = root_self * us
    checks = {
        "layer_checks": layer_checks(outcomes.wl, metrics, root_self_us, e2e_t),
        "root_self_us": root_self_us,
        # a report line, not a check: self times add up exactly, so this
        # compares the root and call_once gap with a noisy overhead estimate
        "layer_sum_within_overhead": unattributed <= max(overhead, 0.0),
    }
    return metrics, checks


def layer_checks(wl, metrics, root_self_us, e2e_traced_us):
    """Reasons why the traced run did not see the layers it should: a layer
    the workload runs reads 0, a bypassed layer does not, or time escapes
    every layer span into the root span."""
    fails = [f"{name} reads 0 on a workload that runs it"
             for name in wl.layers_run if not metrics[name]["value"] > 0]
    fails += [f"{name} reads {metrics[name]['value']:.6g} on a workload that bypasses it"
              for name in wl.layers_bypassed if metrics[name]["value"] != 0]
    if not root_self_us <= ROOT_SELF_MAX_SHARE * e2e_traced_us:
        fails.append(f"root span self time {root_self_us:.3g} us is over {ROOT_SELF_MAX_SHARE:.0%}"
                     f" of the traced {e2e_traced_us:.3g} us per solve")
    return fails


def cli_bytes_per_item(outcomes):
    """Mean `armik ik` output size per request item over the pool."""
    sizes = [len(r[2]) for r in outcomes.first if r is not None and r[0] == "exit"]
    if not sizes:
        return 0.0
    return math.fsum(sizes) / (len(sizes) * outcomes.wl.items_per_call)


def run(workload, seed, seconds, trace, pool_size=None, setup_reps=SETUP_REPS):
    """One benchmark run; returns (report, final line object)."""
    armik = import_armik(trace)
    import workloads

    pool_size = pool_size or POOL_SIZE[workload]
    work = WORK_DIR / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    phases = {}
    t_phase = time.perf_counter()

    def phase(name):
        nonlocal t_phase
        now = time.perf_counter()
        phases[name] = now - t_phase
        t_phase = now

    measured_ok = True
    try:
        params = armik.default_params()
        wl = workloads.WORKLOADS[workload](params, seed, pool_size, str(work))
        for inp in wl.pool[:3]:  # warm-up, not recorded
            workloads.call_once(wl.call, inp, [])
        gc.collect()
        gc.freeze()
        outcomes, cal = Outcomes(wl), Calibration()
        phase("generate_s")
        report = {"env": environment(armik, workload, seed, seconds, trace, pool_size)}
        report["inputs_sha256"] = hashlib.sha256(b"".join(x.digest() for x in wl.pool)).hexdigest()
        if not trace:
            lat, marks, errors = run_untraced(wl, seconds, outcomes, cal)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            phase("measure_s")
            setup = measure_setup(setup_reps, _setup_request(wl))
            f = cal.factors()
            factor = [f[m] for m in marks]
            scaled = [x * k for x, k in zip(lat, factor)]
            metrics, extra = end_to_end(wl, lat, scaled, setup, peak_rss_mb)
            report.update(extra)
            ratio = extra["repeat_to_first"]
            if ratio is not None and ratio < 1.0 - REPEAT_SPEEDUP_BOUND:
                measured_ok = False
                print(f"FAIL workload={workload} seed={seed}: repeat visits take {ratio:.3f} of"
                      f" the first visit's time; results of earlier calls are being reused",
                      file=sys.stderr)
            phase("setup_s")
        else:
            import tracing

            tracer = tracing.Tracer()
            lat_u, lat_t, marks, count, errors = run_traced(wl, seconds, outcomes, cal, tracer)
            phase("measure_s")
            f = cal.factors()
            factor = [f[m] for m in marks]
            metrics, checks = per_layer(outcomes, tracer, count, lat_u, lat_t, factor)
            report.update(checks)
            for reason in checks["layer_checks"]:
                print(f"LAYER CHECK workload={workload} seed={seed}: {reason}", file=sys.stderr)
            report["calls"] = len(lat_u)
            report["counts"] = count
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{workload}.csv")
            report["spans"] = len(tracer.spans)
            phase("write_spans_s")
        report["scale_median"] = statistics.median(factor)
        report["calibrations"] = len(cal.samples)
        gc.unfreeze()
        attempted, failed, log, worst = outcomes.check(workload, seed)
        report["oracle_worst_pose_error"] = worst["pose"]
        report["oracle_worst_psi_error"] = worst["psi"]
        phase("check_s")
        report["phases"] = phases
        report["attempted"], report["failed"] = attempted, failed
        report["measured_ok"] = measured_ok
        report["fail_rate"] = failed / attempted if attempted else 1.0
        report["exceptions"] = errors[:5]
        for line in log[:MAX_LOGGED_FAILURES]:
            print(line, file=sys.stderr)
        if len(log) > MAX_LOGGED_FAILURES:
            print(f"... {len(log) - MAX_LOGGED_FAILURES} more failing inputs", file=sys.stderr)
        report["failures"] = log[:MAX_LOGGED_FAILURES]
        final = {
            "correct": failed == 0 and measured_ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        return report, final
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def _setup_request(wl):
    # one fixed reachable request for every workload and seed
    from workloads import far_configuration

    q, R, p, psi = far_configuration(np.random.default_rng(0), wl.params)
    return [R.tolist(), p.tolist(), psi]


def run_all(seed, seconds, trace):
    """Every workload in its own process (peak RSS is per process); prints
    each table and then one line that combines them, metrics prefixed with
    the workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in POOL_SIZE:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print(f"== {workload}")
        if done.returncode or not lines:
            combined["correct"] = False
            code = code or done.returncode or 1
            continue
        print("\n".join(lines[:-2]))
        final = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and final["correct"]
        combined["attempted"] += final["attempted"]
        combined["failed"] += final["failed"]
        for name, m in final["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(POOL_SIZE) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        report, final = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as e:
        print(f"perfbench: cannot import armik from {SRC}: {e}", file=sys.stderr)
        return 2
    for name, m in final["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_rate':36s} {report['fail_rate']:>16.6g} ratio")
    print(json.dumps({"report": report}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
