"""Self-test of the benchmark itself (not of armik).

    python3 perfbench/selftest.py

Checks, on tiny pools:
  1. every workload emits every metric named in BENCHMARK.json, untraced
     (end_to_end) and traced (per_layer), with all outputs correct;
  2. two traced runs with one seed give identical work counts;
  3. a different seed gives different inputs;
  4. each traced run sees every layer its workload runs (layer_checks), and a
     traced run with the fk_chain boundary left unwrapped reports it;
  5. known-wrong results are counted as failed: a joint off by 1e-6, a
     dropped rejection, a missing generating configuration, an unexpected
     raise or exception, a repeat that differs, a wrong cli exit code and a
     swapped error tag; repeats much faster than first visits are flagged;
  6. in a directory holding only BENCHMARK.json and the benchmark, run.py
     exits non-zero without printing a result.
Exits 0 when all pass, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys

import numpy as np

import run

TINY_POOL = {"roundtrip": 12, "workcell": 40, "cli_batch": 2}
TINY_SECONDS = 0.2
COUNT_UNITS = ("count", "ratio", "bytes")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def tiny(workload, seed, trace):
    return run.run(workload, seed, TINY_SECONDS, trace, pool_size=TINY_POOL[workload], setup_reps=1)


def counts(final, spec):
    return {
        m["name"]: final["metrics"][m["name"]]["value"]
        for m in spec["per_layer"]
        if m["unit"] in COUNT_UNITS
    }


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        rep0, fin0 = tiny(name, 1, False)
        check(
            fin0["correct"] and fin0["attempted"] >= 1,
            f"{name}: untraced run correct ({fin0['failed']}/{fin0['attempted']} failed)",
        )
        check(set(fin0["metrics"]) == end_to_end, f"{name}: untraced run emits the end_to_end metrics")
        rep1, fin1 = tiny(name, 1, True)
        check(fin1["correct"], f"{name}: traced run correct")
        check(set(fin1["metrics"]) == per_layer, f"{name}: traced run emits the per_layer metrics")
        check(not rep1["layer_checks"], f"{name}: layer checks {rep1['layer_checks'] or 'pass'}")
        _, fin2 = tiny(name, 1, True)
        check(counts(fin1, spec) == counts(fin2, spec), f"{name}: one seed, identical counts")
        check(rep1["inputs_sha256"] == rep0["inputs_sha256"], f"{name}: one seed, same inputs")
        rep3, _ = tiny(name, 2, False)
        check(rep3["inputs_sha256"] != rep0["inputs_sha256"], f"{name}: another seed, other inputs")
    check_unwrapped_boundary()
    check_wrong_results()
    check_repeat_speedup()
    check_bare_directory(spec)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


def check_unwrapped_boundary():
    import tracing

    kept = tracing.BOUNDARIES
    tracing.BOUNDARIES = tuple(b for b in kept if b[2] != "kernels.fk_chain")
    try:
        rep, _ = tiny("roundtrip", 1, True)
    finally:
        tracing.BOUNDARIES = kept
    check(
        any(r.startswith("kernels.fk_chain_us ") for r in rep["layer_checks"]),
        "unwrapped fk_chain boundary is reported by layer_checks",
    )


def failed_count(wl, *records):
    """Failed requests when input 0 of wl is visited once per record."""
    outcomes = run.Outcomes(wl)
    for rec in records:
        outcomes.observe(0, rec)
    return outcomes.check("selftest", 0)[1]


def check_wrong_results():
    import workloads

    params = run.import_armik(False).default_params()
    wl = workloads.Roundtrip(params, 1, 1, None)
    good = workloads.record(wl, wl.call(wl.pool[0]))
    kind, joints, reasons = good
    src = int(np.argmin(np.abs(joints - wl.pool[0].q0).max(axis=1)))
    off = joints.copy()
    off[0, 3] += 1e-6
    cases = {
        "correct result": ((good,), 0),
        "joint off by 1e-6": (((kind, off, reasons),), 1),
        "dropped rejection": (((kind, joints, reasons[:-1]),), 1),
        "generating configuration missing": (
            ((kind, np.delete(joints, src, axis=0), reasons + ("duplicate",)),), 1),
        "raise on a far pose": ((("raised", "unreachable"),), 1),
        "non-ArmikError exception": ((("exception", "ValueError: x"),), 1),
        "repeat that differs": ((good, good, (kind, off, reasons)), 1),
    }
    for what, (records, expected) in cases.items():
        got = failed_count(wl, *records)
        check(got == expected, f"roundtrip {what}: {got} failed, expected {expected}")

    work = run.WORK_DIR / "selftest-wrong"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.CliBatch(params, 1, 1, str(work))
        good = workloads.record(wl, wl.call(wl.pool[0]))
        items = wl.pool[0].items
        bad_at = next(i for i, it in enumerate(items) if it[0] == "malformed")
        ok_at = next(i for i, it in enumerate(items) if it[0] == "valid")

        def edited(edit):
            out = json.loads(good[2])
            edit(out)
            return ("exit", good[1], json.dumps(out).encode())

        def swap_tag(out):
            tag = out[bad_at]["error"]["tag"]
            out[bad_at]["error"]["tag"] = "invalid_input" if tag != "invalid_input" else "invalid_rotation"

        def nudge_joint(out):
            out[ok_at]["branches"][0]["joints"][3] += 1e-6

        def drop_rejection(out):
            out[ok_at]["rejected"].pop()

        cases = {
            "correct result": (good, 0),
            "wrong exit code": (("exit", 0, good[2]), len(items)),
            "swapped error tag": (edited(swap_tag), 1),
            "joint off by 1e-6": (edited(nudge_joint), 1),
            "dropped rejection": (edited(drop_rejection), 1),
        }
        for what, (rec, expected) in cases.items():
            got = failed_count(wl, rec)
            check(got == expected, f"cli_batch {what}: {got} failed, expected {expected}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_repeat_speedup():
    class Stub:
        pool, items_per_call = [None] * 4, 1

    first = [1e-3] * 4
    for speed, flagged in ((1.0, False), (0.5, True)):
        lat = first + [1e-3 * speed] * 8
        _, extra = run.end_to_end(Stub, lat, lat, (1.0, 1.0), 1.0)
        ratio = extra["repeat_to_first"]
        check(
            (ratio < 1.0 - run.REPEAT_SPEEDUP_BOUND) == flagged,
            f"repeats at {speed} of the first visit's time give ratio {ratio}",
        )


def check_bare_directory(spec):
    bare = run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for p in spec["paths"]:
            shutil.copytree(run.ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        args = ["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1"]
        done = subprocess.run(
            spec["command"] + args + ["--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        printed = [line for line in done.stdout.splitlines() if line.startswith("{")]
        check(
            done.returncode != 0 and not printed,
            f"bare directory: exit {done.returncode}, no result printed",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK_DIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
