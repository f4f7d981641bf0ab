"""troprat benchmark runner.

    python3 perfbench/run.py --workload dense2d --seed 1 --seconds 20 --trace 0

Run from the repository root.  Every workload is a closed loop with one
client: one worker interpreter sends requests one after another (for `cli`,
it starts one `python -m troprat.cli` child at a time).  Each run starts the
worker fresh, so the process-wide canonical-form cache starts empty.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload's fixed
trace request set twice, untraced and traced, and prints the per-layer
metrics.  The last stdout line is the result object; the line before it holds
the environment and input-property record, which is also written with the
spans under perfbench/out/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

NAMES = ("dense2d", "duality", "factor", "cli")
SEEDS = {"default": 1, "holdout": 2}  # holdout: a seed kept out of tuning
MIN_REQUESTS = 100  # so that ten latency samples lie beyond p90
SETUP_SAMPLES = 5  # worker start-ups per run; setup_s is their median
RUN_LIMIT_S = 100  # a measuring worker stops early rather than break the 180 s budget
WORKER_TIMEOUT_S = 150

UNITS = {
    "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}

# (per-layer metric, unit); spans and counters come from tracer.TRACED
PER_LAYER = [
    ("geom.upper_faces_2d.calls", "count"),
    ("geom.upper_faces_2d.self_ms", "ms"),
    ("geom.upper_faces_2d.points_in", "count"),
    ("geom.upper_faces_2d.facets_out", "count"),
    ("geom.hull2.calls", "count"),
    ("geom.hull2.self_ms", "ms"),
    ("geom.lattice_points.points_out", "count"),
    ("subdiv.dual_subdivision.calls", "count"),
    ("subdiv.dual_subdivision.self_ms", "ms"),
    ("subdiv.dual_subdivision.cells_out", "count"),
    ("subdiv.mcomp.self_ms", "ms"),
    ("core.canonicalize.calls", "count"),
    ("core.canonicalize.self_ms", "ms"),
    ("curve.plane_curve.calls", "count"),
    ("curve.plane_curve.self_ms", "ms"),
    ("curve.plane_curve.vertices_out", "count"),
    ("curve.curve_to_divisor.self_ms", "ms"),
    ("core.func_eq.self_ms", "ms"),
    ("core.canonical_cache.hits", "count"),
    ("core.canonical_cache.misses", "count"),
    ("core.canonical_cache.lookups", "count"),
    ("core.canonical_cache.hit_ratio", "ratio"),
    ("core.eval.calls", "count"),
    ("core.eval.terms", "count"),
    ("core.eval.self_ms", "ms"),
    ("curve.hypersurface_member.calls", "count"),
    ("curve.hypersurface_member.self_ms", "ms"),
    ("curve.duality_samples.self_ms", "ms"),
    ("curve.graph_duality_check.self_ms", "ms"),
    ("curve.duality.locus_samples", "count"),
    ("curve.duality.locus_hit_ratio", "ratio"),
    ("parse.parse_poly.calls", "count"),
    ("parse.parse_poly.self_ms", "ms"),
    ("parse.parse_poly.terms_out", "count"),
    ("core.mul.calls", "count"),
    ("core.mul.self_ms", "ms"),
    ("rep.enumerate_factorizations.calls", "count"),
    ("rep.enumerate_factorizations.self_ms", "ms"),
    ("rep.enumerate_factorizations.factorizations_out", "count"),
    ("rep.factor.yield_ratio", "ratio"),
    ("geom.summand_decompositions.calls", "count"),
    ("geom.summand_decompositions.self_ms", "ms"),
    ("geom.summand_decompositions.pairs_out", "count"),
    ("rep.try_divide.calls", "count"),
    ("rep.try_divide.self_ms", "ms"),
    ("rep.try_divide.quotient_ratio", "ratio"),
    ("rep.minrep_uni.self_ms", "ms"),
    ("rep.vol_pair.self_ms", "ms"),
    ("cli.process_ms", "ms"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("cli.stdout_bytes", "bytes"),
    ("svg.render_svg.calls", "count"),
    ("svg.render_svg.self_ms", "ms"),
    ("svg.render_svg.bytes_out", "bytes"),
    ("trace.requests", "count"),
    ("trace.spans", "count"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_ops_per_s", "1/s"),
]


def _seed(text: str) -> int:
    return SEEDS[text] if text in SEEDS else int(text)


def _ratio(num, den):
    return num / den if den else 0.0


def _worker_env():
    from_env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    return {**from_env, "PYTHONPATH": os.pathsep.join(["src", "tests"]),
            "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}


# ---------------------------------------------------------------------------
# worker side (a fresh interpreter per phase)


def _median_ms(ns):
    return statistics.median(ns) / 1e6 if ns else 0.0


def _py_probe_ms(code, repeats=5):
    from workloads import child_env

    times = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                       capture_output=True, timeout=60)
        times.append(perf_counter_ns() - t0)
    return _median_ms(times)


def worker(phase, name, seed, seconds):
    """Set up one workload, run it in one phase, print one JSON line."""
    from troprat import core
    import workloads

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() and phase != "golden" else {}
    if name == "cli":
        import troprat.cli

        load = workloads.Cli(seed, golden.get("cli", {}))
    else:
        load = workloads.WORKLOADS[name](seed)
    expected = golden.get(name, {}).get(str(seed), [])
    batch = load.cycle(0)
    ready_ns = time.monotonic_ns()
    if phase == "setup":
        print(json.dumps({"ready_ns": ready_ns}))
        return

    tracer = None
    if phase == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    in_process = phase == "traced" and name == "cli"
    run = load.run
    if in_process:
        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()):
                code = troprat.cli.main(list(argv))
            return code, out.getvalue()

    # A measuring run is a fixed number of whole cycles: --seconds of work at
    # the workload's nominal rate, and at least MIN_REQUESTS requests.  The
    # same seed and --seconds give the same requests on every commit, so a
    # faster commit does not earn extra cache reuse by reaching further
    # cycles.  --seconds 0 (the smoke run) is one cycle of every phase.
    if not seconds:
        cycles = 1
    elif phase in ("fixed", "traced"):
        cycles = load.trace_cycles
    else:
        cycles = max(-(-MIN_REQUESTS // len(batch)), round(seconds * load.cycles_per_s))
    cache0 = core._canonical_cached.cache_info()
    lat, digests, failures, requests = [], [], 0, []
    props = {"requests": 0, "terms": 0, "lattice_points": 0, "max_den": 1}
    stdout_bytes = 0
    cycle, start = 0, time.monotonic()
    while True:
        for req in batch:
            if phase == "golden":
                requests.append(req)
            if tracer:
                tracer.request = len(lat)
                tracer.active = True
            t0 = perf_counter_ns()
            try:
                out, error = run(req), None
            except Exception as exc:  # a failed request is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            lat.append(perf_counter_ns() - t0)
            if tracer:
                tracer.active = False
            if in_process:
                ok = error is None and out[0] == (2 if req in workloads.CLI_MALFORMED else 0)
                digests.append(None)
            elif error is None:
                ok, d = load.check(req, out)
                i = len(digests)
                ok = ok and (i >= len(expected) or expected[i] == d)
                digests.append(d)
                p = load.props(req, out)
                props["requests"] += 1
                props["terms"] += p["terms"]
                props["lattice_points"] += p["lattice_points"]
                props["max_den"] = max(props["max_den"], p["max_den"])
                if name == "cli":
                    stdout_bytes += len(out[1])
            else:
                ok = False
                digests.append(None)
            if not ok:
                failures += 1
                print(f"request {len(lat) - 1} failed: {error or 'wrong output'}",
                      file=sys.stderr)
        cycle += 1
        if cycle >= cycles or time.monotonic() - start > RUN_LIMIT_S:
            break
        batch = load.cycle(cycle)
    cache1 = core._canonical_cached.cache_info()
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    )
    result = {
        "ready_ns": ready_ns,
        "latencies_ns": lat,
        "failed": failures,
        "cycles": cycle,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        # cli digests are checked by request, the others by index
        "golden_checked": len(digests) if golden.get("cli") and name == "cli"
        else min(len(expected), len(digests)),
        "cache_hits": cache1.hits - cache0.hits,
        "cache_misses": cache1.misses - cache0.misses,
        "inputs": _summarize_props(props),
    }
    if phase == "golden":
        result["digests"] = digests
        if name == "cli":
            result["keys"] = [workloads.cli_key(argv) for argv in requests]
    if phase == "fixed" and name == "cli":
        result["cli"] = _cli_layer(load, batch, stdout_bytes, lat)
    if tracer:
        tracer.close()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}-{seed}.json")
        result["trace"] = {
            "calls": tracer.calls,
            "self_ms": {k: v / 1e6 for k, v in tracer.self_ns.items()},
            "counters": tracer.counters,
            "spans": len(tracer.spans),
        }
    print(json.dumps(result))


def _summarize_props(props):
    n = props["requests"]
    return {
        "requests": n,
        "terms_mean": _ratio(props["terms"], n),
        "lattice_points_mean": _ratio(props["lattice_points"], n),
        "max_coefficient_denominator": props["max_den"],
    }


def _cli_layer(load, batch, stdout_bytes, lat):
    """CLI cost split: bare interpreter, import, and in-process main()."""
    import troprat.cli

    interpreter = _py_probe_ms("pass")
    imported = _py_probe_ms("import troprat.cli")
    main_ns = []
    for argv in batch:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter_ns()
            troprat.cli.main(list(argv))
            main_ns.append(perf_counter_ns() - t0)
    return {
        "cli.process_ms": _median_ms(lat),
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported - interpreter,
        "cli.main_ms": _median_ms(main_ns),
        "cli.stdout_bytes": stdout_bytes,
        "main_ops_per_s": len(main_ns) / (sum(main_ns) / 1e9),
    }


# ---------------------------------------------------------------------------
# parent side: start workers, turn their output into metrics


def _spawn(phase, name, seed, seconds):
    """Run one worker phase; returns (its JSON result, spawn time)."""
    spawn_ns = time.monotonic_ns()
    # a process group of its own, so that a timeout also ends the worker's cli children
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__)), "--worker", phase,
         "--workload", name, "--seed", str(seed), "--seconds", str(seconds)],
        env=_worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {phase} for {name} timed out")
    sys.stderr.write(stderr)
    if proc.returncode != 0 or not stdout.strip():
        raise SystemExit(f"worker {phase} for {name} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), spawn_ns


def environment():
    src = Path("src")
    files = sorted(src.rglob("*.py"))
    commit = None
    head = Path(".git/HEAD")
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = Path(".git") / ref[5:]
            commit = target.read_text().strip() if target.exists() else ref[5:]
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "worker_env": {k: _worker_env()[k] for k in ("PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED", "PYTHONPATH")},
        "caller_PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "caller_PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "git_commit": commit,
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
        "src_files": len(files),
    }


def untraced(name, seed, seconds):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        res, spawn = _spawn("setup", name, seed, seconds)
        setups.append((res["ready_ns"] - spawn) / 1e9)
    res, spawn = _spawn("measure", name, seed, seconds)
    setups.append((res["ready_ns"] - spawn) / 1e9)
    lat = res["latencies_ns"]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    metrics = {
        "ops_per_s": len(lat) / (sum(lat) / 1e9),
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "latency_p90_ms": p90 / 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    lookups = res["cache_hits"] + res["cache_misses"]
    record = {
        "requests": len(lat),
        "samples_beyond_p90": sum(1 for x in lat if x > p90),
        "cycles": res["cycles"],
        "timed_s": sum(lat) / 1e9,
        "fail_ratio": res["failed"] / len(lat),
        "golden_checked": res["golden_checked"],
        "setup_samples_s": setups,
        "inputs": {**res["inputs"], "canonical_cache_hits": res["cache_hits"],
                   "canonical_cache_lookups": lookups,
                   "canonical_cache_hit_share": _ratio(res["cache_hits"], lookups)},
    }
    return metrics, len(lat), res["failed"], record


def traced(name, seed, seconds):
    base, _ = _spawn("fixed", name, seed, seconds)
    res, _ = _spawn("traced", name, seed, seconds)
    calls, self_ms, counters = res["trace"]["calls"], res["trace"]["self_ms"], res["trace"]["counters"]
    values = {}
    for span, n in calls.items():
        values[f"{span}.calls"] = n
        values[f"{span}.self_ms"] = self_ms[span]
    values.update(counters)
    hits, misses = counters["core.canonical_cache.hits"], counters["core.canonical_cache.misses"]
    values["core.canonical_cache.lookups"] = hits + misses
    values["core.canonical_cache.hit_ratio"] = _ratio(hits, hits + misses)
    values["curve.duality.locus_samples"] = counters["curve.graph_duality_check.locus_samples"]
    values["curve.duality.locus_hit_ratio"] = _ratio(
        counters["curve.graph_duality_check.locus_hits"],
        counters["curve.graph_duality_check.locus_samples"],
    )
    found = counters["rep.enumerate_factorizations.factorizations_out"]
    values["rep.factor.yield_ratio"] = _ratio(
        found - calls["rep.enumerate_factorizations"],
        counters["geom.summand_decompositions.pairs_out"],
    )
    values["rep.try_divide.quotient_ratio"] = _ratio(
        counters["rep.try_divide.quotients"], calls["rep.try_divide"]
    )
    lat = res["latencies_ns"]
    traced_ops = len(lat) / (sum(lat) / 1e9)
    if name == "cli":
        values.update({k: v for k, v in base["cli"].items() if k.startswith("cli.")})
        untraced_ops = base["cli"]["main_ops_per_s"]
    else:
        blat = base["latencies_ns"]
        untraced_ops = len(blat) / (sum(blat) / 1e9)
    values.update({
        "trace.requests": len(lat),
        "trace.spans": res["trace"]["spans"],
        "trace.ops_per_s_untraced": untraced_ops,
        "trace.ops_per_s_traced": traced_ops,
        "trace.overhead_ops_per_s": traced_ops - untraced_ops,
    })
    metrics = {m: values.get(m, 0) for m, _ in PER_LAYER}
    attempted = len(lat) + len(base["latencies_ns"])
    failed = res["failed"] + base["failed"]
    record = {"requests": len(lat), "untraced_requests": len(base["latencies_ns"]),
              "fail_ratio": failed / attempted, "inputs": base["inputs"]}
    return metrics, attempted, failed, record


def measure(name, seed, seconds, trace):
    metrics, attempted, failed, record = (traced if trace else untraced)(name, seed, seconds)
    units = dict(PER_LAYER) if trace else UNITS
    record.update({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                   "environment": environment()})
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1)
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, record


def smoke():
    """One cycle of every workload, untraced and traced: every metric name
    appears and nothing fails."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    want = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, _ = measure(w["name"], SEEDS["default"], 0, trace)
            missing = [m for m in want[trace] if m not in result["metrics"]]
            ok = result["correct"] and not missing
            bad += not ok
            print(json.dumps({"workload": w["name"], "trace": trace, "ok": ok,
                              "fail_ratio": result["failed"] / result["attempted"],
                              "missing": missing, "metrics": sorted(result["metrics"])}))
    return 1 if bad else 0


def capture_golden(seconds):
    """Record output digests of every request that a run of `seconds` makes
    with the named seeds, and of every cli request (at a trusted commit)."""
    doc = {}
    for name in NAMES:
        doc[name] = {}
        for seed in SEEDS.values():
            res, _ = _spawn("golden", name, seed, seconds)
            if res["failed"]:
                raise SystemExit(f"{name} seed {seed}: {res['failed']} requests fail their checks")
            if name != "cli":
                doc[name][str(seed)] = res["digests"]
                continue
            for key, d in zip(res["keys"], res["digests"]):
                if doc[name].setdefault(key, d) != d:
                    raise SystemExit(f"cli output is not deterministic for {key!r}")
    GOLDEN.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="dense2d")
    ap.add_argument("--seed", default="default", help="an integer, 'default' or 'holdout'")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one cycle of every workload")
    ap.add_argument("--capture-golden", action="store_true",
                    help="rewrite golden.json from the current library")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.worker, args.workload, int(args.seed), args.seconds)
        return 0
    if not (Path("src/troprat/__init__.py").is_file() and Path("tests/oracles.py").is_file()):
        print("run from the repository root: src/troprat and tests/oracles.py are needed",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.capture_golden:
        capture_golden(args.seconds)
        return 0
    if args.workload not in NAMES:
        ap.error(f"--workload must be one of {', '.join(NAMES)}")
    result, record = measure(args.workload, _seed(args.seed), args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
