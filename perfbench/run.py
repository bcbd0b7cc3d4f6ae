"""monohjb benchmark: time to a certified value, set-up cost and rollout latency.

Usage (from the repository root):

    python3 perfbench/run.py --workload certified_picard --seed 1 --seconds 20 --trace 0

Runs timed iterations of one workload for `--seconds`, checks every output
outside the timings, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics.  `--trace 0` reports the
end-to-end metrics; `--trace 1` alternates untraced and traced iterations and
reports the per-layer metrics.  The line before it is a JSON record of the
machine, the software and the sample counts.  Outputs and span dumps go to
`.perfbench_out/` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_ITERATIONS = 3           # per kind (untraced / traced) before stopping
MIN_TRAJECTORIES = 200       # timed trajectory starts per run, so >= 10 lie beyond p95
NO_HOWARD = {"bellman.apply_policy_calls": "not applicable: no Howard solve"}
OFFLINE = {"feedback.self_s": "not applicable: the rollouts lie outside the timed iteration;"
                              " their calls and times count from their own root span"}
PER_LAYER_NOTES = {
    "fine_horizon": {
        "solver.solve_s": "solve_finite_horizon; solver.iterations is its mu",
        "solver.guaranteed_error": "solve_finite_horizon reports none: ||A u - u|| / "
                                   "(lambda h), the distance bound of u to the fixed point",
        "feedback.cost_consistency_gap": "reported only: a horizon-4 value is no fixed point",
        **NO_HOWARD, **OFFLINE,
    },
    "certified_picard": {**NO_HOWARD, **OFFLINE},
    "certified_howard": OFFLINE,
    "feedback_rollout": NO_HOWARD,
}
HARD_STOP_S = 120            # stop regardless, well inside the 180 s a run may take


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def environment(seed: int) -> dict:
    import numpy
    from importlib import metadata

    cpu = next((line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), "unknown")
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = \
            _read(idx / "size")
    head = _read(ROOT / ".git" / "HEAD")
    commit = head
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(ROOT / ".git" / ref) or next(
            (line.split()[0] for line in _read(ROOT / ".git" / "packed-refs").splitlines()
             if line.endswith(" " + ref)), "")
    digest = hashlib.sha256()
    for f in sorted((SRC / "monohjb").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "thread_env": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "git_commit": commit or None,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def end_to_end(wl, its, peak_rss_mb) -> dict:
    """End-to-end metrics; every time is scaled to reference host speed by
    its phase's calibration (see speed.py)."""
    import numpy as np

    times = np.array([t for it in its for t in it.traj_times()])
    steps = sum(it.notes["steps"] for it in its)
    p50, p95 = np.percentile(times, [50, 95])
    scaled = [it.times(wl) for it in its]
    return {
        "setup_s": (statistics.median([t["setup_s"] for t in scaled]), "s"),
        "solve_s": (statistics.median([t["solve_s"] for t in scaled]), "s"),
        "total_s": (statistics.median([t["total_s"] for t in scaled]), "s"),
        "rollout_p50_ms": (float(p50) * 1e3, "ms"),
        "rollout_p95_ms": (float(p95) * 1e3, "ms"),
        "rollout_steps_per_s": (steps / float(times.sum()), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


COMPUTED = ("mesh.n_vertices", "mesh.n_simplices", "bellman.sweep_candidates",
            "bellman.gather_bytes_per_sweep", "bellman.table_bytes")


def per_layer(wl, tracer, traced, untraced) -> dict:
    """Per-layer numbers: medians over the traced iterations of per-iteration
    values, plus the counts in COMPUTED, derived from array sizes.  Self times
    come from the iteration's root span, which is what total_s times; calls
    and inclusive times also from the rollouts' root where they have one.  A
    traced iteration takes no calibration samples, which would sit in its
    spans; its span times are scaled by its phases' factors, averaged over
    its total_s."""
    rows = []
    for it in traced:
        f = it.times(wl)["total_s"] / it.times(wl, scaled=False)["total_s"]
        inclusive, calls, self_s = tracer.tree(it.root)
        if it.rollout_root is not None:
            more_inclusive, more_calls, _ = tracer.tree(it.rollout_root)
            for name, v in more_inclusive.items():
                inclusive[name] = inclusive.get(name, 0.0) + v
            for name, n in more_calls.items():
                calls[name] = calls.get(name, 0) + n
        check_inclusive, _, _ = tracer.tree(it.check_root)
        rows.append({"it": it, "calls": calls,
                     "incl": {k: v * f for k, v in inclusive.items()},
                     "self": {k: v * f for k, v in self_s.items()},
                     "check": {k: v * f for k, v in check_inclusive.items()}})

    def med(fn):
        return statistics.median([fn(r) for r in rows])

    def incl(*names):
        return med(lambda r: sum(r["incl"].get(n, 0.0) for n in names))

    def calls(*names):
        return med(lambda r: sum(r["calls"].get(n, 0) for n in names))

    notes = traced[0].notes
    n, nl, nu = notes["n_vertices"], notes["n_levels"], notes["dim"]
    candidates = n * nl * (nl + 1) // 2
    solver_call = "solver.solve" if wl.mu is None else "solver.solve_finite_horizon"
    m = {
        # callbacks have no children: this is also the problem layer's self time
        "problem.callback_s": (incl("problem.dynamics", "problem.cost"), "s"),
        "problem.dynamics_calls": (calls("problem.dynamics"), "count"),
        "problem.cost_calls": (calls("problem.cost"), "count"),
        "mesh.build_uniform_s": (incl("mesh.build_uniform"), "s"),
        "mesh.check_hypotheses_s": (incl("mesh.check_hypotheses"), "s"),
        "mesh.locate_s": (incl("mesh.locate_many", "mesh.locate"), "s"),
        "mesh.locate_calls": (calls("mesh.locate_many", "mesh.locate"), "count"),
        "mesh.n_vertices": (n, "count"),
        "mesh.n_simplices": (notes["n_simplices"], "count"),
        "bellman.build_table_s": (incl("bellman.build_table"), "s"),
        "bellman.table_bytes": (notes["table_bytes"], "B"),
        "bellman.apply_ms": (med(lambda r: r["check"]["bellman.apply"]) * 1e3, "ms"),
        "bellman.apply_calls": (calls("bellman.apply"), "count"),
        "bellman.apply_policy_calls": (calls("bellman.apply_policy"), "count"),
        "bellman.greedy_policy_s": (incl("bellman.greedy_policy"), "s"),
        "bellman.sweep_candidates": (candidates, "count"),
        # an index, a weight and a gathered value, 8 bytes each, per stencil vertex
        "bellman.gather_bytes_per_sweep": (candidates * (nu + 1) * 3 * 8, "B"),
        "solver.solve_s": (incl(solver_call), "s"),
        "solver.iterations": (notes["iterations"], "count"),
        "solver.s_per_iteration": (incl(solver_call) / notes["iterations"], "s"),
        "solver.guaranteed_error": (notes["guaranteed_error"], "cost"),
        "solver.recomputed_certificate": (notes["recomputed_certificate"], "cost"),
        "fespace.nodal_csv_s": (incl("fespace.nodal_csv"), "s"),
        "fespace.nodal_csv_bytes": (traced[0].csv_path.stat().st_size, "B"),
        "feedback.simulate_s": (incl("feedback.simulate"), "s"),
        "feedback.steps": (notes["steps"], "count"),
        "feedback.control_switches": (med(lambda r: r["it"].notes["switches"]), "count"),
        "feedback.cost_consistency_gap": (max(it.notes["max_gap"] for it in traced), "cost"),
    }
    for layer in ("mesh", "bellman", "solver", "fespace", "feedback", "bench"):
        m[f"{layer}.self_s"] = (med(lambda r: r["self"].get(layer, 0.0)), "s")
    traced_total = statistics.median([it.times(wl)["total_s"] for it in traced])
    untraced_total = statistics.median([it.times(wl)["total_s"] for it in untraced])
    m.update({
        "trace.total_traced_s": (traced_total, "s"),
        "trace.total_untraced_s": (untraced_total, "s"),
        "trace.overhead_s": (traced_total - untraced_total, "s"),
        "trace.layer_self_sum_s": (
            med(lambda r: sum(v for key, v in r["self"].items() if key != "bench")), "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return m


def import_library():
    """Import monohjb from this checkout's sources, never from elsewhere on
    the path; returns an error message, or None on success."""
    if not (SRC / "monohjb" / "__init__.py").is_file():
        return f"no monohjb sources under {SRC}; run from a full checkout"
    sys.path.insert(0, str(SRC))
    import monohjb
    if Path(monohjb.__file__).resolve().parent != (SRC / "monohjb").resolve():
        return f"imported monohjb from {monohjb.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    error = import_library()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    import numpy as np

    from spans import NullTracer, Tracer
    from speed import REFERENCE_S, Calibration
    from workloads import (KERNEL, LIBRARY_ERRORS, WARMUP_K, WORKLOADS, check,
                           run_iteration, starts)

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    refs = json.loads((Path(__file__).parent / "reference.json").read_text())
    ref = refs["workloads"][wl.name]
    ref_values = (np.load(Path(__file__).parent / ref["values_file"])
                  if "values_file" in ref else None)
    out_dir = OUT / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    null = NullTracer()
    tracer = Tracer()

    # Warm-up on a coarse mesh: imports, code paths, the calibration kernels
    # and the allocator settle.
    calibration = Calibration()
    warm = np.random.default_rng([args.seed, 2 ** 31])
    run_iteration(wl, WARMUP_K, *starts(WARMUP_K, 5, warm), null, out_dir, calibration,
                  sample=True)

    attempted = failed = 0
    untraced, traced, failures = [], [], []
    peak_rss_mb = None
    t_start = time.perf_counter()
    i = 0
    while True:
        trace_this = bool(args.trace) and i % 2 == 1
        tr = tracer if trace_this else null
        x0, a0 = starts(wl.k, wl.rollouts, np.random.default_rng([args.seed, i]))
        attempted += 1 + wl.rollouts
        busy = calibration.busy_samples
        try:
            calibration.sample()
            if trace_this:
                with tracer.patched():
                    it = run_iteration(wl, wl.k, x0, a0, tr, out_dir, calibration)
                calibration.sample()
            else:
                it = run_iteration(wl, wl.k, x0, a0, tr, out_dir, calibration, sample=True)
            if peak_rss_mb is None:
                # every iteration is alike, so the peak before the first one's
                # checks is the program's, not the checks'
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            it.scale = [calibration.factor(KERNEL[name], start, end)
                        for name, start, end in it.phases]
            problems = check(wl, it, ref, tr, ref_values)
            busy = calibration.busy_samples - busy
            if busy:
                problems.append(f"other threads of the process used CPU during {busy}"
                                " calibration samples, so its times cannot be scaled")
        except LIBRARY_ERRORS as exc:
            failed += 1 + wl.rollouts
            failures.append(f"iteration {i}: {type(exc).__name__}: {exc}")
        else:
            failed += bool(problems) + it.failed_trajectories
            failures += [f"iteration {i}: {p}" for p in problems]
            if it.failed_trajectories:
                failures.append(f"iteration {i}: {it.failed_trajectories} trajectories failed")
            (traced if trace_this else untraced).append(it)
        i += 1
        elapsed = time.perf_counter() - t_start
        enough = len(untraced) >= MIN_ITERATIONS and (
            len(traced) >= MIN_ITERATIONS if args.trace
            else wl.rollouts * len(untraced) >= MIN_TRAJECTORIES)
        # stop at the iteration boundary nearest to --seconds
        if (enough and elapsed + 0.5 * elapsed / i >= args.seconds) or elapsed >= HARD_STOP_S:
            break

    metrics = {}
    if untraced and (traced or not args.trace):
        metrics = (per_layer(wl, tracer, traced, untraced) if args.trace
                   else end_to_end(wl, untraced, peak_rss_mb))
    stamp = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(OUT / f"spans-{stamp}.json")
    info = {
        "workload": wl.name,
        "why": wl.why,
        "environment": environment(args.seed),
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {"per_iteration_metrics": len(untraced), "rollout_trajectories":
                    wl.rollouts * len(untraced)},
        "calibration": {"reference_s": REFERENCE_S, "sample_clock_s": calibration.times,
                        "kernel_s": calibration.kernel_s,
                        "busy_samples": calibration.busy_samples},
        "raw_per_iteration": [it.times(wl, scaled=False) for it in untraced],
        "phases_per_iteration": [it.phases for it in untraced],
        "scale_per_iteration": [it.scale for it in untraced],
        "rollout_raw_s_per_iteration": [[it.traj_phase, it.traj_seconds] for it in untraced],
        "solver_entry": "solve" if wl.mu is None else "solve_finite_horizon",
        "computed_not_measured": list(COMPUTED),
        "per_layer_notes": PER_LAYER_NOTES.get(wl.name, {}),
        "largest_array_bytes": untraced[0].notes["largest_array_bytes"] if untraced else None,
        "failures": failures[:20],
    }
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT / f"result-{stamp}.json").write_text(json.dumps({"info": info, "result": result},
                                                         indent=1, default=float))
    print(json.dumps({"info": info}, default=float))
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
