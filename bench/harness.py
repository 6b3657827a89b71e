"""The closed loop, the oracle bookkeeping and the metrics of one run.

Imported by run.py only after it has set PYTHONPATH and the BLAS thread
variables, since importing this module imports numpy and the library.
"""

from __future__ import annotations

import itertools
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from clock import REF_MS, cpu_seconds, reference_ms, speed_scale
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
STARTUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER = {
    "core.eigh.calls": "count",
    "core.eigh.self_ms": "ms",
    "core.eigh.redundant_frac": "ratio",
    "core.eigh.n_hist.n": "count",
    "core.eigh.n_hist.n-1": "count",
    "core.eigh.n_hist.other": "count",
    "core.deck.calls": "count",
    "core.deck.self_ms": "ms",
    "core.parse_matrix.self_ms": "ms",
    "squares.square_table_from_deck.self_ms": "ms",
    "squares.reconstruct_square.calls": "count",
    "squares.max_abs_err": "abs",
    "secular.rank1_update.self_ms": "ms",
    "secular.secular_roots.self_ms": "ms",
    "secular.secular_eval.self_ms": "ms",
    "secular.secular_eval.calls": "count",
    "secular.secular_eval.per_root": "ratio",
    "secular.max_residual_ratio": "ratio",
    "verify.verify_gm.self_ms": "ms",
    "verify.verify_theorem_main.self_ms": "ms",
    "verify.probe_permutation_conjecture.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.startup_ms": "ms",
    "trace.overhead_ms": "ms",
}


def measure(wl, items, seconds, op, tracer=None):
    """Closed loop over whole cycles until ``seconds`` of operation CPU time.

    Each operation is bracketed by reference-kernel passes, and its scaled
    time is its CPU time times ``REF_MS`` over their mean. With a tracer,
    cycles alternate untraced and traced, so that both halves see the same
    machine conditions; untraced records have ``trace`` None. Returns one
    record per operation and the first cycle's outputs.
    """
    records, outputs = [], []
    timed = 0.0
    ref = reference_ms()
    for cycle in itertools.count():
        traced = tracer is not None and cycle % 2 == 1
        if traced:
            tracer.install()
        try:
            for item in items:
                if traced:
                    tracer.begin_op()
                start, start_wall = cpu_seconds(), time.perf_counter()
                try:
                    out = op(item)
                except Exception as exc:  # an uncaught exception is a failed operation
                    out = exc
                cpu = cpu_seconds() - start
                wall = time.perf_counter() - start_wall
                trace = tracer.end_op() if traced else None
                ref_after = reference_ms()
                scale = 2.0 * REF_MS / (ref + ref_after)
                ref = ref_after
                timed += cpu
                if isinstance(out, Exception):
                    ok, reason = False, f"{type(out).__name__}: {out}"
                else:
                    try:
                        ok, reason = wl.check(item, out)
                    except (KeyError, TypeError, ValueError, IndexError) as exc:
                        ok, reason = False, f"unreadable output: {exc!r}"
                if cycle == 0:
                    outputs.append(out)
                records.append({"item": item, "ok": ok, "reason": reason,
                                "cpu": cpu, "wall": wall, "scale": scale,
                                "latency": cpu * scale, "trace": trace,
                                "maxrss_kb": getattr(out, "maxrss_kb", 0)})
        finally:
            if traced:
                tracer.restore()
        if timed >= seconds and (tracer is None or traced):
            return records, outputs


def summarize(records) -> dict:
    failed = [r for r in records if not r["ok"]]
    reasons, latencies = {}, {}
    for r in failed:
        reasons.setdefault(r["item"].kind, r["reason"])
    for r in records:
        latencies.setdefault(r["item"].kind, []).append(r["latency"] * 1e3)
    return {
        "attempted": len(records),
        "failed": len(failed),
        "error_rate": len(failed) / len(records),
        "failed_not_adversarial": sum(not r["item"].adversarial for r in failed),
        "failed_by_kind": dict(Counter(r["item"].kind for r in failed)),
        "attempted_by_kind": dict(Counter(r["item"].kind for r in records)),
        "first_reason_by_kind": reasons,
        "p50_ms_by_kind": {k: statistics.median(v) for k, v in latencies.items()},
    }


def setup_samples(name, seed, workdir) -> tuple[list[float], list[float]]:
    """Scaled and raw CPU seconds of fresh set-ups of the workload, each in
    its own process, with the speed scale taken just before and after."""
    scaled, raw = [], []
    for k in range(SETUP_SAMPLES):
        probe_dir = workdir / f"probe{k}"
        probe_dir.mkdir()
        before = speed_scale()
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(probe_dir)],
            check=True, capture_output=True, text=True, timeout=120)
        scale = (before + speed_scale()) / 2.0
        raw.append(float(out.stdout))
        scaled.append(raw[-1] * scale)
    return scaled, raw


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(wl, records, setup_scaled, setup_raw) -> tuple[dict, dict]:
    lat_ms = [r["latency"] * 1e3 for r in records]
    cpu_ms = [r["cpu"] * 1e3 for r in records]
    wall_ms = [r["wall"] * 1e3 for r in records]
    tail = percentile(lat_ms, wl.tail_pct)
    # The CLI workload's operations are child processes, each measured alone.
    peak_kb = max(r["maxrss_kb"] for r in records) or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail,
        "peak_rss_mb": peak_kb / 1024.0,
        "success_rate": sum(r["ok"] for r in records) / len(records),
    }
    details = {
        "latency_samples": len(lat_ms),
        "tail_percentile": wl.tail_pct,
        "tail_samples_beyond": sum(x > tail for x in lat_ms),
        "setup_samples_s": setup_scaled,
        "speed_scale_p50": statistics.median(r["scale"] for r in records),
        "cpu_setup_samples_s": setup_raw,
        "cpu_p50_ms": statistics.median(cpu_ms),
        "cpu_tail_ms": percentile(cpu_ms, wl.tail_pct),
        "cpu_s": sum(cpu_ms) / 1e3,
        "wall_p50_ms": statistics.median(wall_ms),
        "wall_tail_ms": percentile(wall_ms, wl.tail_pct),
        "wall_s": sum(wall_ms) / 1e3,
    }
    return metrics, details


def startup_ms() -> float:
    """Scaled CPU milliseconds of a bare ``import eigenrecon.cli`` process."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        before, start = speed_scale(), cpu_seconds()
        subprocess.run([sys.executable, "-c", "import eigenrecon.cli"],
                       check=True, timeout=60)
        cpu = cpu_seconds() - start
        samples.append(cpu * 1e3 * (before + speed_scale()) / 2.0)
    return statistics.median(samples)


def per_layer(wl, records) -> tuple[dict, dict]:
    traced = [r for r in records if r["trace"] is not None]
    untraced = [r for r in records if r["trace"] is None]
    ops = len(traced)
    calls, self_ms, sizes, by_kind = Counter(), Counter(), Counter(), {}
    redundant = roots = 0
    for r in traced:
        t = r["trace"]
        calls.update(t.calls)
        self_ms.update({name: s * 1e3 * r["scale"] for name, s in t.self_s.items()})
        sizes.update(t.eigh_sizes)
        redundant += t.eigh_redundant
        roots += t.roots
        by_kind.setdefault(r["item"].kind, Counter()).update({
            "ops": 1, "eigh_calls": t.calls["core.eigh"], "eigh_redundant": t.eigh_redundant,
            "secular_eval_calls": t.calls["secular.secular_eval"], "roots": t.roots})

    def count(name):
        return calls[name] / ops

    def ms(name):
        return self_ms[name] / ops

    n = wl.n
    traced_s = sum(r["latency"] for r in traced)
    untraced_s = sum(r["latency"] for r in untraced)
    sq_err, res_ratio = workloads.captured_diagnostics(
        call for r in traced for call in r["trace"].captured)
    metrics = {
        "core.eigh.calls": count("core.eigh"),
        "core.eigh.self_ms": ms("core.eigh"),
        "core.eigh.redundant_frac": redundant / calls["core.eigh"] if calls["core.eigh"] else 0.0,
        "core.eigh.n_hist.n": sizes[n] / ops,
        "core.eigh.n_hist.n-1": sizes[n - 1] / ops,
        "core.eigh.n_hist.other": (sum(sizes.values()) - sizes[n] - sizes[n - 1]) / ops,
        "core.deck.calls": count("core.deck"),
        "core.deck.self_ms": ms("core.deck"),
        "core.parse_matrix.self_ms": ms("core.parse_matrix"),
        "squares.square_table_from_deck.self_ms": ms("squares.square_table_from_deck"),
        "squares.reconstruct_square.calls": count("squares.reconstruct_square"),
        "squares.max_abs_err": sq_err,
        "secular.rank1_update.self_ms": ms("secular.rank1_update"),
        "secular.secular_roots.self_ms": ms("secular.secular_roots"),
        "secular.secular_eval.self_ms": ms("secular.secular_eval"),
        "secular.secular_eval.calls": count("secular.secular_eval"),
        "secular.secular_eval.per_root": calls["secular.secular_eval"] / roots if roots else 0.0,
        "secular.max_residual_ratio": res_ratio,
        "verify.verify_gm.self_ms": ms("verify.verify_gm"),
        "verify.verify_theorem_main.self_ms": ms("verify.verify_theorem_main"),
        "verify.probe_permutation_conjecture.self_ms": ms("verify.probe_permutation_conjecture"),
        "cli.main.self_ms": ms("cli.main"),
        "cli.startup_ms": startup_ms(),
        "trace.overhead_ms": (traced_s - untraced_s) * 1e3 / ops,
    }
    details = {
        "traced_ops": ops,
        "untraced_ops": len(untraced),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "eigh_calls_by_n": {str(k): v for k, v in sorted(sizes.items())},
        "per_op_by_kind": {k: {f: c[f] / c["ops"] for f in c if f != "ops"}
                           for k, c in by_kind.items()},
    }
    return metrics, details


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the details."""
    wl = workloads.WORKLOADS[name]
    workdir = BENCH / ".work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        items = workloads.setup(name, seed, workdir)
        if trace:
            records, outputs = measure(wl, items, seconds, wl.run_traced or wl.run, Tracer())
            metrics, run_details = per_layer(wl, records)
            units = PER_LAYER
        else:
            scaled, raw = setup_samples(name, seed, workdir)
            records, outputs = measure(wl, items, seconds, wl.run)
            metrics, run_details = end_to_end(wl, records, scaled, raw)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = summarize(records)
    details = {
        "workload": name, "n": wl.n, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sha256_first_cycle": workloads.cycle_digest(wl, items, outputs),
        "cycle_length": len(items), "reference_ms": REF_MS,
        **summary, **run_details,
    }
    result = {
        # Failures on the adversarial items are known defects: counted in
        # ``failed``, but only failures elsewhere make the run incorrect.
        "correct": summary["failed_not_adversarial"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }
    return result, details
