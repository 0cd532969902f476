"""Out-of-process benchmark for cdfeat.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload digits --seed 1 --seconds 35 --trace 0

`--workload all` runs digits, news and cv-grid one after the other, each in
its own process, and exits with the highest of their exit statuses.

The run generates DRAWS sets of its workload's input files from the seed, each
in a child process (gen.py) so that peak_rss_mb is the workload's own. It loads
each set through `cdfeat.ingest` several times (setup), then cycles timed
rounds of train, save/load, batch and one-sample predict and the TF-IDF
baseline over the draws until `--seconds` have passed. Every round's outputs
are checked and must be identical to the first round's on the same draw.
The last line of stdout is one JSON object: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`.

`--trace 1` alternates untraced and traced setup+round pairs, the traced one
with the layer boundaries wrapped (see spans.py); traced outputs must equal
untraced ones. Per-layer metrics are medians over the traced rounds, the
first traced round's spans go to `.perfbench/spans-<workload>-<seed>.tsv`, and
the tracing overhead (traced minus untraced round time) is printed. Timings
of `--trace 0` runs are scaled to a reference host speed (see hostspeed.py).

Each run records a digest of its outputs (model bytes, predictions, CV table)
in `.perfbench/outputs-<workload>-<seed>-<code>.sha256`, where <code> is a
digest of the cdfeat and benchmark sources and the numpy version; a later run
of the same code with the same seed in the same checkout must reproduce it.

Failed operations (file loads, pair solves, predictions with an inconsistent
vote record, output checks) are counted per phase. Pair solves that stop at
the max_passes x n iteration cap are not failed operations (their models are
checked like the others); they are printed as `unconverged_solves=` lines and
traced as `svm.smo_unconverged`. Exit status: 0 when every output check
passed, 1 when a check failed or the run raised, 2 when the cdfeat sources are
not in `src/` next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Each run draws DRAWS data sets from its seed and cycles rounds over them, so
# that one run's numbers do not hang on a single draw (digits' training time
# follows how many pair solves of a draw hit the iteration cap).
DRAWS = 3
# Setup is repeated at least MIN_SETUPS times per draw and until
# SETUP_BUDGET_S seconds have gone into it (at most MAX_SETUPS times).
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 60, 1.0
# One BLAS thread: the workloads are single-process with jobs=1, and a second
# thread only adds run-to-run noise on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times, rounds, datas) -> dict:
    """Each value is the mean over draws of the median over a draw's rounds.

    The one-sample percentiles are taken within each round first.
    """
    def over_draws(per_draw):
        return statistics.fmean(per_draw(k) for k in range(len(rounds)))

    def med(k, key):
        return statistics.median(v for r in rounds[k] for v in r.times[key])

    def one_ms(k, q):
        return statistics.median(_percentile(r.one_ms, q) for r in rounds[k])

    values = {
        "setup_s": (over_draws(lambda k: statistics.median(setup_times[k])), "s"),
        "train_s": (over_draws(lambda k: med(k, "train_s")), "s"),
        "predict_samples_per_s": (
            over_draws(lambda k: len(datas[k].test) / med(k, "predict_batch_s")), "samples/s"),
        "predict_one_ms_p50": (over_draws(lambda k: one_ms(k, 50)), "ms"),
        "predict_one_ms_p90": (over_draws(lambda k: one_ms(k, 90)), "ms"),
        "model_save_s": (over_draws(lambda k: med(k, "model_save_s")), "s"),
        "model_load_s": (over_draws(lambda k: med(k, "model_load_s")), "s"),
        "model_bytes": (over_draws(lambda k: rounds[k][0].outputs["model_bytes"]), "bytes"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
        "baseline_train_s": (over_draws(lambda k: med(k, "baseline_train_s")), "s"),
    }
    # Printed, not gated: one predict_ovo call streams every support vector
    # through a cache shared with other tenants, and its rate still spread
    # 0.16-0.20 between runs after the host-speed scaling.
    rate = over_draws(lambda k: 1.0 / med(k, "baseline_predict_row_s"))
    print(f"baseline_predict_samples_per_s={rate!r} (not gated)")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _rounds_fit(start: float, rounds: int, seconds: float) -> bool:
    """True until every draw had a round, then while another round of the
    average length ends within `seconds`."""
    elapsed = time.perf_counter() - start
    return rounds < DRAWS or elapsed + elapsed / rounds <= seconds


def run_untraced(wl, draws, seconds: float, ledger):
    import workloads
    from hostspeed import HostSpeed

    setup_times = [[] for _ in draws]
    digests, datas = [None] * len(draws), [None] * len(draws)
    rounds = [[] for _ in draws]
    with HostSpeed() as timer:
        i = 0
        while i < MIN_SETUPS * len(draws) or (
            sum(map(sum, setup_times)) < SETUP_BUDGET_S and i < MAX_SETUPS * len(draws)
        ):
            k = i % len(draws)
            t0 = time.perf_counter()
            datas[k] = wl.setup(draws[k], ledger)
            setup_times[k].append(timer.seconds(t0, time.perf_counter()))
            digests[k] = digests[k] or datas[k].digest()
            i += 1
        for digest, data in zip(digests, datas):
            ledger.check(digest == data.digest(), "setup gave different datasets")

        start, i = time.perf_counter(), 0
        while _rounds_fit(start, i, seconds):
            k = i % len(draws)
            out = workloads.run_round(wl, datas[k], ledger, workloads.NoTrace(), timer)
            if rounds[k]:
                ledger.check(out.outputs == rounds[k][0].outputs,
                             "round outputs (model bytes, predictions, CV table) differ")
            out.release()
            rounds[k].append(out)
            i += 1
        units = timer.durations
    for k, data in enumerate(datas):
        o = rounds[k][0].outputs
        print(f"draw {k}: train_rows={len(data.train)} test_rows={len(data.test)} "
              f"dim={data.train.dim} rounds={len(rounds[k])} setups={len(setup_times[k])} "
              f"error_rate={o['error_rate']!r} baseline_error_rate={o['baseline_error_rate']!r}")
    print(f"calibration_ticks={len(units)} calibration_unit_ms_median="
          f"{statistics.median(units) * 1e3:.4f} (the host speed the timings were scaled by)")
    return end_to_end(setup_times, rounds, datas), [r[0].outputs for r in rounds]


def run_traced(wl, draws, seconds: float, ledger, span_path: Path):
    """Alternate untraced and traced setup+round pairs, cycling over the draws;
    per-layer values are medians over the traced rounds."""
    import workloads
    from hostspeed import RawTimer
    from spans import Tracer

    tracer = Tracer()
    span_path.unlink(missing_ok=True)
    refs, plain, traced, per_round = [None] * len(draws), [], [], []
    start = time.perf_counter()
    while _rounds_fit(start, len(traced), seconds):
        k = len(traced) % len(draws)
        t0 = time.perf_counter()
        data = wl.setup(draws[k], ledger)
        out = workloads.run_round(wl, data, ledger, workloads.NoTrace(), RawTimer())
        plain.append(time.perf_counter() - t0)
        refs[k] = refs[k] or out.outputs
        ledger.check(out.outputs == refs[k], "untraced round outputs differ")
        out.release()

        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            tracer.phase = "setup"
            data = wl.setup(draws[k], ledger)
            out = workloads.run_round(wl, data, ledger, tracer, RawTimer())
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.remove()
        ledger.check(out.outputs == refs[k],
                     "traced round outputs differ from the untraced round")
        values = tracer.layer_metrics()
        values.update(workloads.model_layer_metrics(data, out))
        per_round.append(values)
        out.release()
        if len(traced) == 1:
            tracer.write_spans(span_path, 0)

    untraced_wall, traced_wall = statistics.median(plain), statistics.median(traced)
    print(f"untraced_round_s={untraced_wall:.4f} traced_round_s={traced_wall:.4f} "
          f"trace_overhead_s={traced_wall - untraced_wall:.4f} "
          f"trace_overhead_share={(traced_wall - untraced_wall) / untraced_wall:.4f} "
          f"round_pairs={len(traced)} spans={span_path.name}")
    names = sorted(set().union(*per_round))
    layers = json.loads((Path(__file__).parent / "layers.json").read_text())["per_layer"]
    return {
        n: {"value": statistics.median_low([r[n] for r in per_round if n in r]),
            "unit": layers[n]["unit"]}
        for n in names
    }, refs


def code_digest() -> str:
    """Digest of what a run's outputs depend on besides the seed."""
    h = hashlib.sha256(np.__version__.encode())
    for path in sorted([*(SRC / "cdfeat").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeatable(ledger, path: Path, outputs: list) -> None:
    """Outputs must match those an earlier run of the same code with the same
    seed recorded."""
    digest = hashlib.sha256(repr([sorted(o.items()) for o in outputs]).encode()).hexdigest()
    if path.exists():
        ledger.check(path.read_text() == digest,
                     f"outputs differ from an earlier run with this seed ({path.name})")
    else:
        tmp = path.with_name(f"{path.name}.{os.getpid()}")
        tmp.write_text(digest)
        os.replace(tmp, path)


def run_all(names, args) -> int:
    """Run every workload in its own process, one after the other."""
    codes = []
    for name in names:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "cdfeat" / "__init__.py").is_file():
        print(f"perfbench: no cdfeat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    data_dir = scratch / f"{wl.name}-{args.seed}-{os.getpid()}"
    data_dir.mkdir(parents=True, exist_ok=True)
    ledger = workloads.Ledger()
    result = {}
    try:
        draws = []
        for k in range(DRAWS):
            (data_dir / str(k)).mkdir()
            draws.append(wl.generate(data_dir / str(k), (args.seed, k)))
        if args.trace:
            span_path = scratch / f"spans-{wl.name}-{args.seed}.tsv"
            result, outputs = run_traced(wl, draws, args.seconds, ledger, span_path)
        else:
            result, outputs = run_untraced(wl, draws, args.seconds, ledger)
        digest_name = f"outputs-{wl.name}-{args.seed}-{code_digest()}.sha256"
        check_repeatable(ledger, scratch / digest_name, outputs)
    except Exception:  # report the failure and exit nonzero below
        traceback.print_exc()
        ledger.add("run", 1, 1, "exception")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    for phase, (attempted, failed) in sorted(ledger.ops.items()):
        print(f"ops.{phase}: attempted={attempted} failed={failed}")
    share = ledger.failed / max(ledger.attempted, 1)
    print(f"failed_share={share:.6f} ({ledger.failed}/{ledger.attempted})")
    solves = ledger.ops.get("solve", (0, 0))[0]
    print(f"unconverged_solves={sum(ledger.capped.values())}/{solves} "
          "(solves that hit the max_passes x n iteration cap; not failed ops)")
    for what, capped in sorted(ledger.capped.items()):
        print(f"unconverged_solves.{what.replace(' ', '_')}={capped}")
    for (phase, what), failed in sorted(ledger.errors.items()):
        print(f"FAILED {phase}: {failed} x {what}", file=sys.stderr)
    for name, m in result.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": result,
    }))
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
