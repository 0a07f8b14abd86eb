"""The traced run: per-layer metrics from spans, exact counts and single layers.

The run first repeats the untraced timed loop of the end-to-end run, then
records spans over ``traced_rounds`` fixed rounds with freshly seeded mask,
dropout and batch streams, so every count repeats exactly for a seed. Every
per-layer metric is reported on every workload; one a workload does not
exercise (say, backward time on the inference workload) reads 0.
"""

from __future__ import annotations

import statistics
import traceback
from pathlib import Path
from time import perf_counter

import micro
from spans import Tracer, instrumented, write_spans
from workloads import (KINDS, Tally, eval_ops, scenarios, setup, tail,
                       timed_loop, train_ops, write_manifest)


def _per(x: float, n: float) -> float:
    return x / n if n else 0.0


def per_layer(wl, args, work: Path, tally: Tally, env: dict, out_dir: Path) -> dict:
    """Per-layer metrics of one workload; spans go to ``out_dir`` at the end."""
    setup_tracer = Tracer()
    with instrumented(setup_tracer):
        manifest = write_manifest(wl, args.seed, wl.n_samples, work / "run") if wl.manifest else None
        case = setup(wl, args.seed, wl.n_samples, manifest)
    training = wl.aug is not None
    ops, trainers = train_ops(case) if training else (eval_ops(case), {})

    times = timed_loop(ops, args.seconds, tally)
    for trainer in trainers.values():
        trainer.reseed("trace")
    tracer = Tracer()
    traced_s = untraced_s = 0.0
    with instrumented(tracer):
        for _ in range(wl.traced_rounds):
            for op in ops:
                sid = tracer.open(f"bench.{op.kind}")
                t0 = perf_counter()
                try:
                    result = op.run()
                except Exception:
                    traceback.print_exc()
                    tally.record(["raised"], op.kind)
                    continue
                finally:
                    tracer.close(sid)
                wall = perf_counter() - t0
                tally.record(op.check(result), op.kind)
                traced_s += wall
                untraced_s += statistics.median([x.wall_s for x in times[op.kind]] or [wall])
    T = tracer.totals()

    def total(name: str) -> float:
        return T.get(name, {}).get("total_s", 0.0)

    def count(name: str) -> int:
        return T.get(name, {}).get("count", 0)

    steps = wl.traced_rounds * len(ops) if training else 0
    scen = 0 if training else wl.traced_rounds * len(ops) * len(scenarios(case.val.view_ids))
    enc_s = total("encoders.temporal") + total("encoders.static")
    enc_n = count("encoders.temporal") + count("encoders.static")
    step_ms = [1e3 * t.wall_s for kind in KINDS for t in times[kind]] if training else []
    tail_ms = tail(step_ms) if step_ms else 0.0
    S = setup_tracer.totals()

    m = {
        "tensor.nodes_per_step": (_per(tracer.graph_nodes, steps), "count"),
        "tensor.graph_mb_per_step": (_per(tracer.graph_bytes, steps) / 1e6, "MB"),
        "tensor.backward_ms_per_step": (1e3 * _per(total("tensor.backward"), steps), "ms"),
        "tensor.us_per_node": (1e6 * _per(total("tensor.backward"), tracer.graph_nodes), "us"),
        "tensor.adam_ms_per_step": (1e3 * _per(total("tensor.adam_step"), steps), "ms"),
        "fusion.calls_per_step": (
            _per(sum(count(f"fusion.{k}.fuse") for k in KINDS), steps), "count"),
    }
    for k in KINDS:
        name = f"fusion.{k}.fuse"
        m[f"fusion.{k}.fuse_ms_per_call"] = (1e3 * _per(total(name), count(name)), "ms")
    m.update({
        "encoders.ms_per_step": (1e3 * _per(enc_s, steps), "ms"),
        "encoders.calls_per_step": (_per(enc_n, steps), "count"),
        "encoders.ms_per_scenario": (1e3 * _per(enc_s, scen), "ms"),
        "model.predict_groups": (
            _per(count("model.forward_masked"), count("model.predict")) if scen else 0.0,
            "count"),
        "evaluation.predict_ms_per_scenario": (1e3 * _per(total("model.predict"), scen), "ms"),
        "evaluation.metrics_ms_per_scenario": (
            1e3 * _per(total("evaluation.metric"), scen), "ms"),
        "training.step_ms_p50": (statistics.median(step_ms) if step_ms else 0.0, "ms"),
        "training.step_ms_tail": (tail_ms, "ms"),
        "training.steps": (len(step_ms), "count"),
        "training.self_ms_per_step": (
            1e3 * _per(T.get("training.train_step", {}).get("self_s", 0.0), steps), "ms"),
        "augmentation.ms_per_step": (1e3 * _per(total("augmentation.sensd_mask"), steps), "ms"),
        "data.load_s": (S.get("data.load", {}).get("total_s", 0.0), "s"),
        "data.zscore_s": (S.get("data.zscore", {}).get("total_s", 0.0), "s"),
        "data.generate_s": (S.get("data.generate", {}).get("total_s", 0.0), "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })

    m.update({k: (v, "ms") for k, v in micro.layer_metrics().items()})
    m.update({k: (v, "ms") for k, v in micro.fusion_metrics().items()})
    m.update({k: (v, "us") for k, v in micro.construct_metrics().items()})

    out_dir.mkdir(exist_ok=True)
    write_spans(out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl", env,
                {"setup": setup_tracer, "loop": tracer})
    return m
