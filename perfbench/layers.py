"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Each metric is named ``<family>.<layer metric>``: the family is the rep that
was traced (train_small, chains_wide, oracle_grid or cli_pipeline), so one
layer gets one number per kind of work it does, e.g. ``nn.mlp_forward`` at
batch 100 under train_small and at batch 1e5 under chains_wide. Values are
per traced rep, so they do not depend on how many reps fit in a run.
``moves`` is written down before any optimisation is measured: the
end-to-end metric a change in that layer should move.
"""

from __future__ import annotations

TRAIN = "dae_/dvae_/daae_train_examples_per_s"
CHAINS = "chain_updates_per_s"
ORACLE = "oracle1d_evals_per_s, oracle2d_evals_per_s, cli.oracle-check_s"
CLI_ALL = "every cli.*_s, setup_s"
IO = "cli.sample_s, cli.refine_s, cli.train_s"

_UNITS = {
    "calls": "calls/op", "self_s": "s/op", "rows": "rows/op", "values": "values/op",
    "params": "params/op", "updates": "updates/op", "bytes": "B/op", "nodes": "nodes/op",
}


def _g(base: str, fields: str, moves: str) -> list[tuple[str, str, str]]:
    return [(f"{base}.{f}", _UNITS[f], moves) for f in fields.split(",")]


def _trace(family: str) -> list[tuple[str, str, str, str]]:
    return [
        (family, "trace.untraced_op_s", "s/op", "none: the rep with tracing off"),
        (family, "trace.traced_op_s", "s/op", "none: the rep with tracing on"),
        (family, "trace.overhead_s", "s/op", "none: traced minus untraced rep time"),
    ]


def _family(family: str, rows) -> list[tuple[str, str, str, str]]:
    return [(family, name, unit, moves) for name, unit, moves in rows] + _trace(family)


# (family, layer metric, unit, end-to-end metric it should move)
LAYER_METRICS: list[tuple[str, str, str, str]] = [
    *_family("train_small", [
        *_g("numeric.sample_gaussian", "calls,self_s,values", TRAIN),
        *_g("numeric.sample_uniform", "calls,self_s,values", TRAIN),
        *_g("numeric.relu", "calls,self_s", TRAIN),
        *_g("numeric.derivative_of_relu", "calls,self_s", TRAIN),
        *_g("nn.mlp_forward", "calls,self_s,rows", TRAIN),
        *_g("nn.mlp_backward", "calls,self_s,rows", TRAIN),
        *_g("nn.adam_step", "calls,self_s,params", TRAIN),
        *_g("losses.bce_loss", "calls,self_s", "dae_, daae_train_examples_per_s"),
        *_g("losses.mse_loss", "calls,self_s", "dvae_train_examples_per_s"),
        *_g("losses.kl_to_standard_normal", "calls,self_s", "dvae_train_examples_per_s"),
        *_g("losses.adversarial_losses", "calls,self_s", "daae_train_examples_per_s"),
        *_g("models.dae_train_step", "calls,self_s", "dae_train_examples_per_s"),
        *_g("models.dvae_train_step", "calls,self_s", "dvae_train_examples_per_s"),
        *_g("models.daae_train_step", "calls,self_s", "daae_train_examples_per_s"),
        ("models.train.self_s", "s/op", TRAIN),
        ("models.dae_oracle_gap", "abs", "none: max |R_dae - R*| of the 1-epoch DAE"),
    ]),
    *_family("chains_wide", [
        *_g("numeric.sample_gaussian", "calls,self_s,values", CHAINS),
        *_g("numeric.sample_uniform", "calls,self_s,values", CHAINS),
        *_g("numeric.relu", "calls,self_s", CHAINS),
        *_g("nn.mlp_forward", "calls,self_s,rows", CHAINS),
        *_g("models.reconstruct", "calls,self_s,rows", f"{CHAINS}, cli.sample_s"),
        *_g("models.decode_latent", "calls,self_s", f"{CHAINS}, cli.refine_s"),
        *_g("oracle.mixture_log_pdf_batch", "calls,self_s,rows", CHAINS),
        *_g("oracle.responsibilities", "calls,self_s,rows", CHAINS),
        *_g("sampler.run_chain", "self_s,updates", CHAINS),
        ("sampler.chain_diagnostics.self_s", "s/op", CHAINS),
    ]),
    *_family("oracle_grid", [
        *_g("oracle.optimal_reconstruction", "calls,self_s,nodes", ORACLE),
        *_g("oracle.mixture_log_pdf_batch", "calls,self_s,rows", ORACLE),
        *_g("oracle.responsibilities", "calls,self_s,rows", ORACLE),
        ("oracle.limit_convergence_study.self_s", "s/op", ORACLE),
        ("oracle.underflow_errors", "errors/op", ORACLE),
    ]),
    *_family("cli_pipeline", [
        *_g("datasets.build_dataset", "self_s,rows", "cli.train_s, setup_s"),
        *_g("io_formats.save_checkpoint", "self_s,bytes", "cli.train_s"),
        *_g("io_formats.load_checkpoint", "self_s,bytes", IO),
        *_g("io_formats.write_csv", "self_s,rows,bytes", IO),
        *_g("io_formats.write_pgm_grid", "calls,self_s,bytes", "cli.sample_s, cli.refine_s"),
        ("config.load_config.self_s", "s/op", CLI_ALL),
        ("config.apply_overrides.self_s", "s/op", CLI_ALL),
        *[(f"cli.main.{c}.self_s", "s/op", f"cli.{c}_s")
          for c in ("train", "sample", "refine", "score-check", "oracle-check")],
        ("models.train.self_s", "s/op", "cli.train_s"),
        ("nn.adam_step.self_s", "s/op", "cli.train_s"),
        ("sampler.run_chain.self_s", "s/op", "cli.sample_s, cli.refine_s"),
        ("oracle.limit_convergence_study.self_s", "s/op", "cli.oracle-check_s"),
        ("import.numpy_s", "s", CLI_ALL),
        ("import.scipy_s", "s", CLI_ALL),
        ("import.daechain_self_s", "s", CLI_ALL),
    ]),
]


def metric_name(family: str, name: str) -> str:
    return f"{family}.{name}"


def span_metrics(tracer, n_ops: int, family: str) -> dict[str, float]:
    """Per-rep values of the family's span-derived metrics."""
    times = tracer.self_times()
    out: dict[str, float] = {}
    for fam, name, _, _ in LAYER_METRICS:
        if fam != family or name.startswith(("import.", "trace.")) or name == "models.dae_oracle_gap":
            continue
        base, _, field = name.rpartition(".")
        if name == "oracle.underflow_errors":
            value = tracer.errors("oracle.optimal_reconstruction", "UnderflowError")
        elif field == "calls":
            value = times.get(base, (0, 0.0))[0]
        elif field == "self_s":
            value = times.get(base, (0, 0.0))[1]
        else:
            value = tracer.counters.get(name, 0)
        out[metric_name(family, name)] = value / n_ops
    return out
