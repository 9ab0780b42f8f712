"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Summarize the five synthetic datasets at a scale.
``zoo``
    Train/load the 15-model zoo and print the Table 1 summary.
``generate``
    Run DeepXplore on one dataset and report differences + coverage;
    ``--corpus DIR`` persists the results, ``--resume`` additionally
    starts from the corpus's saved coverage.
``fuzz``
    Run a resumable coverage-guided fuzzing session over a persistent
    corpus (waves of sharded campaigns; killed sessions resume
    bit-identically).
``corpus``
    Inspect (``info``), fold together (``merge``), or shrink
    (``distill``) corpus stores.
``serve`` / ``submit`` / ``status``
    The fuzz farm: run the always-on campaign daemon over a farm root
    (``--compact-every`` adds background compaction), submit
    generate/fuzz/federate/compact jobs against its named tenant
    stores, and inspect job state (see docs/FARM.md).
``experiment``
    Run one named experiment (table1..table12, figure8..figure10,
    pollution) and print its table.
``report``
    Run every experiment and write a markdown report (EXPERIMENTS.md
    format).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.core import (ASCENT_RULES, PAPER_HYPERPARAMS,
                        constraint_for_dataset, make_engine, make_rule,
                        resolve_models)
from repro.corpus import CorpusStore, FuzzSession, corpus_fingerprint
from repro.coverage import NeuronCoverageTracker
from repro.datasets import dataset_names, load_dataset
from repro.errors import ReproError
from repro.experiments import EXPERIMENTS
from repro.extensions.seed_selection import strategy_names
from repro.models import TRIOS, get_trio, model_accuracy
from repro.utils.ascii_art import side_by_side

__all__ = ["main", "build_parser"]


def build_parser():
    """Construct the argparse parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeepXplore reproduction (Pei et al., SOSP 2017)")
    parser.add_argument("--scale", default="smoke",
                        choices=["smoke", "small", "full"],
                        help="experiment scale (default: smoke)")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="summarize the synthetic datasets")
    sub.add_parser("zoo", help="train/load all 15 models (Table 1)")

    gen = sub.add_parser("generate", help="run DeepXplore on one dataset")
    gen.add_argument("dataset", choices=dataset_names())
    gen.add_argument("--constraint", default="default",
                     help="image constraint: light | occl | blackout")
    gen.add_argument("--seeds", type=int, default=40,
                     help="number of seed inputs")
    gen.add_argument("--engine", default="sequential",
                     choices=["sequential", "batch", "campaign"],
                     help="sequential Algorithm 1, the vectorized batch "
                          "engine, or a sharded multi-process campaign")
    gen.add_argument("--workers", type=int, default=1,
                     help="campaign worker processes (campaign engine only)")
    gen.add_argument("--shard-size", type=int, default=16,
                     help="seeds per campaign shard; part of the "
                          "deterministic run identity, unlike --workers")
    # No argparse choices= on purpose: unknown rule names flow into
    # make_rule, whose ConfigError names the known rules — one error
    # surface for flag typos and programmatic misuse alike.
    gen.add_argument("--ascent", default="vanilla", metavar="RULE",
                     help="per-iteration update rule: "
                          f"{' | '.join(ASCENT_RULES)} (any engine)")
    gen.add_argument("--beta", type=float, default=None,
                     help="momentum coefficient in [0, 1) (--ascent "
                          "momentum/nesterov only; default 0.9)")
    gen.add_argument("--overshoot", type=float, default=None,
                     help="boundary overshoot factor >= 0 "
                          "(--ascent deepfool only; default 0.02)")
    gen.add_argument("--dtype", default=None,
                     choices=["float32", "float64"],
                     help="compute precision; the zoo trains at float64, "
                          "float32 runs a converted copy ~2x faster")
    gen.add_argument("--show", action="store_true",
                     help="render a seed/generated pair as ASCII art")
    gen.add_argument("--corpus", metavar="DIR",
                     help="persist seeds, tests, and coverage into a "
                          "corpus store at DIR")
    gen.add_argument("--resume", action="store_true",
                     help="start from the coverage saved in --corpus "
                          "instead of from zero")

    fuzz = sub.add_parser(
        "fuzz", help="resumable coverage-guided fuzzing over a corpus")
    fuzz.add_argument("dataset", choices=dataset_names())
    fuzz.add_argument("--corpus", metavar="DIR", required=True,
                      help="corpus store directory (created if absent)")
    fuzz.add_argument("--rounds", type=int, default=4,
                      help="target total waves for the corpus; a resumed "
                           "or interrupted session continues toward it")
    fuzz.add_argument("--wave-size", type=int, default=16,
                      help="seeds scheduled per wave (identity)")
    fuzz.add_argument("--workers", type=int, default=1,
                      help="campaign worker processes (throughput only)")
    fuzz.add_argument("--shard-size", type=int, default=16,
                      help="seeds per campaign shard (identity)")
    fuzz.add_argument("--ascent", default="vanilla", metavar="RULE",
                      help="per-iteration update rule: "
                           f"{' | '.join(ASCENT_RULES)} (identity: a "
                           "corpus fuzzed with momentum resumes with "
                           "momentum)")
    fuzz.add_argument("--beta", type=float, default=None,
                      help="momentum coefficient in [0, 1) (--ascent "
                           "momentum/nesterov only; default 0.9)")
    fuzz.add_argument("--overshoot", type=float, default=None,
                      help="boundary overshoot factor >= 0 "
                           "(--ascent deepfool only; default 0.02)")
    fuzz.add_argument("--constraint", default="default",
                      help="image constraint: light | occl | blackout")
    fuzz.add_argument("--dtype", default=None,
                      choices=["float32", "float64"],
                      help="compute precision (identity: a corpus fuzzed "
                           "at float32 resumes at float32)")
    fuzz.add_argument("--seed-strategy", default="random",
                      choices=strategy_names(),
                      help="how the initial seed pool is drawn")
    fuzz.add_argument("--initial-seeds", type=int, default=64,
                      help="initial seed-pool size for a fresh corpus")
    fuzz.add_argument("--distill", action="store_true",
                      help="after fuzzing, shrink the stored tests to a "
                           "coverage-preserving subset")

    corpus = sub.add_parser("corpus", help="inspect/merge/distill a corpus")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    info = corpus_sub.add_parser("info", help="summarize a corpus store")
    info.add_argument("corpus_dir")
    merge = corpus_sub.add_parser(
        "merge", help="fold source corpora into a destination store")
    merge.add_argument("dest")
    merge.add_argument("sources", nargs="+")
    distill = corpus_sub.add_parser(
        "distill", help="shrink stored tests to a coverage-preserving "
                        "subset (greedy set-cover)")
    distill.add_argument("corpus_dir")
    distill.add_argument("dataset", choices=dataset_names())

    serve = sub.add_parser(
        "serve", help="run the fuzz-farm daemon over a farm root")
    serve.add_argument("--root", required=True, metavar="DIR",
                       help="farm root directory (created if absent); "
                            "tenant stores live under DIR/stores/")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker threads pulling jobs, each running "
                            "its jobs' ascent in its own engine process "
                            "(jobs on one store always serialize)")
    serve.add_argument("--capacity", type=int, default=8,
                       help="max jobs in flight before submits are "
                            "rejected with a retry-after hint")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="attempts per job before it parks as failed")
    serve.add_argument("--backoff", type=float, default=1.0,
                       help="base seconds for exponential retry backoff")
    serve.add_argument("--compact-every", type=float, default=None,
                       metavar="SECONDS",
                       help="run a background compaction sweep this "
                            "often: each sweep schedules a "
                            "compact-distill job per tenant store with "
                            "distillable tests (default: off)")

    submit = sub.add_parser(
        "submit", help="submit a job to a running farm daemon")
    submit.add_argument("--root", required=True, metavar="DIR",
                        help="farm root the daemon was started with")
    submit.add_argument("--store", required=True,
                        help="tenant corpus store name under the root")
    submit.add_argument("--kind", default="fuzz",
                        choices=["fuzz", "generate", "federate",
                                 "compact-merge", "compact-distill"])
    submit.add_argument("--campaign", metavar="DIR", default=None,
                        help="shared shard-ledger directory (federate "
                             "jobs only; every participating host must "
                             "reach it)")
    submit.add_argument("--lease", type=float, default=None,
                        metavar="SECONDS",
                        help="how long a crashed host's shard claim "
                             "blocks a steal (federate jobs only; "
                             "default 60)")
    submit.add_argument("--sources", default=None,
                        metavar="STORE,STORE,...",
                        help="tenant stores to fold into --store "
                             "(compact-merge jobs only)")
    submit.add_argument("--dataset", default="mnist",
                        choices=dataset_names())
    submit.add_argument("--rounds", type=int, default=2,
                        help="target total waves for the store (fuzz)")
    submit.add_argument("--seeds", type=int, default=16,
                        help="initial pool size (fuzz) / seed count "
                             "(generate)")
    submit.add_argument("--wave-size", type=int, default=8)
    submit.add_argument("--shard-size", type=int, default=8)
    submit.add_argument("--ascent", default="vanilla", metavar="RULE",
                        help="per-iteration update rule: "
                             f"{' | '.join(ASCENT_RULES)}")
    submit.add_argument("--constraint", default="default",
                        help="image constraint: light | occl | blackout")
    submit.add_argument("--workers", type=int, default=1,
                        help="engine processes the job's worker thread "
                             "runs its shards on (throughput only)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes and print "
                             "its result")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait timeout in seconds")

    status = sub.add_parser(
        "status", help="show a farm daemon's jobs (or one job)")
    status.add_argument("--root", required=True, metavar="DIR")
    status.add_argument("job_id", nargs="?",
                        help="show one job in detail")

    exp = sub.add_parser("experiment", help="run one paper experiment")
    exp.add_argument("experiment_id", choices=sorted(EXPERIMENTS))

    rep = sub.add_parser("report", help="write the full markdown report")
    rep.add_argument("--output", default="EXPERIMENTS.md")
    rep.add_argument("--only", nargs="*", choices=sorted(EXPERIMENTS),
                     help="run only these experiments")
    return parser


def _cmd_datasets(args):
    for name in dataset_names():
        dataset = load_dataset(name, scale=args.scale, seed=args.seed)
        print(dataset.describe())
    return 0


def _cmd_zoo(args):
    for dataset_name, trio in TRIOS.items():
        dataset = load_dataset(dataset_name, scale=args.scale,
                               seed=args.seed)
        models = get_trio(dataset_name, scale=args.scale, seed=args.seed,
                          dataset=dataset)
        for model in models:
            acc = model_accuracy(model, dataset)
            print(f"{model.name:<8} {dataset_name:<9} "
                  f"neurons={model.total_neurons:<6} "
                  f"params={model.parameter_count():<8} acc={acc:.2%}")
    return 0


def _cmd_generate(args):
    if args.resume and not args.corpus:
        print("error: --resume needs --corpus DIR", file=sys.stderr)
        return 2
    # Resolve the ascent rule first: a typo'd --ascent or a rule flag
    # the rule doesn't accept fails in milliseconds, not after the
    # dataset and models have loaded.
    rule = make_rule(args.ascent, beta=args.beta, overshoot=args.overshoot)
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    models = get_trio(args.dataset, scale=args.scale, seed=args.seed,
                      dataset=dataset)
    # Resolve the dtype BEFORE trackers and fingerprints, so both bind
    # to the networks the engine will actually run.
    models = resolve_models(models, dtype=args.dtype)
    hp = PAPER_HYPERPARAMS[args.dataset]
    seeds, _ = dataset.sample_seeds(
        min(args.seeds, dataset.x_test.shape[0]),
        np.random.default_rng(args.seed + 1))
    store = trackers = None
    if args.corpus:
        store = CorpusStore(args.corpus)
        store.bind_config(corpus_fingerprint(models, hp, dataset.task))
        trackers = [NeuronCoverageTracker(m, threshold=hp.threshold)
                    for m in models]
        if args.resume:
            persisted = store.coverage_states()
            for model, tracker in zip(models, trackers):
                if model.name in persisted:
                    tracker.load_state_dict(persisted[model.name])
    engine = make_engine(
        args.engine, models, hp,
        constraint_for_dataset(dataset, kind=args.constraint),
        dataset.task, args.seed + 2, workers=args.workers,
        shard_size=args.shard_size, trackers=trackers, rule=rule)
    result = engine.run(seeds)
    if store is not None:
        added = store.absorb(seeds, result, models, trackers)
        print(f"corpus               : {store.path} "
              f"(+{added} tests, {len(store)} entries)")
    if args.engine == "campaign":
        print(f"engine               : campaign "
              f"(workers={args.workers}, shard_size={args.shard_size}, "
              f"ascent={engine.rule.identity()})")
    else:
        print(f"engine               : {args.engine} "
              f"(ascent={engine.rule.identity()})")
    print(f"seeds processed      : {result.seeds_processed}")
    print(f"differences found    : {result.difference_count}")
    print(f"  via gradient ascent: "
          f"{result.difference_count - result.seeds_disagreed}")
    print(f"  seeds pre-disagreed: {result.seeds_disagreed}")
    print(f"mean neuron coverage : {engine.mean_coverage():.1%}")
    print(f"elapsed              : {result.elapsed:.1f}s")
    ascent = [t for t in result.tests if t.iterations > 0]
    if args.show and ascent and dataset.metadata.get("domain") == "image":
        test = ascent[0]
        print()
        print(side_by_side(seeds[test.seed_index], test.x,
                           labels=("seed", "generated")))
        print("predictions:", test.predictions.tolist())
    return 0


def _cmd_fuzz(args):
    rule = make_rule(args.ascent, beta=args.beta, overshoot=args.overshoot)
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    models = get_trio(args.dataset, scale=args.scale, seed=args.seed,
                      dataset=dataset)
    models = resolve_models(models, dtype=args.dtype)
    session = FuzzSession(
        args.corpus, models, PAPER_HYPERPARAMS[args.dataset],
        constraint_for_dataset(dataset, kind=args.constraint),
        task=dataset.task, wave_size=args.wave_size, workers=args.workers,
        shard_size=args.shard_size, seed=args.seed,
        rule=rule, dataset=dataset,
        seed_strategy=args.seed_strategy,
        initial_seed_count=args.initial_seeds)
    if args.rounds <= session.completed_rounds:
        print(f"corpus already at {session.completed_rounds} round(s); "
              f"raise --rounds to fuzz further")
    report = session.run(args.rounds)
    print(report.render())
    if args.distill:
        kept, dropped = session.distill()
        print(f"distilled: kept {kept} test(s), dropped {dropped} entries")
    print(session.store.describe())
    print(f"mean neuron coverage : {session.mean_coverage():.1%}")
    return 0


def _cmd_corpus(args):
    if args.corpus_command == "info":
        print(CorpusStore(args.corpus_dir, create=False).describe())
        return 0
    if args.corpus_command == "merge":
        # A merge is a pull of each source (repro.dist.sync.pull, the
        # one copier between stores).  Sources must already exist
        # (create=False) and agree on their config fingerprints — both
        # checked up front, so a typo'd path or a mixed-trio merge fails
        # before the destination is touched rather than leaving it
        # half-merged.  Only the destination may be created.
        from repro.dist import pull
        sources = [CorpusStore(source, create=False)
                   for source in args.sources]
        dest = CorpusStore(args.dest)
        configs = {json.dumps(s.config, sort_keys=True): s.path
                   for s in [dest] + sources if s.config is not None}
        if len(configs) > 1:
            print("error: corpora were built against different "
                  "configs and cannot merge:", file=sys.stderr)
            for config, path in sorted(configs.items()):
                print(f"  {path}: {config}", file=sys.stderr)
            return 1
        added = sum(pull(dest, source) for source in sources)
        print(f"merged {len(args.sources)} corpora into {dest.path} "
              f"(+{added} entries, {len(dest)} total)")
        return 0
    store = CorpusStore(args.corpus_dir, create=False)   # distill
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    models = get_trio(args.dataset, scale=args.scale, seed=args.seed,
                      dataset=dataset)
    hp = PAPER_HYPERPARAMS[args.dataset]
    threshold = (store.config or {}).get("threshold", hp.threshold)
    # Validate the rebuilt models against the store's fingerprint BEFORE
    # deleting anything: distilling with the wrong trio (or the wrong
    # --scale) would measure set-cover against the wrong networks and
    # unlink coverage-essential tests.
    fingerprint = corpus_fingerprint(models, hp, dataset.task)
    fingerprint["threshold"] = float(threshold)
    store.bind_config(fingerprint)
    kept, dropped = store.distill(models, threshold=threshold)
    print(f"distilled {store.path}: kept {kept} test(s), "
          f"dropped {dropped} entries")
    return 0


def _cmd_serve(args):
    import os
    import signal

    from repro.farm import FarmDaemon, FarmServer
    daemon = FarmDaemon(args.root, workers=args.workers,
                        capacity=args.capacity,
                        max_attempts=args.max_attempts,
                        backoff_base=args.backoff,
                        scale=args.scale, seed=args.seed,
                        compact_every=args.compact_every)
    daemon.start()
    server = FarmServer(daemon)
    print(f"farm daemon serving {daemon.root} on "
          f"127.0.0.1:{server.port} (pid {os.getpid()}, "
          f"workers={args.workers}, capacity={args.capacity})",
          flush=True)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: server.request_drain())
    server.serve_until_drained()
    print("farm daemon drained")
    return 0


def _cmd_submit(args):
    from repro.farm import FarmClient
    client = FarmClient(args.root)
    spec = {
        "kind": args.kind, "store": args.store, "dataset": args.dataset,
        "rounds": args.rounds, "seeds": args.seeds,
        "wave_size": args.wave_size, "shard_size": args.shard_size,
        "seed": args.seed, "ascent": args.ascent,
        "constraint": args.constraint, "workers": args.workers,
    }
    if args.campaign is not None:
        spec["campaign"] = args.campaign
    if args.lease is not None:
        spec["lease"] = args.lease
    if args.sources is not None:
        spec["sources"] = [name.strip()
                           for name in args.sources.split(",")
                           if name.strip()]
    job = client.submit(spec)
    print(f"submitted {job['job_id']} ({args.kind} -> {args.store})")
    if args.wait:
        final = client.wait(job["job_id"], timeout=args.timeout)
        for key, value in sorted(final["result"].items()):
            print(f"  {key}: {value}")
    return 0


def _cmd_status(args):
    from repro.farm import FarmClient, Job
    client = FarmClient(args.root)
    if args.job_id:
        job = client.status(args.job_id)
        print(Job.from_dict(job).describe())
        for key, value in sorted(job.get("result", {}).items()):
            print(f"  {key}: {value}")
        if job.get("error"):
            print(f"  error: {job['error']}")
        return 0
    jobs = client.status()
    if not jobs:
        print("no jobs")
        return 0
    for record in jobs:
        print(Job.from_dict(record).describe())
    return 0


def _cmd_experiment(args):
    result = EXPERIMENTS[args.experiment_id](scale=args.scale,
                                             seed=args.seed)
    print(result.render())
    return 0


def _cmd_report(args):
    from repro.reporting import write_report
    path = write_report(args.output, scale=args.scale, seed=args.seed,
                        experiment_ids=args.only, verbose=True)
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "zoo": _cmd_zoo,
    "generate": _cmd_generate,
    "fuzz": _cmd_fuzz,
    "corpus": _cmd_corpus,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
}


def main(argv=None):
    """CLI entry point; returns a process exit code.

    Library errors (:class:`~repro.errors.ReproError` — a missing
    corpus path, an incompatible store, a bad configuration) are user
    errors at the CLI boundary: one line on stderr, exit 1, no
    traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
