/**
 * @file
 * Shared harness for the experiment binaries (E1-E19). The per-cell
 * simulation logic lives in bench/sweep.{hh,cc}: every binary builds
 * a grid of RunSpecs, executes it through SweepRunner (parallel
 * across --jobs workers, deterministic output), and assembles the
 * tables from the ordered results.
 *
 * Every binary accepts --steps, --seed, --csv, --jobs and the
 * metrics / replay / robustness options; experiment-specific knobs
 * are declared per binary.
 */

#ifndef PABP_BENCH_COMMON_HH
#define PABP_BENCH_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>

#include "sweep.hh"
#include "util/options.hh"
#include "util/table.hh"

namespace pabp::bench {

/** Standard option block shared by all experiment binaries. */
inline Options
standardOptions()
{
    Options opts;
    opts.declare("steps", "1500000", "instructions per run");
    opts.declare("seed", "42", "workload input seed");
    opts.declare("csv", "0", "also print CSV");
    opts.declare("jobs", "0",
                 "parallel sweep workers (0 = hardware concurrency; "
                 "output is identical at any value)");
    opts.declare("metrics-dir", "",
                 "export per-cell metrics JSON into this directory "
                 "(pabp-metrics-<fingerprint>.json; empty = off)");
    opts.declare("fast-replay", "1",
                 "Trace cells replay a shared pre-decoded trace "
                 "through the batched engine loop (docs/PERF.md); "
                 "results are identical, only faster");
    opts.declare("no-fast-replay", "0",
                 "force the reference per-instruction loop "
                 "(overrides --fast-replay)");
    opts.declare("shard", "0/1",
                 "run only the cells shard i of N owns ('i/N'); "
                 "other cells are skipped in place, keeping table "
                 "layout (docs/PARALLEL.md)");
    opts.declare("max-attempts", "1",
                 "total tries per cell for retryable (IoError) "
                 "failures; 1 = no retry");
    opts.declare("backoff-ms", "0",
                 "deterministic retry backoff base, milliseconds "
                 "(doubles per attempt)");
    opts.declare("watchdog-ms", "0",
                 "per-attempt wall-clock deadline, ms (0 = off); an "
                 "overrunning cell fails with DeadlineExceeded");
    opts.declare("heartbeat-insts", "65536",
                 "instructions between watchdog deadline checks");
    opts.declare("characterize", "0",
                 "compute workload predictability metrics per cell "
                 "(taken/transition rates, history-conditioned "
                 "entropy; exported as predictability.* with the "
                 "metrics document)");
    return opts;
}

/** Parse the standard --shard option ('i/N'). Malformed values are
 *  fatal - this is the CLI shim layer (util/status.hh). */
inline ShardSpec
shardFromOptions(const Options &opts)
{
    const std::string text = opts.str("shard");
    ShardSpec shard;
    const std::size_t slash = text.find('/');
    bool ok = slash != std::string::npos && slash > 0 &&
        slash + 1 < text.size();
    if (ok) {
        try {
            std::size_t used = 0;
            const unsigned long i =
                std::stoul(text.substr(0, slash), &used);
            ok = used == slash;
            const std::string count = text.substr(slash + 1);
            const unsigned long n = std::stoul(count, &used);
            ok = ok && used == count.size() && n > 0 && i < n;
            shard.index = static_cast<std::uint32_t>(i);
            shard.count = static_cast<std::uint32_t>(n);
        } catch (const std::exception &) {
            ok = false;
        }
    }
    if (!ok)
        pabp_fatal("bad --shard '" + text + "' (want 'i/N', i < N)");
    return shard;
}

/** Copy the robust-execution options (shard, retry, watchdog) into a
 *  run spec. */
inline void
applyRobustnessOptions(RunSpec &spec, const Options &opts)
{
    spec.shard = shardFromOptions(opts);
    spec.maxAttempts =
        std::max<std::int64_t>(1, opts.integer("max-attempts"));
    spec.retryBackoffMillis =
        static_cast<std::uint32_t>(opts.integer("backoff-ms"));
    spec.watchdogMillis =
        static_cast<std::uint32_t>(opts.integer("watchdog-ms"));
    spec.heartbeatInsts = std::max<std::int64_t>(
        1, opts.integer("heartbeat-insts"));
}

/** Effective --fast-replay value: the parser has no native --no-X
 *  negation, so the off switch is its own declared flag. */
inline bool
fastReplayFromOptions(const Options &opts)
{
    return opts.flag("fast-replay") && !opts.flag("no-fast-replay");
}

/** Declare the multi-context replay options (bench E21 and any
 *  binary growing a contexts axis). Declared separately from
 *  standardOptions() so single-stream binaries keep a small --help. */
inline void
declareContextOptions(Options &opts)
{
    opts.declare("contexts", "1",
                 "independent trace contexts interleaved through the "
                 "shared predictor (1 = ordinary single-stream run)");
    opts.declare("ctx-schedule", "rr",
                 "context interleaving: 'rr' (round-robin) or "
                 "'bursty' (seeded random bursts)");
    opts.declare("ctx-quantum", "1024",
                 "events per round-robin slice (burst midpoint for "
                 "--ctx-schedule bursty)");
    opts.declare("ctx-seed", "1", "bursty schedule draw seed");
    opts.declare("ctx-shared", "1",
                 "share global history (and BTB/RAS when modelled) "
                 "across contexts; 0 = private per-context history");
    opts.declare("ctx-tag-bits", "0",
                 "context-id bits mixed into shared table indices "
                 "(0 = pure sharing)");
}

/** Parse the declareContextOptions() block into a ContextSpec. A bad
 *  --ctx-schedule is fatal here (CLI shim layer, util/status.hh). */
inline ContextSpec
contextSpecFromOptions(const Options &opts)
{
    ContextSpec ctx;
    ctx.contexts = static_cast<unsigned>(
        std::max<std::int64_t>(1, opts.integer("contexts")));
    Expected<ScheduleKind> kind =
        parseScheduleKind(opts.str("ctx-schedule"));
    if (!kind.ok())
        pabp_fatal("bad --ctx-schedule: " +
                   kind.status().toString());
    ctx.schedule = kind.value();
    ctx.quantum = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, opts.integer("ctx-quantum")));
    ctx.scheduleSeed =
        static_cast<std::uint64_t>(opts.integer("ctx-seed"));
    ctx.shared = opts.flag("ctx-shared");
    ctx.tagBits =
        static_cast<unsigned>(opts.integer("ctx-tag-bits"));
    return ctx;
}

/** Copy the standard metrics + replay-strategy + robustness options
 *  into a run spec. */
inline void
applyRunOptions(RunSpec &spec, const Options &opts)
{
    spec.metricsDir = opts.str("metrics-dir");
    spec.fastReplay = fastReplayFromOptions(opts);
    spec.characterize = opts.flag("characterize");
    applyRobustnessOptions(spec, opts);
}

/** applyRunOptions() over a whole grid. */
inline void
applyMetricsOptions(std::vector<RunSpec> &specs, const Options &opts)
{
    for (RunSpec &spec : specs)
        applyRunOptions(spec, opts);
}

/** Build the runner config from the standard --jobs option. */
inline SweepRunner::Config
sweepConfigFromOptions(const Options &opts)
{
    SweepRunner::Config cfg;
    cfg.jobs = static_cast<unsigned>(opts.integer("jobs"));
    return cfg;
}

/** Print the table, optionally followed by CSV. */
inline void
emitTable(const Table &table, const Options &opts)
{
    table.print(std::cout);
    if (opts.flag("csv")) {
        std::cout << "\n-- csv --\n";
        table.printCsv(std::cout);
    }
    std::cout << "\n";
}

/**
 * Exit status for a finished grid: report failed cells on stderr and
 * return nonzero when any cell failed, so run_experiments.sh treats
 * a partially-failed binary as a failed run even though every
 * healthy cell's numbers were still printed.
 */
inline int
exitStatus(const std::vector<RunSpec> &specs,
           const std::vector<RunResult> &results)
{
    return reportFailures(specs, results, std::cerr) ? 1 : 0;
}

} // namespace pabp::bench

#endif // PABP_BENCH_COMMON_HH
