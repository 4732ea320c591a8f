/**
 * @file
 * Deterministic parallel sweep runner for the experiment binaries.
 *
 * Every experiment is a grid of independent simulations: (workload,
 * predictor, size, engine config, compile config) cells whose results
 * are assembled into tables. SweepRunner executes such a grid across
 * a fixed-size worker pool and hands the results back IN SUBMISSION
 * ORDER, so every printed table and --csv file is byte-identical
 * regardless of thread count (--jobs 1 reproduces the old serial
 * behaviour bit for bit).
 *
 * Determinism contract (see docs/PARALLEL.md):
 *  - results are collected by submission index, never completion order;
 *  - every piece of mutable simulation state (Emulator, predictor,
 *    PredictionEngine, Pipeline, workload init closures, Rng streams)
 *    is constructed per run and touched by exactly one worker;
 *  - compiled programs, decoded traces and predictability reports are
 *    shared across runs strictly read-only, each keyed by everything
 *    that determines its bytes - a sweep that varies only the
 *    predictor side compiles and records each workload once.
 *
 * Scheduling: run() plans before it runs. It lists every artifact
 * the grid reads and builds each distinct one once, in parallel
 * phases - programs, then traces and reports - before any cell runs,
 * so no lookup ever waits on another worker's build in progress.
 *
 * Failure contract: a cell that cannot run (unknown predictor or
 * workload, overrun watchdog, leaked exception) fails THAT CELL
 * with a typed pabp::Status in its RunResult; the rest of the grid
 * completes. Nothing in the sweep layer calls pabp_fatal.
 */

#ifndef PABP_BENCH_SWEEP_HH
#define PABP_BENCH_SWEEP_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "compiler/compile.hh"
#include "core/engine.hh"
#include "core/predictability.hh"
#include "pipeline/pipeline.hh"
#include "sim/context_schedule.hh"
#include "util/status.hh"
#include "workloads/workload.hh"

namespace pabp {
class GSharePredictor;
} // namespace pabp

namespace pabp::bench {

/** Builds a Workload from an input seed (memory image + profile). */
using WorkloadFactory = std::function<Workload(std::uint64_t seed)>;

/**
 * Deterministic fingerprint partitioning of a grid: cell @c fp
 * belongs to shard `shardOf(fp, count)`. Because the assignment is a
 * pure function of the spec fingerprint, any machine given the same
 * grid and the same `i/N` computes the same cell set - no coordinator
 * handshake, no shared state (docs/PARALLEL.md).
 */
struct ShardSpec
{
    std::uint32_t index = 0;
    std::uint32_t count = 1;

    bool operator==(const ShardSpec &) const = default;
};

/** Which shard owns the cell with fingerprint @p fingerprint. */
constexpr std::uint32_t
shardOf(std::uint64_t fingerprint, std::uint32_t count)
{
    return count > 1
        ? static_cast<std::uint32_t>(fingerprint % count)
        : 0;
}

/** Failure classes worth a bounded retry: transient environment
 *  errors (a flaky filesystem under the metrics writes).
 *  Everything else - bad specs, damaged artifacts, watchdog
 *  deadlines - is deterministic and goes straight to quarantine. */
constexpr bool
retryableStatus(StatusCode code)
{
    return code == StatusCode::IoError;
}

/** What kind of simulation a cell runs. */
enum class RunMode : std::uint8_t
{
    Trace, ///< prediction engine over the dynamic trace (EngineStats)
    Timed, ///< cycle-level pipeline run (PipelineStats + EngineStats)
    Observe, ///< step the emulator, call RunSpec::observe per DynInst
};

/**
 * Multi-context interleaving for one cell (core/multictx.hh, bench
 * E21). With contexts == 1 (the default) the cell runs the ordinary
 * single-stream loops and none of the other fields matter. With
 * contexts > 1 the cell replays N independent trace contexts -
 * context c's input seed is spec.seed + c over the same compiled
 * program - through ONE shared predictor. Trace mode only (a Timed
 * cell fails with InvalidArgument). All fields are behaviour-defining
 * and fold into specFingerprint() when contexts > 1.
 */
struct ContextSpec
{
    unsigned contexts = 1;
    ScheduleKind schedule = ScheduleKind::RoundRobin;
    std::uint64_t quantum = 1024;   ///< slice events / burst midpoint
    std::uint64_t scheduleSeed = 1; ///< bursty draw seed
    /** Share global history (and BTB/RAS when modelled) across
     *  contexts; false = private per-context history, swapped around
     *  every slice. Tables always shared. */
    bool shared = true;
    /** Context-id bits mixed into table indices; 0 = pure sharing. */
    unsigned tagBits = 0;
};

/** One context's share of a multi-context cell's results. */
struct ContextCellResult
{
    EngineStats engine;
    BranchProfile profile;
    std::uint64_t pguBits = 0;
};

/** One experiment cell. */
struct RunSpec
{
    /**
     * Workload identity. With no factory, @p workload names a suite
     * member (workloads/workload.hh). With a factory, @p workload is
     * the cache/display id and MUST uniquely identify the program
     * the factory builds (e.g. "bias-0.70", not just "bias"): the
     * compiled-program cache trusts it.
     */
    std::string workload;
    WorkloadFactory factory;

    /** Measurement input seed (memory image for the measured run). */
    std::uint64_t seed = 42;
    /** Profiling/compilation input seed; defaults to @p seed. A
     *  different value gives SPEC-style train/ref cross-input runs. */
    std::optional<std::uint64_t> compileSeed;

    RunMode mode = RunMode::Trace;
    PipelineConfig pipeline; ///< Timed mode only

    std::string predictor = "gshare";
    unsigned sizeLog2 = 12;
    bool ifConvert = true;
    EngineConfig engine;
    CompileOptions compile;
    std::uint64_t maxInsts = 1'500'000;

    /** Multi-context interleaving; contexts == 1 = ordinary cell. */
    ContextSpec context;

    /** Count gshare pattern-table conflicts (predictor must be
     *  "gshare"); fills RunResult::lookups/conflicts. */
    bool profileConflicts = false;

    /**
     * Trace-mode execution strategy (docs/PERF.md): when true the
     * cell replays a shared pre-decoded trace through the batched
     * engine loop (PredictionEngine::processBatch) instead of
     * stepping its own emulator per instruction. Results - stats,
     * profile, exported metrics bytes - are identical either way
     * (pinned by tests/test_replay_fast.cc); only throughput
     * changes, so like the metrics knobs this is NOT part of
     * specFingerprint().
     */
    bool fastReplay = true;

    /**
     * When non-empty, every Trace/Timed cell exports its full metric
     * set (util/metrics.hh) to
     * "<metricsDir>/pabp-metrics-<16 hex fingerprint>.json" after the
     * run. The directory is created on demand; a cell that cannot
     * write its file FAILS with IoError (a sweep that silently lost
     * its measurements would be worse than one that failed loudly).
     * Purely observational - not part of specFingerprint(). Observe
     * cells export only the spec keys and their instruction count.
     */
    std::string metricsDir;

    /**
     * Characterize the cell's conditional-branch stream with the
     * predictability analyzer (core/predictability.hh): the report
     * lands in RunResult::predictability and - when the cell exports
     * metrics - as "predictability.*" names in its document, with
     * the per-H2P-tier cross-reference against the cell's own
     * profile. The characterization reads the same shared decoded
     * trace the fast-replay path uses, over the same budget, so
     * fast and reference cells report byte-identical numbers.
     * Purely observational - NOT part of specFingerprint(), exactly
     * like metricsDir. Trace and Timed single-context cells only
     * (a multi-context cell has no single stream to characterize).
     */
    bool characterize = false;

    /** Observe mode: called for every dynamic instruction. The
     *  closure's state is owned by this spec alone - one worker. */
    std::function<void(const DynInst &)> observe;

    /**
     * @name Robust-execution knobs (docs/ROBUSTNESS.md)
     * Like the metrics knobs these are execution strategy, not
     * behaviour, and are NOT part of specFingerprint().
     * @{
     */

    /** Shard membership: when count > 1, a cell whose fingerprint
     *  maps to another shard is SKIPPED (RunResult::skipped, ok
     *  status, zero counters) so grids keep their index layout. */
    ShardSpec shard;

    /**
     * Per-attempt wall-clock watchdog, milliseconds; 0 = off. The
     * deadline starts at cell entry and is checked after each
     * artifact phase (compile, record/decode, characterize) and every
     * @ref heartbeatInsts instructions of the run, so a cell stuck
     * in a pathological configuration (or a hung Observe closure) is
     * reaped with StatusCode::DeadlineExceeded instead of stalling
     * its worker forever. Artifacts are built before the cells that
     * read them; each one's build time is charged to its first
     * consumer in submission order - the cell that builds it in a
     * serial run - at that cell's lookup, so the same cell pays for
     * each build at every --jobs (the build times themselves still
     * vary with machine load). The plan cannot foresee a reap: a
     * cell reaped before a later lookup still owns that build, and
     * its time goes uncharged. Covers single-context Trace and
     * Observe cells; Timed and multi-context cells run in one shot
     * and are bounded by their instruction budget alone.
     */
    std::uint32_t watchdogMillis = 0;
    /** Instructions between watchdog checks (the heartbeat grain).
     *  Slicing is unobservable in the results - every cell loop
     *  continues exactly where the previous slice stopped - so this
     *  only trades check latency against loop overhead. */
    std::uint64_t heartbeatInsts = 1u << 16;

    /** Total tries for a cell whose failure is retryableStatus();
     *  1 = no retry. Each attempt rebuilds all per-run state. */
    unsigned maxAttempts = 1;
    /** Deterministic backoff before attempt k+1:
     *  retryBackoffMillis << (k-1) milliseconds. */
    std::uint32_t retryBackoffMillis = 0;

    /** Test-only fault injection: called at the start of every
     *  attempt; a non-Ok return fails that attempt with exactly that
     *  status (how the retry/quarantine tests simulate transient
     *  environment failures). */
    std::function<Status(unsigned attempt)> faultHook;

    /** Capture the cell's full metrics document (the same byte-stable
     *  JSON --metrics-dir would write) into RunResult::metricsJson,
     *  without touching the filesystem - the sweep service journals
     *  these bytes instead of scattering per-cell files. */
    bool captureMetrics = false;
    /** @} */
};

/** What one cell produced. */
struct RunResult
{
    Status status; ///< non-Ok: the cell failed, counters are zero
    EngineStats engine;
    PipelineStats pipe;       ///< Timed mode only
    BranchProfile profile;    ///< per-static-branch attribution
    std::uint64_t pguBits = 0;
    std::uint64_t lookups = 0;   ///< profileConflicts only
    std::uint64_t conflicts = 0; ///< profileConflicts only
    std::uint64_t numRegions = 0;        ///< static regions compiled
    std::uint64_t numRegionBranches = 0; ///< static side exits
    /** Cell belongs to another shard (RunSpec::shard) and did not
     *  execute; status is Ok and every counter is zero. */
    bool skipped = false;
    /** Attempts consumed (1 = first try succeeded or failed
     *  terminally; >1 = retries happened). */
    unsigned attempts = 1;
    /** RunSpec::captureMetrics output: the cell's metrics document,
     *  byte-identical to what --metrics-dir would have written. */
    std::string metricsJson;
    /** RunSpec::characterize output: the predictability report of
     *  the cell's branch stream (shared - several cells over the
     *  same workload reference one immutable report). */
    std::shared_ptr<const PredictabilityReport> predictability;
    /** Multi-context cells only: per-context stats/profile/PGU bits,
     *  indexed by context id. The top-level engine/pguBits fields
     *  hold the across-context aggregate; the top-level profile stays
     *  empty (per-PC attribution only makes sense per context - the
     *  same static PC is a different dynamic branch stream in each). */
    std::vector<ContextCellResult> contexts;
};

/**
 * 64-bit FNV-1a fingerprint over every behaviour-defining field of a
 * spec (workload id, seeds, mode, predictor, engine + compile
 * configuration, budget) - NOT over the execution-strategy knobs.
 * Two specs that would simulate differently get different prints;
 * the same spec re-run later reproduces its print exactly.
 */
std::uint64_t specFingerprint(const RunSpec &spec);

/** "<dir>/pabp-metrics-<16 hex fingerprint>.json" - where the cell
 *  with this fingerprint exports its metrics (RunSpec::metricsDir). */
std::string metricsFilePath(const std::string &dir,
                            std::uint64_t fingerprint);

/** Executes RunSpec grids over a worker pool. */
class SweepRunner
{
  public:
    struct Config
    {
        /** Worker threads; 0 = hardware concurrency, 1 = run the
         *  grid inline on the calling thread (strictly serial). */
        unsigned jobs = 0;
    };

    struct CacheStats
    {
        std::uint64_t compiles = 0; ///< distinct programs built
        std::uint64_t hits = 0;     ///< runs served a cached program
        std::uint64_t records = 0;  ///< distinct traces decoded
        std::uint64_t traceHits = 0; ///< runs served a cached trace
    };

    SweepRunner() : SweepRunner(Config{}) {}
    explicit SweepRunner(Config config);

    /** Run every spec; results match @p specs index for index. */
    std::vector<RunResult> run(const std::vector<RunSpec> &specs);

    /** run({spec})[0]: one spec on the calling thread (the artifact
     *  memo still applies). */
    RunResult runOne(const RunSpec &spec);

    CacheStats cacheStats() const;
    unsigned effectiveJobs() const { return jobs; }

  private:
    using ProgramHandle = std::shared_ptr<const CompiledProgram>;
    using TraceHandle = std::shared_ptr<const DecodedTrace>;
    using ReportHandle = std::shared_ptr<const PredictabilityReport>;
    /** A memoised artifact, type-erased so one map holds every kind;
     *  the memo() caller knows the concrete type its key names. */
    using Artifact = Expected<std::shared_ptr<const void>>;

    /** Build time of each artifact a cell is the first consumer of,
     *  by memo key. The cell's lookup of the key charges it to the
     *  cell's deadline, once, however many attempts the cell takes. */
    using BuildCharges = std::map<std::string, std::chrono::nanoseconds>;

    /** An artifact run() builds before the cells that read it. */
    struct PlannedBuild;
    /**
     * run()'s plan, one walk over the specs: every artifact the grid
     * reads that the memo does not hold yet, once per distinct key,
     * owned by its first consumer in submission order. Programs form
     * the first build phase; traces, each followed by the report over
     * it, the second.
     */
    struct Plan;

    Plan plan(const std::vector<RunSpec> &specs) const;
    /** Build one planned artifact (and the program it is built from)
     *  into the memo, timing it for its owner's watchdog. */
    void prebuild(PlannedBuild &build, const RunSpec &spec);

    /** Run one cell, filling @p result; the return is its status. */
    Status executeSpec(const RunSpec &spec, BuildCharges &charges,
                       RunResult &result);
    /** One try: fault hook, then executeSpec under the exception
     *  backstop. */
    RunResult executeSpecAttempt(const RunSpec &spec, unsigned attempt,
                                 BuildCharges &charges);
    /** Shard filter + bounded retry loop around executeSpecAttempt. */
    RunResult executeSpecGuarded(const RunSpec &spec,
                                 BuildCharges &charges);

    /**
     * The artifact memo behind compiledFor/decodedFor/characterizedFor
     * and prebuild(): returns @p key's immutable artifact - or its
     * builder's typed error, a throw included - running @p build first
     * if no one has. The first counted lookup of a key counts in
     * @p builds, every later one in @p hits (both null: uncounted),
     * so the CacheStats counts do not depend on which worker built
     * what. Defined in sweep.cc, its only user.
     */
    template <typename T, typename Build>
    Expected<std::shared_ptr<const T>> memo(const std::string &key,
                                            std::uint64_t *builds,
                                            std::uint64_t *hits,
                                            Build &&build);
    Expected<ProgramHandle> compiledFor(const RunSpec &spec);
    /** The decoded trace of a (program, measurement seed, budget)
     *  key, recorded once and replayed by every cell of the key.
     *  @p seed is the measurement seed to record with - spec.seed for
     *  ordinary cells, spec.seed + c for context c of a multi-context
     *  cell. */
    Expected<TraceHandle> decodedFor(const RunSpec &spec,
                                     const ProgramHandle &program,
                                     std::uint64_t seed);
    /** RunSpec::characterize: one shared predictability report per
     *  (program, seed, budget) key, computed over the same decoded
     *  trace every replaying cell of that key consumes. */
    Expected<ReportHandle> characterizedFor(const RunSpec &spec,
                                            const ProgramHandle &program);
    /** Multi-context execution (RunSpec::context.contexts > 1):
     *  builds the per-context traces or emulators, drives the
     *  MultiContextReplayer, and fills the per-context and aggregate
     *  results. @p result arrives with the compile counters set. */
    Status executeMultiCtx(const RunSpec &spec,
                           const ProgramHandle &program,
                           BranchPredictor &pred,
                           GSharePredictor *gshare, RunResult &result);

    /** A memo entry: the artifact, and whether a counted lookup has
     *  claimed its build count yet. */
    struct Memoised
    {
        Artifact artifact;
        bool claimed = false;
    };

    unsigned jobs;

    mutable std::mutex cacheMtx;
    std::map<std::string, Memoised> artifacts;
    CacheStats stats;
};

/**
 * Print every failed cell (index, workload, predictor, status) to
 * @p err and return the failure count - the binaries' exit status is
 * `reportFailures(...) ? 1 : 0`, so run_experiments.sh still notices
 * a broken cell while the rest of the grid's tables print normally.
 */
std::size_t reportFailures(const std::vector<RunSpec> &specs,
                           const std::vector<RunResult> &results,
                           std::ostream &err);

} // namespace pabp::bench

#endif // PABP_BENCH_SWEEP_HH
