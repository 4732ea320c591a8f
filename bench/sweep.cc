#include "sweep.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include "bpred/factory.hh"
#include "bpred/gshare.hh"
#include "core/multictx.hh"
#include "sim/emulator.hh"
#include "util/metrics.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace pabp::bench {

namespace {

/** FNV-1a accumulator with typed feeders so the fingerprint is a
 *  stable function of field VALUES, not of struct layout. */
class Fnv
{
  public:
    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            hash ^= p[i];
            hash *= 0x100000001b3ull;
        }
    }

    void
    u64(std::uint64_t v)
    {
        bytes(&v, sizeof(v));
    }

    void u32(std::uint32_t v) { u64(v); }
    void b(bool v) { u64(v ? 1 : 0); }
    void d(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 0xcbf29ce484222325ull;
};

std::uint64_t
resolvedCompileSeed(const RunSpec &spec)
{
    return spec.compileSeed.value_or(spec.seed);
}

void
hashCompileOptions(Fnv &fnv, const CompileOptions &copts,
                   bool if_convert)
{
    fnv.b(if_convert);
    fnv.b(copts.simplifyCfg);
    fnv.u32(copts.heuristics.maxBlocks);
    fnv.u32(copts.heuristics.maxBodyInsts);
    fnv.d(copts.heuristics.minWeightRatio);
    fnv.u64(copts.heuristics.minSeedExec);
    fnv.d(copts.heuristics.minSeedMispredictRatio);
    fnv.b(copts.lowering.sinkExits);
    fnv.u64(copts.profileSteps);
}

void
hashEngineConfig(Fnv &fnv, const EngineConfig &e)
{
    fnv.b(e.useSfpf);
    fnv.b(e.usePgu);
    fnv.u32(e.availDelay);
    fnv.u32(static_cast<std::uint32_t>(e.pgu.source));
    fnv.u32(static_cast<std::uint32_t>(e.pgu.value));
    fnv.b(e.pgu.includePSet);
    fnv.u32(e.pgu.delay);
    fnv.b(e.trainOnSquashed);
    fnv.b(e.conservativeDefTracking);
    fnv.b(e.useSpeculativeSquash);
    fnv.u32(e.pvpEntriesLog2);
    fnv.u32(static_cast<std::uint32_t>(e.specGate));
    fnv.u32(e.jrsEntriesLog2);
    // Target-modelling fields fold in only when armed, so every
    // direction-only spec keeps the fingerprint (and metrics file
    // name) it had before the knob existed.
    if (e.modelTargets) {
        fnv.b(e.modelTargets);
        fnv.u32(e.btbSetsLog2);
        fnv.u32(e.btbWays);
        fnv.u32(e.rasDepth);
    }
}

/** Compiled-program cache key: everything that determines the
 *  program bytes (workload id, compile seed, compile options). */
std::string
programCacheKey(const RunSpec &spec)
{
    Fnv copt_hash;
    hashCompileOptions(copt_hash, spec.compile, spec.ifConvert);
    return spec.workload + ":" +
        std::to_string(resolvedCompileSeed(spec)) + ":" +
        std::to_string(copt_hash.value());
}

/** Decoded-trace cache key: recording is deterministic in (program,
 *  measurement seed, budget), so the same key always yields the same
 *  events and the trace can be shared read-only like the program. */
std::string
traceCacheKey(const RunSpec &spec, std::uint64_t seed)
{
    return programCacheKey(spec) + ":" + std::to_string(seed) + ":" +
        std::to_string(spec.maxInsts) + ":decoded";
}

/** Predictability-report cache key: the report is a pure function of
 *  the trace it is computed over. */
std::string
reportCacheKey(const RunSpec &spec)
{
    return programCacheKey(spec) + ":" + std::to_string(spec.seed) +
        ":" + std::to_string(spec.maxInsts) + ":predictability";
}

/** Cells whose fingerprint maps to another shard are skipped. */
bool
skippedByShard(const RunSpec &spec)
{
    return spec.shard.count > 1 &&
        shardOf(specFingerprint(spec), spec.shard.count) !=
        spec.shard.index;
}

/** Whether a cell gets past building its predictor, and so on to its
 *  trace lookups (executeSpec fails it with a typed error first). */
bool
buildsPredictor(const RunSpec &spec)
{
    if (spec.profileConflicts)
        return spec.predictor == "gshare";
    return tryMakePredictor(spec.predictor, spec.sizeLog2).ok();
}

/** What a cell becomes when its code throws: a typed Corrupt status. */
Status
unhandledException(const std::exception &e)
{
    return Status(StatusCode::Corrupt,
                  std::string("unhandled exception in sweep cell: ") +
                      e.what());
}

/** Build the spec's workload for the given input seed. */
Expected<Workload>
materialiseWorkload(const RunSpec &spec, std::uint64_t seed)
{
    if (spec.factory)
        return spec.factory(seed);
    if (spec.workload.empty())
        return Status(StatusCode::InvalidArgument,
                      "run spec names no workload");
    const std::vector<std::string> known = workloadNames();
    if (std::find(known.begin(), known.end(), spec.workload) ==
        known.end())
        return Status(StatusCode::NotFound,
                      "unknown workload: " + spec.workload);
    return makeWorkload(spec.workload, seed);
}

Expected<std::shared_ptr<const CompiledProgram>>
buildProgram(const RunSpec &spec)
{
    Expected<Workload> wl =
        materialiseWorkload(spec, resolvedCompileSeed(spec));
    PABP_TRY(wl.status());
    CompileOptions copts = spec.compile;
    copts.ifConvert = spec.ifConvert;
    return std::make_shared<const CompiledProgram>(
        compileWorkload(wl.value(), copts));
}

Expected<std::shared_ptr<const DecodedTrace>>
buildTrace(const RunSpec &spec, const CompiledProgram &program,
           std::uint64_t seed)
{
    Expected<Workload> wl = materialiseWorkload(spec, seed);
    PABP_TRY(wl.status());
    Emulator emu(program.prog);
    if (wl.value().init)
        wl.value().init(emu.state());
    RecordedTrace recorded = recordTrace(emu, spec.maxInsts);
    return std::make_shared<const DecodedTrace>(
        DecodedTrace::build(recorded));
}

/** Wall-clock deadline for one cell attempt (RunSpec::watchdogMillis).
 *  Unarmed (0) deadlines never expire and leave the cell loops
 *  un-sliced. */
class CellDeadline
{
  public:
    CellDeadline(const RunSpec &spec, std::uint32_t millis)
        : spec(spec), armed(millis > 0),
          at(std::chrono::steady_clock::now() +
             std::chrono::milliseconds(millis))
    {}

    /** Move the deadline @p spent earlier: a build this cell owns,
     *  timed where the plan ran it, counts as if built here. */
    void
    charge(std::chrono::nanoseconds spent)
    {
        if (armed)
            at -= spent;
    }

    /** Budget slice between checks: the heartbeat grain when armed,
     *  the whole remaining budget when not. */
    std::uint64_t
    slice(std::uint64_t heartbeat, std::uint64_t remaining) const
    {
        if (!armed || heartbeat == 0)
            return remaining;
        return std::min(heartbeat, remaining);
    }

    /** Ok while the deadline holds, DeadlineExceeded once it passed.
     *  NOTE: deliberately free of wall-clock-dependent detail (how
     *  far the cell got varies run to run) - the text lands in
     *  quarantine journal records, whose bytes must converge across
     *  interrupted and clean campaigns (bench/sweep_service.hh). */
    Status
    check() const
    {
        if (!armed || std::chrono::steady_clock::now() < at)
            return Status();
        return Status(StatusCode::DeadlineExceeded,
                      "cell '" + spec.workload + "' overran its " +
                          std::to_string(spec.watchdogMillis) +
                          " ms watchdog deadline");
    }

  private:
    const RunSpec &spec;
    bool armed;
    std::chrono::steady_clock::time_point at;
};

/**
 * The one sliced cell driver. Advances a cell through @p budget
 * instructions in heartbeat slices, checking the deadline after each
 * full slice; @p step(pos, chunk) runs up to @p chunk instructions
 * from @p pos and returns the new position. A step that falls short
 * means the stream ended (trace exhausted, workload halted) and ends
 * the run. Every step continues exactly where the last one stopped,
 * so the slicing is unobservable in the results. Returns the final
 * position, or DeadlineExceeded.
 */
template <typename Step>
Expected<std::uint64_t>
runSliced(const CellDeadline &deadline, std::uint64_t heartbeat,
          std::uint64_t budget, Step &&step)
{
    std::uint64_t pos = 0;
    while (pos < budget) {
        const std::uint64_t chunk = deadline.slice(heartbeat, budget - pos);
        const std::uint64_t next = step(pos, chunk);
        if (next < pos + chunk)
            return next;
        pos = next;
        PABP_TRY(deadline.check());
    }
    return pos;
}

void
accumulateClassStats(BranchClassStats &into,
                     const BranchClassStats &from)
{
    into.branches += from.branches;
    into.taken += from.taken;
    into.mispredicts += from.mispredicts;
    into.squashed += from.squashed;
    into.falseGuard += from.falseGuard;
}

/** Field-wise sum, the across-context aggregate of a multi-context
 *  cell (RunResult::engine). */
void
accumulateEngineStats(EngineStats &into, const EngineStats &from)
{
    into.insts += from.insts;
    into.uncondBranches += from.uncondBranches;
    into.predicateDefines += from.predicateDefines;
    accumulateClassStats(into.all, from.all);
    accumulateClassStats(into.region, from.region);
    accumulateClassStats(into.normal, from.normal);
    into.specSquashed += from.specSquashed;
    into.specSquashedWrong += from.specSquashedWrong;
    into.btbTargetMisses += from.btbTargetMisses;
    into.rasHits += from.rasHits;
    into.rasMisses += from.rasMisses;
}

/** The spec.* identity keys every cell's metrics document carries. */
void
exportSpecKeys(MetricsExporter &ex, const RunSpec &spec)
{
    ex.setText("spec.workload", spec.workload);
    ex.setText("spec.predictor", spec.predictor);
    ex.setText("spec.mode",
               spec.mode == RunMode::Timed
                   ? "timed"
                   : spec.mode == RunMode::Observe ? "observe"
                                                   : "trace");
    ex.setInt("spec.size_log2", spec.sizeLog2);
    ex.setInt("spec.seed", spec.seed);
    ex.setInt("spec.compile_seed", resolvedCompileSeed(spec));
    ex.setInt("spec.max_insts", spec.maxInsts);
    const std::uint64_t fp = specFingerprint(spec);
    char fp_hex[17];
    std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                  static_cast<unsigned long long>(fp));
    ex.setText("spec.fingerprint", fp_hex);
}

/**
 * Build one finished cell's metrics document
 * (docs/OBSERVABILITY.md). The engine must still be alive: the export
 * snapshots the StatGroup the engine registers its gauges into, which
 * is also what pins the registry path itself in every metrics-enabled
 * sweep.
 *
 * The robustness knobs and attempt counts are deliberately NOT
 * exported: a cell that needed a retry must still measure (and
 * serialise) identically to one that did not.
 */
MetricsExporter
buildCellMetrics(const RunSpec &spec, const RunResult &result,
                 PredictionEngine *engine)
{
    MetricsExporter ex;
    exportSpecKeys(ex, spec);

    StatGroup group;
    if (engine) {
        engine->registerStats(group);
        ex.addGroup(group);
        ex.setReal("engine.mpki", engine->stats().mpki());
        engine->branchProfile().exportTo(ex);
        if (result.predictability) {
            // RunSpec::characterize: the workload-character metrics
            // plus the H2P cross-reference against THIS cell's own
            // profile - "are the hard branches the low-predictability
            // ones?" answered per cell (default cutoffs never fail
            // classifyH2p).
            exportPredictability(ex, *result.predictability);
            Expected<H2pClassification> cls =
                classifyH2p(engine->branchProfile());
            if (cls.ok())
                aggregatePredictabilityByTier(ex, cls.value(),
                                              *result.predictability);
        }
    } else {
        // Observe-mode cell: no engine ran, only the instruction
        // budget actually executed is meaningful.
        ex.setInt("engine.insts", result.engine.insts);
    }

    ex.setInt("compile.num_regions", result.numRegions);
    ex.setInt("compile.num_region_branches", result.numRegionBranches);

    if (spec.mode == RunMode::Timed) {
        const PipelineStats &p = result.pipe;
        ex.setInt("pipeline.insts", p.insts);
        ex.setInt("pipeline.cycles", p.cycles);
        ex.setInt("pipeline.icache_misses", p.icacheMisses);
        ex.setInt("pipeline.dcache_misses", p.dcacheMisses);
        ex.setInt("pipeline.l2_misses", p.l2Misses);
        ex.setInt("pipeline.btb_misses", p.btbMisses);
        ex.setInt("pipeline.ras_hits", p.rasHits);
        ex.setInt("pipeline.ras_misses", p.rasMisses);
        ex.setInt("pipeline.mispredict_stall_cycles",
                  p.mispredictStallCycles);
        ex.setReal("pipeline.ipc", p.ipc());
    }

    return ex;
}

/**
 * Metrics document for a multi-context cell. Per-context numbers go
 * under "ctx<N>.*" and the across-context aggregate under "engine.*";
 * per-PC profiles stay in RunResult::contexts, where benches consume
 * them directly (e.g. the per-tier H2P deltas in E21).
 */
MetricsExporter
buildMultiCtxMetrics(const RunSpec &spec, const RunResult &result)
{
    MetricsExporter ex;
    exportSpecKeys(ex, spec);
    ex.setInt("spec.contexts", spec.context.contexts);
    ex.setText("spec.ctx_schedule",
               scheduleKindName(spec.context.schedule));
    ex.setInt("spec.ctx_quantum", spec.context.quantum);
    ex.setInt("spec.ctx_seed", spec.context.scheduleSeed);
    ex.setInt("spec.ctx_shared", spec.context.shared ? 1 : 0);
    ex.setInt("spec.ctx_tag_bits", spec.context.tagBits);

    ex.setInt("compile.num_regions", result.numRegions);
    ex.setInt("compile.num_region_branches", result.numRegionBranches);

    const auto exportStats = [&](const std::string &prefix,
                                 const EngineStats &s,
                                 std::uint64_t pgu_bits) {
        ex.setInt(prefix + "insts", s.insts);
        ex.setInt(prefix + "branches", s.all.branches);
        ex.setInt(prefix + "mispredicts", s.all.mispredicts);
        ex.setReal(prefix + "mispredict_rate",
                   s.all.mispredictRate());
        ex.setReal(prefix + "mpki", s.mpki());
        ex.setInt(prefix + "pgu_bits", pgu_bits);
        if (spec.engine.modelTargets) {
            ex.setInt(prefix + "btb_target_misses",
                      s.btbTargetMisses);
            ex.setInt(prefix + "ras_hits", s.rasHits);
            ex.setInt(prefix + "ras_misses", s.rasMisses);
        }
    };
    exportStats("engine.", result.engine, result.pguBits);
    for (std::size_t c = 0; c < result.contexts.size(); ++c)
        exportStats("ctx" + std::to_string(c) + ".",
                    result.contexts[c].engine,
                    result.contexts[c].pguBits);
    return ex;
}

/**
 * Shared tail of the cell-output paths: capture an already-built
 * metrics document into the result (RunSpec::captureMetrics) and/or
 * export it to a per-cell file (RunSpec::metricsDir). A cell that
 * cannot write its file FAILS with IoError - a sweep that silently
 * lost its measurements would be worse than one that failed loudly.
 */
Status
writeCellOutputs(const RunSpec &spec, RunResult &result,
                 const MetricsExporter &ex)
{
    if (spec.captureMetrics) {
        std::ostringstream os;
        ex.writeJson(os);
        result.metricsJson = os.str();
    }
    if (!spec.metricsDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(spec.metricsDir, ec);
        if (ec)
            return Status(StatusCode::IoError,
                          "cannot create metrics directory '" +
                              spec.metricsDir + "': " + ec.message());
        return ex.writeJsonFile(metricsFilePath(
            spec.metricsDir, specFingerprint(spec)));
    }
    return Status();
}

/** The single-engine cell's observational outputs. */
Status
finishCellOutputs(const RunSpec &spec, RunResult &result,
                  PredictionEngine *engine)
{
    if (spec.metricsDir.empty() && !spec.captureMetrics)
        return Status();
    return writeCellOutputs(spec, result,
                            buildCellMetrics(spec, result, engine));
}

/** The single-engine result tail shared by fast Trace, reference
 *  Trace and Timed cells: counters, profile, conflict counts and the
 *  observational outputs. */
Status
finishEngineCell(const RunSpec &spec, RunResult &result,
                 PredictionEngine &engine, const GSharePredictor *gshare)
{
    result.engine = engine.stats();
    result.pguBits = engine.pguBitsInserted();
    result.profile = engine.branchProfile();
    if (gshare) {
        result.lookups = gshare->lookupCount();
        result.conflicts = gshare->conflictCount();
    }
    return finishCellOutputs(spec, result, &engine);
}

/** The multi-context cell's observational outputs. */
Status
finishMultiCtxOutputs(const RunSpec &spec, RunResult &result)
{
    if (spec.metricsDir.empty() && !spec.captureMetrics)
        return Status();
    return writeCellOutputs(spec, result,
                            buildMultiCtxMetrics(spec, result));
}

} // anonymous namespace

std::uint64_t
specFingerprint(const RunSpec &spec)
{
    Fnv fnv;
    fnv.str("pabp-runspec-v1");
    fnv.str(spec.workload);
    fnv.u64(spec.seed);
    fnv.u64(resolvedCompileSeed(spec));
    fnv.u32(static_cast<std::uint32_t>(spec.mode));
    fnv.str(spec.predictor);
    fnv.u32(spec.sizeLog2);
    hashEngineConfig(fnv, spec.engine);
    hashCompileOptions(fnv, spec.compile, spec.ifConvert);
    fnv.u64(spec.maxInsts);
    fnv.b(spec.profileConflicts);
    // Context interleaving folds in only for real multi-context
    // cells: every single-stream spec keeps its historical print.
    if (spec.context.contexts > 1) {
        fnv.str("ctx");
        fnv.u32(spec.context.contexts);
        fnv.u32(static_cast<std::uint32_t>(spec.context.schedule));
        fnv.u64(spec.context.quantum);
        fnv.u64(spec.context.scheduleSeed);
        fnv.b(spec.context.shared);
        fnv.u32(spec.context.tagBits);
    }
    return fnv.value();
}

std::string
metricsFilePath(const std::string &dir, std::uint64_t fingerprint)
{
    char fp[20];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    std::string sep = dir.empty() || dir.back() == '/' ? "" : "/";
    return dir + sep + "pabp-metrics-" + fp + ".json";
}

SweepRunner::SweepRunner(Config config)
    : jobs(config.jobs ? config.jobs : defaultThreadCount())
{}

template <typename T, typename Build>
Expected<std::shared_ptr<const T>>
SweepRunner::memo(const std::string &key, std::uint64_t *builds,
                  std::uint64_t *hits, Build &&build)
{
    std::unique_lock<std::mutex> lock(cacheMtx);
    auto it = artifacts.find(key);
    if (it == artifacts.end()) {
        // Built outside the lock, so other keys build concurrently.
        lock.unlock();
        Artifact artifact = [&]() -> Artifact {
            try {
                Expected<std::shared_ptr<const T>> built = build();
                if (!built.ok())
                    return built.status();
                return std::shared_ptr<const void>(
                    std::move(built.value()));
            } catch (const std::exception &e) {
                return unhandledException(e);
            }
        }();
        lock.lock();
        it = artifacts.try_emplace(key, Memoised{std::move(artifact), false})
                 .first;
    }
    Memoised &entry = it->second;
    if (builds && hits) {
        ++*(entry.claimed ? hits : builds);
        entry.claimed = true;
    }
    if (!entry.artifact.ok())
        return entry.artifact.status();
    return std::static_pointer_cast<const T>(entry.artifact.value());
}

Expected<SweepRunner::ProgramHandle>
SweepRunner::compiledFor(const RunSpec &spec)
{
    return memo<CompiledProgram>(programCacheKey(spec), &stats.compiles,
                                 &stats.hits,
                                 [&] { return buildProgram(spec); });
}

Expected<SweepRunner::TraceHandle>
SweepRunner::decodedFor(const RunSpec &spec,
                        const ProgramHandle &program,
                        std::uint64_t seed)
{
    return memo<DecodedTrace>(
        traceCacheKey(spec, seed), &stats.records, &stats.traceHits,
        [&] { return buildTrace(spec, *program, seed); });
}

Expected<SweepRunner::ReportHandle>
SweepRunner::characterizedFor(const RunSpec &spec,
                              const ProgramHandle &program)
{
    // Computed over the same decoded trace every replaying cell of
    // the key consumes. The lookup itself is uncounted; the trace it
    // needs counts as usual.
    return memo<PredictabilityReport>(
        reportCacheKey(spec), nullptr, nullptr,
        [&]() -> Expected<ReportHandle> {
            Expected<TraceHandle> decoded =
                decodedFor(spec, program, spec.seed);
            PABP_TRY(decoded.status());
            return std::make_shared<const PredictabilityReport>(
                characterizeTrace(*decoded.value(),
                                  PredictabilityConfig{},
                                  spec.maxInsts));
        });
}

RunResult
SweepRunner::executeSpecAttempt(const RunSpec &spec, unsigned attempt,
                                BuildCharges &charges)
{
    if (spec.faultHook) {
        Status injected = spec.faultHook(attempt);
        if (!injected.ok()) {
            RunResult result;
            result.status = std::move(injected);
            return result;
        }
    }
    RunResult result;
    try {
        result.status = executeSpec(spec, charges, result);
    } catch (const std::exception &e) {
        result = RunResult();
        result.status = unhandledException(e);
    }
    return result;
}

RunResult
SweepRunner::executeSpecGuarded(const RunSpec &spec, BuildCharges &charges)
{
    // Cells owned by another shard are skipped in place: the grid keeps
    // its positional layout (table builders index by position) and the
    // cell reports Ok so reportFailures() stays quiet about it.
    if (skippedByShard(spec)) {
        RunResult result;
        result.skipped = true;
        return result;
    }

    const unsigned max_attempts = std::max(1u, spec.maxAttempts);
    RunResult result;
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        result = executeSpecAttempt(spec, attempt, charges);
        result.attempts = attempt;
        if (result.status.ok() ||
            !retryableStatus(result.status.code()) ||
            attempt == max_attempts) {
            break;
        }
        pabp_warn("sweep cell (" + spec.workload + ", " + spec.predictor +
                  ") attempt " + std::to_string(attempt) +
                  " failed retryably: " + result.status.toString());
        if (spec.retryBackoffMillis > 0) {
            const std::uint64_t backoff =
                static_cast<std::uint64_t>(spec.retryBackoffMillis)
                << (attempt - 1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff));
        }
    }
    return result;
}

Status
SweepRunner::executeSpec(const RunSpec &spec, BuildCharges &charges,
                         RunResult &result)
{
    // Armed at cell entry. Timed and multi-context cells run in one
    // shot, bounded by their instruction budget alone.
    CellDeadline deadline(
        spec, spec.mode == RunMode::Timed || spec.context.contexts > 1
                  ? 0
                  : spec.watchdogMillis);
    // run() built this cell's inputs before it started; each lookup
    // charges the builds this cell owns, so the artifact phases count
    // against the deadline as if the cell had built them there.
    const auto charge = [&](const std::string &key) {
        if (auto owned = charges.extract(key))
            deadline.charge(owned.mapped());
    };

    Expected<ProgramHandle> program = compiledFor(spec);
    charge(programCacheKey(spec));
    PABP_TRY(program.status());
    PABP_TRY(deadline.check());
    const CompiledProgram &cp = *program.value();
    result.numRegions = cp.info.numRegions;
    result.numRegionBranches = cp.info.numRegionBranches;

    // The measured run's memory image comes from the measurement
    // seed (== compile seed unless a cross-input spec says otherwise).
    Expected<Workload> init_wl = materialiseWorkload(spec, spec.seed);
    PABP_TRY(init_wl.status());
    const StateInit &init = init_wl.value().init;

    // Characterize before the measured run: the report comes off the
    // shared decoded trace, so fast-replay, reference and Timed cells
    // of the same (workload, seed, budget) all report the same bytes.
    if (spec.characterize) {
        if (spec.mode == RunMode::Observe || spec.context.contexts > 1)
            return Status(StatusCode::InvalidArgument,
                          "characterize requires a single-context "
                          "Trace or Timed cell");
        Expected<ReportHandle> rep =
            characterizedFor(spec, program.value());
        // The report's build records its trace, so both fall here.
        charge(reportCacheKey(spec));
        charge(traceCacheKey(spec, spec.seed));
        PABP_TRY(rep.status());
        PABP_TRY(deadline.check());
        result.predictability = rep.value();
    }

    if (spec.mode == RunMode::Observe) {
        if (!spec.observe)
            return Status(StatusCode::InvalidArgument,
                          "Observe spec has no observer");
        Emulator emu(cp.prog);
        if (init)
            init(emu.state());
        DynInst dyn;
        Expected<std::uint64_t> executed = runSliced(
            deadline, spec.heartbeatInsts, spec.maxInsts,
            [&](std::uint64_t pos, std::uint64_t chunk) {
                for (const std::uint64_t end = pos + chunk;
                     pos < end && emu.step(dyn); ++pos)
                    spec.observe(dyn);
                return pos;
            });
        PABP_TRY(executed.status());
        result.engine.insts = executed.value();
        return finishCellOutputs(spec, result, nullptr);
    }

    // Build the predictor; a bad spec fails this cell with a typed
    // error instead of aborting the whole sweep from a worker.
    PredictorPtr owned;
    GSharePredictor *gshare = nullptr;
    if (spec.profileConflicts) {
        if (spec.predictor != "gshare")
            return Status(StatusCode::InvalidArgument,
                          "conflict profiling requires the gshare "
                          "predictor, got: " + spec.predictor);
        auto g = std::make_unique<GSharePredictor>(spec.sizeLog2);
        g->enableConflictProfiling();
        gshare = g.get();
        owned = std::move(g);
    } else {
        Expected<PredictorPtr> made =
            tryMakePredictor(spec.predictor, spec.sizeLog2);
        PABP_TRY(made.status());
        owned = std::move(made.value());
    }

    if (spec.context.contexts > 1) {
        // Multi-context cells interleave N independent instruction
        // streams through the ONE predictor built above.
        if (spec.mode == RunMode::Timed)
            return Status(StatusCode::InvalidArgument,
                          "multi-context cells are Trace-mode only");
        return executeMultiCtx(spec, program.value(), *owned, gshare,
                               result);
    }

    if (spec.mode == RunMode::Timed) {
        // The pipeline charges target penalties from the engine's
        // BTB/RAS outcomes, so every Timed cell arms target
        // modelling. Armed on a local copy AFTER fingerprinting:
        // unconditional for the mode, it adds no information.
        EngineConfig ecfg = spec.engine;
        ecfg.modelTargets = true;
        PredictionEngine engine(*owned, ecfg);
        Pipeline pipe(engine, spec.pipeline);
        Emulator emu(cp.prog);
        if (init)
            init(emu.state());
        result.pipe = pipe.run(emu, spec.maxInsts);
        return finishEngineCell(spec, result, engine, gshare);
    }

    // Trace mode. The fast path (docs/PERF.md) replays the shared
    // pre-decoded trace through the batched engine loop; the
    // reference path steps its own emulator per instruction. Results
    // are bit-identical - the equivalence tests pin stats, profile
    // and metrics bytes - and both continue exactly where the last
    // slice stopped, so heartbeat slicing is unobservable.
    PredictionEngine engine(*owned, spec.engine);
    if (spec.fastReplay) {
        Expected<TraceHandle> decoded =
            decodedFor(spec, program.value(), spec.seed);
        charge(traceCacheKey(spec, spec.seed));
        PABP_TRY(decoded.status());
        PABP_TRY(deadline.check());
        const DecodedTrace &trace = *decoded.value();
        PABP_TRY(runSliced(deadline, spec.heartbeatInsts, spec.maxInsts,
                           [&](std::uint64_t pos, std::uint64_t chunk) {
                               return engine.processBatch(trace, pos,
                                                          chunk);
                           })
                     .status());
    } else {
        Emulator emu(cp.prog);
        if (init)
            init(emu.state());
        PABP_TRY(runSliced(deadline, spec.heartbeatInsts, spec.maxInsts,
                           [&](std::uint64_t pos, std::uint64_t chunk) {
                               return pos + runTrace(emu, engine, chunk);
                           })
                     .status());
    }
    return finishEngineCell(spec, result, engine, gshare);
}

Status
SweepRunner::executeMultiCtx(const RunSpec &spec,
                             const ProgramHandle &program,
                             BranchPredictor &pred,
                             GSharePredictor *gshare, RunResult &result)
{
    const unsigned n = spec.context.contexts;
    MultiCtxConfig mcfg;
    mcfg.schedule.contexts = n;
    mcfg.schedule.kind = spec.context.schedule;
    mcfg.schedule.quantum = spec.context.quantum;
    mcfg.schedule.seed = spec.context.scheduleSeed;
    mcfg.sharedHistory = spec.context.shared;
    mcfg.tagBits = spec.context.tagBits;
    mcfg.engine = spec.engine;
    MultiContextReplayer replayer(pred, mcfg);

    if (spec.fastReplay) {
        // Context c records with measurement seed spec.seed + c: the
        // contexts are independent draws of the same workload, so the
        // decoded lanes stay shareable across cells the usual way.
        std::vector<TraceHandle> handles;
        std::vector<const DecodedTrace *> traces;
        handles.reserve(n);
        traces.reserve(n);
        for (unsigned c = 0; c < n; ++c) {
            Expected<TraceHandle> decoded =
                decodedFor(spec, program, spec.seed + c);
            PABP_TRY(decoded.status());
            handles.push_back(decoded.value());
            traces.push_back(handles.back().get());
        }
        replayer.replayDecoded(traces, spec.maxInsts);
    } else {
        std::vector<std::unique_ptr<Emulator>> owned_emus;
        std::vector<Emulator *> emus;
        for (unsigned c = 0; c < n; ++c) {
            Expected<Workload> wl =
                materialiseWorkload(spec, spec.seed + c);
            PABP_TRY(wl.status());
            owned_emus.push_back(
                std::make_unique<Emulator>(program->prog));
            if (wl.value().init)
                wl.value().init(owned_emus.back()->state());
            emus.push_back(owned_emus.back().get());
        }
        replayer.replayEmulated(emus, spec.maxInsts);
    }

    result.contexts.resize(n);
    for (unsigned c = 0; c < n; ++c) {
        ContextCellResult &ctx = result.contexts[c];
        ctx.engine = replayer.engine(c).stats();
        ctx.profile = replayer.engine(c).branchProfile();
        ctx.pguBits = replayer.engine(c).pguBitsInserted();
        accumulateEngineStats(result.engine, ctx.engine);
        result.pguBits += ctx.pguBits;
    }
    if (gshare) {
        // The shared predictor's conflict profile counts lookups from
        // every context - cross-context aliasing IS the experiment.
        result.lookups = gshare->lookupCount();
        result.conflicts = gshare->conflictCount();
    }
    return finishMultiCtxOutputs(spec, result);
}

/** An artifact run() builds before the cells that read it. */
struct SweepRunner::PlannedBuild
{
    enum class Kind : std::uint8_t { Program, Trace, Report };

    static constexpr std::size_t none = static_cast<std::size_t>(-1);

    Kind kind;
    std::string key;
    std::size_t owner;  ///< its first consumer in submission order
    std::uint64_t seed; ///< Trace: the measurement seed
    /** Trace: the report over it, built right after on the same
     *  worker; none when no cell reads one. */
    std::size_t then = none;
    std::chrono::nanoseconds time{0};
};

/** run()'s plan: every artifact the grid reads that the memo does not
 *  hold yet, once, in first-appearance order, and the two build phases
 *  it falls into. */
struct SweepRunner::Plan
{
    std::vector<PlannedBuild> builds;
    std::vector<std::size_t> programs; ///< phase 1
    /** Phase 2: traces, each with its report, and reports over traces
     *  the memo already holds. */
    std::vector<std::size_t> derived;
};

SweepRunner::Plan
SweepRunner::plan(const std::vector<RunSpec> &specs) const
{
    using Kind = PlannedBuild::Kind;
    constexpr std::size_t none = PlannedBuild::none;
    Plan plan;
    std::map<std::string, std::size_t> seen; ///< key -> build, or none
    // Cell @p cell reads @p key: a build the first time, unless the
    // memo holds it. Returns the new build, or none.
    const auto read = [&](Kind kind, std::string key, std::size_t cell,
                          std::uint64_t seed) {
        auto [it, inserted] = seen.try_emplace(key, none);
        if (!inserted)
            return none;
        {
            std::lock_guard<std::mutex> lock(cacheMtx);
            if (artifacts.count(key))
                return none;
        }
        it->second = plan.builds.size();
        plan.builds.push_back(PlannedBuild{kind, std::move(key), cell, seed});
        return it->second;
    };

    // The plan mirrors executeSpec's lookups, so each build's owner is
    // the cell that builds it in a serial run: a cell reads exactly the
    // artifacts it would look up, and none past a check that fails it.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &spec = specs[i];
        if (skippedByShard(spec))
            continue;
        const std::size_t program =
            read(Kind::Program, programCacheKey(spec), i, 0);
        if (program != none)
            plan.programs.push_back(program);
        const bool single = spec.context.contexts <= 1;
        if (spec.characterize) {
            if (spec.mode == RunMode::Observe || !single)
                continue;
            const std::string trace_key = traceCacheKey(spec, spec.seed);
            const std::size_t trace =
                read(Kind::Trace, trace_key, i, spec.seed);
            if (trace != none)
                plan.derived.push_back(trace);
            const std::size_t report =
                read(Kind::Report, reportCacheKey(spec), i, spec.seed);
            if (report != none) {
                const std::size_t over = seen.at(trace_key);
                if (over != none)
                    plan.builds[over].then = report;
                else
                    plan.derived.push_back(report);
            }
        }
        if (spec.mode != RunMode::Trace || !spec.fastReplay ||
            !buildsPredictor(spec))
            continue;
        // Context c of a multi-context cell records at seed + c.
        for (unsigned c = 0; c < std::max(1u, spec.context.contexts); ++c) {
            const std::size_t trace = read(
                Kind::Trace, traceCacheKey(spec, spec.seed + c), i,
                spec.seed + c);
            if (trace != none)
                plan.derived.push_back(trace);
        }
    }
    return plan;
}

void
SweepRunner::prebuild(PlannedBuild &build, const RunSpec &spec)
{
    const auto start = std::chrono::steady_clock::now();
    // Uncounted lookups: CacheStats count what cells look up, not
    // what the plan builds. (A report's build counts its own trace
    // lookup, exactly as when a cell builds the report.)
    Expected<ProgramHandle> program = memo<CompiledProgram>(
        programCacheKey(spec), nullptr, nullptr,
        [&] { return buildProgram(spec); });
    // A failed program fails its cells at their own program lookup,
    // before they could read anything built from it.
    if (build.kind == PlannedBuild::Kind::Trace && program.ok())
        (void)memo<DecodedTrace>(build.key, nullptr, nullptr, [&] {
            return buildTrace(spec, *program.value(), build.seed);
        });
    if (build.kind == PlannedBuild::Kind::Report && program.ok())
        (void)characterizedFor(spec, program.value());
    build.time = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start);
}

std::vector<RunResult>
SweepRunner::run(const std::vector<RunSpec> &specs)
{
    Plan planned = plan(specs);

    // Three barrier phases over one pool - programs, then traces and
    // reports, then cells - so every build a phase runs has its inputs
    // already, and no lookup waits on a build in progress.
    std::optional<ThreadPool> pool;
    if (jobs > 1 && specs.size() > 1)
        pool.emplace(static_cast<unsigned>(
            std::min<std::size_t>(jobs, specs.size())));
    const auto phase = [&](std::size_t n, const auto &task) {
        for (std::size_t i = 0; i < n; ++i) {
            if (pool)
                pool->submit([&task, i] { task(i); });
            else
                task(i);
        }
        if (pool)
            pool->drain();
    };
    std::vector<PlannedBuild> &builds = planned.builds;
    const auto prebuildAt = [&](std::size_t b) {
        prebuild(builds[b], specs[builds[b].owner]);
    };
    phase(planned.programs.size(),
          [&](std::size_t p) { prebuildAt(planned.programs[p]); });
    phase(planned.derived.size(), [&](std::size_t d) {
        for (std::size_t b = planned.derived[d]; b != PlannedBuild::none;
             b = builds[b].then)
            prebuildAt(b);
    });

    std::vector<BuildCharges> charges(specs.size());
    for (const PlannedBuild &build : builds)
        charges[build.owner].emplace(build.key, build.time);
    std::vector<RunResult> results(specs.size());
    phase(specs.size(), [&](std::size_t i) {
        results[i] = executeSpecGuarded(specs[i], charges[i]);
    });
    return results;
}

RunResult
SweepRunner::runOne(const RunSpec &spec)
{
    return run({spec})[0];
}

SweepRunner::CacheStats
SweepRunner::cacheStats() const
{
    std::lock_guard<std::mutex> lock(cacheMtx);
    return stats;
}

std::size_t
reportFailures(const std::vector<RunSpec> &specs,
               const std::vector<RunResult> &results,
               std::ostream &err)
{
    std::size_t failed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].status.ok())
            continue;
        ++failed;
        const std::string &wl =
            i < specs.size() ? specs[i].workload : std::string("?");
        const std::string &pred = i < specs.size()
            ? specs[i].predictor
            : std::string("?");
        err << "sweep cell #" << i << " (" << wl << ", " << pred
            << ") failed: " << results[i].status.toString() << "\n";
    }
    return failed;
}

} // namespace pabp::bench
