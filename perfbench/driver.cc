/**
 * @file
 * End-to-end sweep benchmark driver (see perfbench/README.md).
 *
 * One process runs one workload's RunSpec grid. The grid is a pure
 * function of (workload, seed, steps); the program under test only
 * ever sees the generated specs.
 *
 *  --mode grid    submits the whole grid at once to a fresh SweepRunner
 *                 (cold program and trace caches, jobs = min(nproc, 4))
 *                 and prints one JSON line: host timings, simulated
 *                 totals, cache counts and a per-cell check verdict
 *                 plus the FNV-1a digest of each cell's metrics bytes.
 *  --mode setup   does everything grid mode does before submitting,
 *                 prints the submission time and exits: a set-up sample
 *                 that costs no grid.
 *  --mode traced  runs the grid through SweepRunner once for the
 *                 sweep-layer numbers, then re-executes it serially by
 *                 calling each layer's public entry point with a span
 *                 around the call, pass after pass until --seconds is
 *                 spent. Every traced cell must reproduce the runner's
 *                 EngineStats and metrics bytes exactly. Spans are
 *                 kept in memory and written to --spans at the end.
 *
 * perfbench/run.py spawns this binary, aggregates the lines into the
 * benchmark's metrics and applies the digest and repeat checks.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/factory.hh"
#include "core/h2p.hh"
#include "core/multictx.hh"
#include "sim/decoded_trace.hh"
#include "sim/emulator.hh"
#include "sim/trace_io.hh"
#include "sweep.hh"
#include "util/metrics.hh"
#include "util/options.hh"
#include "util/stats.hh"

using namespace pabp;
using namespace pabp::bench;

namespace {

/** Per-cell budgets. suite-grid, timed and characterize run the
 *  experiment binaries' standard budget; cold-seeds builds ~50
 *  distinct traces, so a smaller budget keeps its resident caches to
 *  a few hundred MB. */
constexpr std::uint64_t kStandardSteps = 1'500'000;
constexpr std::uint64_t kColdSeedSteps = 500'000;
/** cold-seeds: single-stream seeds per workload. */
constexpr unsigned kColdSeedsPerWorkload = 3;
constexpr unsigned kContexts = 4;

double
monotonicSeconds()
{
    // CLOCK_MONOTONIC explicitly: run.py subtracts its own
    // time.monotonic() spawn stamp from this value.
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6; // KiB
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ------------------------------------------------------------ grids

RunSpec
cell(const std::string &workload, std::uint64_t seed,
     std::uint64_t steps)
{
    RunSpec spec;
    spec.workload = workload;
    spec.seed = seed;
    spec.maxInsts = steps;
    spec.captureMetrics = true;
    return spec;
}

/** The grid of @p workload, submitted workload-major like every
 *  experiment binary. @p steps == 0 selects the workload's budget. */
Expected<std::vector<RunSpec>>
buildGrid(const std::string &workload, std::uint64_t seed,
          std::uint64_t steps)
{
    struct Technique
    {
        bool sfpf;
        bool pgu;
    };
    constexpr Technique kTechniques[] = {
        {false, false}, {true, false}, {false, true}, {true, true}};

    std::vector<RunSpec> specs;
    const std::vector<std::string> names = workloadNames();
    if (workload == "suite-grid") {
        const std::uint64_t n = steps ? steps : kStandardSteps;
        for (const std::string &name : names)
            for (const char *pred : {"gshare", "tage", "perceptron"})
                for (const Technique &t : kTechniques) {
                    RunSpec spec = cell(name, seed, n);
                    spec.predictor = pred;
                    spec.engine.useSfpf = t.sfpf;
                    spec.engine.usePgu = t.pgu;
                    specs.push_back(spec);
                }
    } else if (workload == "cold-seeds") {
        // Every (workload, seed) pair is distinct and compiles with
        // its own measurement seed, so no program or trace is reused.
        // Context c of a multi-context cell records seed + c; those
        // seeds sit above the single-stream ones and compile under
        // their own program key, so they never collide either.
        const std::uint64_t n = steps ? steps : kColdSeedSteps;
        const std::uint64_t base = seed * 16;
        for (std::size_t w = 0; w < names.size(); ++w) {
            for (unsigned k = 0; k < kColdSeedsPerWorkload; ++k) {
                RunSpec spec = cell(names[w], base + k, n);
                spec.engine.useSfpf = spec.engine.usePgu = true;
                specs.push_back(spec);
            }
            if (w % 2 == 0) {
                RunSpec spec =
                    cell(names[w], base + kColdSeedsPerWorkload, n);
                spec.engine.useSfpf = spec.engine.usePgu = true;
                spec.context.contexts = kContexts;
                spec.context.shared = true;
                specs.push_back(spec);
            }
        }
    } else if (workload == "timed") {
        // E8's grid: unconverted base, if-converted base and
        // if-converted +both on the cycle-level pipeline.
        const std::uint64_t n = steps ? steps : kStandardSteps;
        for (const std::string &name : names) {
            RunSpec branchy = cell(name, seed, n);
            branchy.mode = RunMode::Timed;
            branchy.ifConvert = false;
            RunSpec pred = branchy;
            pred.ifConvert = true;
            RunSpec both = pred;
            both.engine.useSfpf = both.engine.usePgu = true;
            specs.insert(specs.end(), {branchy, pred, both});
        }
    } else if (workload == "characterize") {
        const std::uint64_t n = steps ? steps : kStandardSteps;
        for (const std::string &name : names) {
            RunSpec spec = cell(name, seed, n);
            spec.characterize = true;
            specs.push_back(spec);
        }
    } else {
        return Status(StatusCode::InvalidArgument,
                      "unknown workload '" + workload + "'");
    }
    return specs;
}

// ----------------------------------------------------- cell checks

/** Observable consequences of SFPF's 100%-accuracy invariant: a
 *  squashed branch is predicted not-taken with certainty, so it is
 *  never taken and never mispredicted. */
std::string
checkSfpfInvariant(const EngineStats &s, const BranchProfile &profile,
                   bool sfpf_armed)
{
    if (!sfpf_armed && s.all.squashed != 0)
        return "squashes without SFPF armed";
    if (s.all.squashed > s.all.falseGuard)
        return "squashed a branch whose guard was true";
    if (s.all.squashed + s.all.mispredicts > s.all.branches)
        return "a squashed branch mispredicted";
    const auto bad = [](const BranchProfile::Counters &c) {
        return c.sfpfSquashes + c.mispredicts > c.lookups ||
            c.sfpfSquashes + c.taken > c.lookups;
    };
    if (bad(profile.evictedRemainder()))
        return "a squashed branch mispredicted (evicted bucket)";
    for (const auto &[pc, c] : profile.entries())
        if (bad(c))
            return "a squashed branch at pc " + std::to_string(pc) +
                " mispredicted or was taken";
    return "";
}

/** Empty when the cell ran and passed every in-process check. */
std::string
checkCell(const RunSpec &spec, const RunResult &r)
{
    if (!r.status.ok())
        return r.status.toString();
    if (r.metricsJson.empty())
        return "no metrics document captured";
    if (spec.context.contexts > 1) {
        if (r.contexts.size() != spec.context.contexts)
            return "missing per-context results";
        for (const ContextCellResult &ctx : r.contexts) {
            std::string why = checkSfpfInvariant(
                ctx.engine, ctx.profile, spec.engine.useSfpf);
            if (!why.empty())
                return why;
        }
        return "";
    }
    return checkSfpfInvariant(r.engine, r.profile, spec.engine.useSfpf);
}

/** Exact simulated totals over a grid's results. */
struct Simulated
{
    std::uint64_t insts = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t sfpfBranches = 0; ///< branches of SFPF-armed cells
    std::uint64_t squashed = 0;
    std::uint64_t pguBits = 0;
    PipelineStats pipe; ///< summed over Timed cells

    void
    add(const RunSpec &spec, const RunResult &r)
    {
        insts += r.engine.insts;
        mispredicts += r.engine.all.mispredicts;
        if (spec.engine.useSfpf) {
            sfpfBranches += r.engine.all.branches;
            squashed += r.engine.all.squashed;
        }
        pguBits += r.pguBits;
        if (spec.mode == RunMode::Timed) {
            pipe.insts += r.pipe.insts;
            pipe.cycles += r.pipe.cycles;
            pipe.icacheMisses += r.pipe.icacheMisses;
            pipe.mispredictStallCycles += r.pipe.mispredictStallCycles;
        }
    }

    std::string
    json() const
    {
        const auto ratio = [](std::uint64_t a, std::uint64_t b) {
            return b ? static_cast<double>(a) / static_cast<double>(b)
                     : 0.0;
        };
        return "{\"insts\":" + std::to_string(insts) +
            ",\"mispredicts\":" + std::to_string(mispredicts) +
            ",\"mpki\":" + num(1000.0 * ratio(mispredicts, insts)) +
            ",\"sfpf_squash_frac\":" + num(ratio(squashed, sfpfBranches)) +
            ",\"pgu_bits\":" + std::to_string(pguBits) +
            ",\"ipc\":" + num(ratio(pipe.insts, pipe.cycles)) +
            ",\"mispredict_stall_frac\":" +
            num(ratio(pipe.mispredictStallCycles, pipe.cycles)) +
            ",\"icache_mpki\":" +
            num(1000.0 * ratio(pipe.icacheMisses, pipe.insts)) + "}";
    }
};

std::string
cacheJson(const SweepRunner::CacheStats &c)
{
    return "{\"compiles\":" + std::to_string(c.compiles) +
        ",\"compile_hits\":" + std::to_string(c.hits) +
        ",\"records\":" + std::to_string(c.records) +
        ",\"trace_hits\":" + std::to_string(c.traceHits) + "}";
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

/** The untraced run of a grid: what run.py turns into end-to-end
 *  metrics, and the reference the traced pass must reproduce. */
struct GridRun
{
    std::vector<RunResult> results;
    double submitMono = 0.0;
    double wallS = 0.0;
    double cpuS = 0.0;
    unsigned jobs = 0;
    SweepRunner::CacheStats cache;
};

GridRun
runGrid(const std::vector<RunSpec> &specs, unsigned jobs)
{
    GridRun run;
    SweepRunner::Config cfg;
    cfg.jobs = jobs;
    SweepRunner runner(cfg);
    run.jobs = runner.effectiveJobs();
    const double cpu0 = processCpuSeconds();
    run.submitMono = monotonicSeconds();
    run.results = runner.run(specs);
    run.wallS = monotonicSeconds() - run.submitMono;
    run.cpuS = processCpuSeconds() - cpu0;
    run.cache = runner.cacheStats();
    return run;
}

/** Per-cell verdicts and digests plus the simulated totals. */
std::string
cellsJson(const std::vector<RunSpec> &specs, const GridRun &run,
          std::vector<std::string> &failures)
{
    Simulated sim;
    std::string ok = "[", digests = "[";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunResult &r = run.results[i];
        const std::string why = checkCell(specs[i], r);
        if (!why.empty())
            failures.push_back("cell " + std::to_string(i) + " (" +
                               specs[i].workload + ", " +
                               specs[i].predictor + "): " + why);
        sim.add(specs[i], r);
        ok += std::string(i ? "," : "") + (why.empty() ? "1" : "0");
        digests += std::string(i ? "," : "") + "\"" +
            hex64(fnv1a(r.metricsJson)) + "\"";
    }
    return "\"cell_ok\":" + ok + "],\"cell_digest\":" + digests +
        "],\"sim\":" + sim.json();
}

std::string
failuresJson(const std::vector<std::string> &failures)
{
    std::string out = "[";
    for (std::size_t i = 0; i < failures.size(); ++i)
        out += (i ? "," : "") + quoted(failures[i]);
    return out + "]";
}

// ----------------------------------------------------------- tracing

/** One timed call into a layer. @c work is the layer's unit of work
 *  for the call (instructions, events, bytes; 1 for a compile). */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a cell
    unsigned pass = 0;
    std::size_t cell = 0;
    std::uint64_t work = 0;
};

class Tracer
{
  public:
    int
    begin(const std::string &name, int parent, unsigned pass,
          std::size_t cell)
    {
        Span s;
        s.name = name;
        s.parent = parent;
        s.pass = pass;
        s.cell = cell;
        s.startNs = nowNs();
        log.push_back(std::move(s));
        return static_cast<int>(log.size() - 1);
    }

    void
    end(int id, std::uint64_t work)
    {
        log[id].endNs = nowNs();
        log[id].work = work;
    }

    Status
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "id,parent,pass,cell,name,start_ns,end_ns,work\n";
        for (std::size_t i = 0; i < log.size(); ++i) {
            const Span &s = log[i];
            out << i << ',' << s.parent << ',' << s.pass << ','
                << s.cell << ',' << s.name << ',' << s.startNs << ','
                << s.endNs << ',' << s.work << '\n';
        }
        out.flush();
        if (!out)
            return Status(StatusCode::IoError,
                          "cannot write spans to '" + path + "'");
        return Status();
    }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin)
            .count();
    }

    std::chrono::steady_clock::time_point origin =
        std::chrono::steady_clock::now();
    std::vector<Span> log;
};

/** The spec.* keys of a cell's metrics document. */
void
exportSpecKeys(MetricsExporter &ex, const RunSpec &spec)
{
    ex.setText("spec.workload", spec.workload);
    ex.setText("spec.predictor", spec.predictor);
    ex.setText("spec.mode",
               spec.mode == RunMode::Timed ? "timed" : "trace");
    ex.setInt("spec.size_log2", spec.sizeLog2);
    ex.setInt("spec.seed", spec.seed);
    ex.setInt("spec.compile_seed", spec.compileSeed.value_or(spec.seed));
    ex.setInt("spec.max_insts", spec.maxInsts);
    ex.setText("spec.fingerprint", hex64(specFingerprint(spec)));
}

/** A single-stream cell's document, rebuilt from the layers' public
 *  outputs; it must match the runner's captured bytes exactly. */
MetricsExporter
cellDocument(const RunSpec &spec, const RunResult &r,
             PredictionEngine &engine, const CompiledProgram &cp)
{
    MetricsExporter ex;
    exportSpecKeys(ex, spec);
    StatGroup group;
    engine.registerStats(group);
    ex.addGroup(group);
    ex.setReal("engine.mpki", engine.stats().mpki());
    engine.branchProfile().exportTo(ex);
    if (r.predictability) {
        exportPredictability(ex, *r.predictability);
        Expected<H2pClassification> cls =
            classifyH2p(engine.branchProfile());
        if (cls.ok())
            aggregatePredictabilityByTier(ex, cls.value(),
                                          *r.predictability);
    }
    ex.setInt("compile.num_regions", cp.info.numRegions);
    ex.setInt("compile.num_region_branches", cp.info.numRegionBranches);
    if (spec.mode == RunMode::Timed) {
        const PipelineStats &p = r.pipe;
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

/** A multi-context cell's document (per-context and aggregate). */
MetricsExporter
multiCtxDocument(const RunSpec &spec, const RunResult &r,
                 const CompiledProgram &cp)
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
    ex.setInt("compile.num_regions", cp.info.numRegions);
    ex.setInt("compile.num_region_branches", cp.info.numRegionBranches);
    const auto put = [&](const std::string &prefix,
                         const EngineStats &s, std::uint64_t pgu_bits) {
        ex.setInt(prefix + "insts", s.insts);
        ex.setInt(prefix + "branches", s.all.branches);
        ex.setInt(prefix + "mispredicts", s.all.mispredicts);
        ex.setReal(prefix + "mispredict_rate", s.all.mispredictRate());
        ex.setReal(prefix + "mpki", s.mpki());
        ex.setInt(prefix + "pgu_bits", pgu_bits);
    };
    put("engine.", r.engine, r.pguBits);
    for (std::size_t c = 0; c < r.contexts.size(); ++c)
        put("ctx" + std::to_string(c) + ".", r.contexts[c].engine,
            r.contexts[c].pguBits);
    return ex;
}

bool
samePipe(const PipelineStats &a, const PipelineStats &b)
{
    return a.insts == b.insts && a.cycles == b.cycles &&
        a.icacheMisses == b.icacheMisses &&
        a.dcacheMisses == b.dcacheMisses && a.l2Misses == b.l2Misses &&
        a.btbMisses == b.btbMisses && a.rasHits == b.rasHits &&
        a.rasMisses == b.rasMisses &&
        a.mispredictStallCycles == b.mispredictStallCycles;
}

/**
 * One serial traced pass over a grid, with the artifact sharing the
 * runner does (one program per compile key, one decoded trace per
 * (program, seed, budget), one report per characterized trace) and
 * the same request counting, so its cache counts must equal the
 * runner's.
 */
class TracedPass
{
  public:
    TracedPass(Tracer &tracer, unsigned pass) : tracer(tracer), pass(pass)
    {}

    /** Run cell @p i; empty string when it reproduces @p ref. */
    std::string runCell(const RunSpec &spec, std::size_t i,
                        const RunResult &ref);

    SweepRunner::CacheStats cache;
    std::uint64_t decodedBytes = 0;

  private:
    using ProgramHandle = std::shared_ptr<const CompiledProgram>;
    using TraceHandle = std::shared_ptr<const DecodedTrace>;

    static std::string
    programKey(const RunSpec &spec)
    {
        return spec.workload + ":" +
            std::to_string(spec.compileSeed.value_or(spec.seed)) + ":" +
            (spec.ifConvert ? "ifc" : "branchy");
    }

    static std::string
    traceKey(const RunSpec &spec, std::uint64_t seed)
    {
        return programKey(spec) + ":" + std::to_string(seed) + ":" +
            std::to_string(spec.maxInsts);
    }

    ProgramHandle program(const RunSpec &spec, int parent);
    TraceHandle decoded(const RunSpec &spec, const CompiledProgram &cp,
                        std::uint64_t seed, int parent);

    Tracer &tracer;
    unsigned pass;
    std::size_t cellIndex = 0;
    std::map<std::string, ProgramHandle> programs;
    std::map<std::string, TraceHandle> traces;
    std::map<std::string, std::shared_ptr<const PredictabilityReport>>
        reports;
    /** Traces whose first +both replay has been repeated warm. */
    std::set<std::string> repeated;
};

TracedPass::ProgramHandle
TracedPass::program(const RunSpec &spec, int parent)
{
    const std::string key = programKey(spec);
    if (auto it = programs.find(key); it != programs.end()) {
        ++cache.hits;
        return it->second;
    }
    ++cache.compiles;
    const int span = tracer.begin("compile", parent, pass, cellIndex);
    Workload wl = makeWorkload(spec.workload,
                               spec.compileSeed.value_or(spec.seed));
    CompileOptions copts = spec.compile;
    copts.ifConvert = spec.ifConvert;
    ProgramHandle handle = std::make_shared<const CompiledProgram>(
        compileWorkload(wl, copts));
    tracer.end(span, 1);
    return programs[key] = handle;
}

TracedPass::TraceHandle
TracedPass::decoded(const RunSpec &spec, const CompiledProgram &cp,
                    std::uint64_t seed, int parent)
{
    const std::string key = traceKey(spec, seed);
    if (auto it = traces.find(key); it != traces.end()) {
        ++cache.traceHits;
        return it->second;
    }
    ++cache.records;
    Workload wl = makeWorkload(spec.workload, seed);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    int span = tracer.begin("record", parent, pass, cellIndex);
    RecordedTrace recorded = recordTrace(emu, spec.maxInsts);
    tracer.end(span, recorded.size());

    span = tracer.begin("decode", parent, pass, cellIndex);
    TraceHandle handle =
        std::make_shared<const DecodedTrace>(DecodedTrace::build(recorded));
    tracer.end(span, handle->size());
    const DecodedTrace::Lanes &l = *handle->store;
    decodedBytes += l.pcs.size() * 4 + l.nextPcs.size() * 4 +
        l.cls.size() + l.flags.size() + l.predReg0.size() +
        l.predReg1.size() + l.predVal.size();
    return traces[key] = handle;
}

std::string
TracedPass::runCell(const RunSpec &spec, std::size_t i,
                    const RunResult &ref)
{
    cellIndex = i;
    const int cell_span = tracer.begin("cell", -1, pass, i);
    const ProgramHandle cp = program(spec, cell_span);

    RunResult r;
    if (spec.characterize) {
        const std::string key = traceKey(spec, spec.seed);
        auto it = reports.find(key);
        if (it == reports.end()) {
            const TraceHandle trace =
                decoded(spec, *cp, spec.seed, cell_span);
            const int span =
                tracer.begin("characterize", cell_span, pass, i);
            auto report = std::make_shared<const PredictabilityReport>(
                characterizeTrace(*trace, PredictabilityConfig{},
                                  spec.maxInsts));
            tracer.end(span, std::min<std::uint64_t>(trace->size(),
                                                     spec.maxInsts));
            it = reports.emplace(key, report).first;
        }
        r.predictability = it->second;
    }

    Expected<PredictorPtr> pred =
        tryMakePredictor(spec.predictor, spec.sizeLog2);
    if (!pred.ok()) {
        tracer.end(cell_span, 0);
        return pred.status().toString();
    }

    std::string mismatch;
    MetricsExporter doc;
    if (spec.context.contexts > 1) {
        std::vector<TraceHandle> handles;
        std::vector<const DecodedTrace *> lanes;
        for (unsigned c = 0; c < spec.context.contexts; ++c) {
            handles.push_back(
                decoded(spec, *cp, spec.seed + c, cell_span));
            lanes.push_back(handles.back().get());
        }
        MultiCtxConfig mcfg;
        mcfg.schedule.contexts = spec.context.contexts;
        mcfg.schedule.kind = spec.context.schedule;
        mcfg.schedule.quantum = spec.context.quantum;
        mcfg.schedule.seed = spec.context.scheduleSeed;
        mcfg.sharedHistory = spec.context.shared;
        mcfg.tagBits = spec.context.tagBits;
        mcfg.engine = spec.engine;
        MultiContextReplayer replayer(*pred.value(), mcfg);
        const int span = tracer.begin("multictx", cell_span, pass, i);
        const std::uint64_t events =
            replayer.replayDecoded(lanes, spec.maxInsts);
        tracer.end(span, events);
        r.contexts.resize(spec.context.contexts);
        for (unsigned c = 0; c < spec.context.contexts; ++c) {
            ContextCellResult &ctx = r.contexts[c];
            ctx.engine = replayer.engine(c).stats();
            ctx.profile = replayer.engine(c).branchProfile();
            ctx.pguBits = replayer.engine(c).pguBitsInserted();
            // The aggregate fields the document carries.
            r.engine.insts += ctx.engine.insts;
            r.engine.all.branches += ctx.engine.all.branches;
            r.engine.all.mispredicts += ctx.engine.all.mispredicts;
            r.pguBits += ctx.pguBits;
            if (c >= ref.contexts.size() ||
                !(ctx.engine == ref.contexts[c].engine) ||
                ctx.pguBits != ref.contexts[c].pguBits)
                mismatch = "context " + std::to_string(c) +
                    " EngineStats differ from the runner's";
        }
        doc = multiCtxDocument(spec, r, *cp);
    } else if (spec.mode == RunMode::Timed) {
        EngineConfig ecfg = spec.engine;
        ecfg.modelTargets = true;
        PredictionEngine engine(*pred.value(), ecfg);
        Pipeline pipe(engine, spec.pipeline);
        Workload wl = makeWorkload(spec.workload, spec.seed);
        Emulator emu(cp->prog);
        if (wl.init)
            wl.init(emu.state());
        const int span = tracer.begin("pipeline", cell_span, pass, i);
        r.pipe = pipe.run(emu, spec.maxInsts);
        tracer.end(span, r.pipe.insts);
        r.engine = engine.stats();
        r.pguBits = engine.pguBitsInserted();
        if (!samePipe(r.pipe, ref.pipe))
            mismatch = "PipelineStats differ from the runner's";
        doc = cellDocument(spec, r, engine, *cp);
    } else {
        const TraceHandle trace = decoded(spec, *cp, spec.seed, cell_span);
        PredictionEngine engine(*pred.value(), spec.engine);
        int span = tracer.begin("replay", cell_span, pass, i);
        std::uint64_t events = engine.processBatch(*trace, 0, spec.maxInsts);
        tracer.end(span, events);
        r.engine = engine.stats();
        r.pguBits = engine.pguBitsInserted();
        doc = cellDocument(spec, r, engine, *cp);

        // The first +both pass over a trace runs the define kernel and
        // fills the trace's schedule cache; repeat it once, on fresh
        // predictor state, to time the warm pass beside it.
        const std::string key = traceKey(spec, spec.seed);
        if (spec.engine.useSfpf && spec.engine.usePgu &&
            repeated.insert(key).second) {
            Expected<PredictorPtr> again =
                tryMakePredictor(spec.predictor, spec.sizeLog2);
            PredictionEngine warm(*again.value(), spec.engine);
            span = tracer.begin("replay_repeat", cell_span, pass, i);
            events = warm.processBatch(*trace, 0, spec.maxInsts);
            tracer.end(span, events);
            if (!(warm.stats() == r.engine))
                mismatch = "warm repeat replay changed EngineStats";
        }
    }
    if (spec.context.contexts <= 1 && !(r.engine == ref.engine))
        mismatch = "EngineStats differ from the runner's";
    if (r.pguBits != ref.pguBits)
        mismatch = "PGU bit count differs from the runner's";

    const int span = tracer.begin("export", cell_span, pass, i);
    std::ostringstream os;
    doc.writeJson(os);
    const std::string bytes = os.str();
    tracer.end(span, bytes.size());
    tracer.end(cell_span, 0);
    if (mismatch.empty() && bytes != ref.metricsJson)
        mismatch = "metrics bytes differ from the runner's";
    return mismatch;
}

/** min(nproc, 4): the CPUs this process may run on, like nproc. */
unsigned
benchJobs()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int cpus = sched_getaffinity(0, sizeof(set), &set) == 0
        ? CPU_COUNT(&set)
        : 1;
    return static_cast<unsigned>(std::clamp(cpus, 1, 4));
}

/** Everything grid mode does before submitting, then stop: extra
 *  set-up samples that cost no grid. */
int
setupMode(const std::string &head)
{
    SweepRunner::Config cfg;
    cfg.jobs = benchJobs();
    SweepRunner runner(cfg);
    std::cout << head << ",\"submit_mono\":" << num(monotonicSeconds())
              << "}" << std::endl;
    return 0;
}

int
gridMode(const std::vector<RunSpec> &specs, const std::string &head)
{
    const GridRun run = runGrid(specs, benchJobs());
    std::vector<std::string> failures;
    const std::string cells = cellsJson(specs, run, failures);
    std::cout << head << ",\"submit_mono\":" << num(run.submitMono)
              << ",\"wall_s\":" << num(run.wallS)
              << ",\"cpu_s\":" << num(run.cpuS)
              << ",\"jobs\":" << run.jobs
              << ",\"peak_rss_mb\":" << num(peakRssMb())
              << ",\"cells\":" << specs.size()
              << ",\"sweep\":" << cacheJson(run.cache) << "," << cells
              << ",\"failures\":" << failuresJson(failures) << "}"
              << std::endl;
    return 0;
}

int
tracedMode(const std::vector<RunSpec> &specs, const std::string &head,
           double seconds, const std::string &spans_path)
{
    const double start = monotonicSeconds();
    const GridRun run = runGrid(specs, benchJobs());
    std::vector<std::string> failures;
    const std::string cells = cellsJson(specs, run, failures);

    // Serial traced passes, each with fresh artifacts like a fresh
    // runner, until the budget is spent (always at least one).
    Tracer tracer;
    unsigned passes = 0;
    double traced_wall = 0.0;
    std::uint64_t decoded_bytes = 0;
    SweepRunner::CacheStats traced_cache;
    std::size_t traced_failed = 0;
    do {
        TracedPass pass(tracer, passes);
        const double t0 = monotonicSeconds();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::string why =
                pass.runCell(specs[i], i, run.results[i]);
            if (!why.empty()) {
                ++traced_failed;
                failures.push_back("traced pass " +
                                   std::to_string(passes) + ", cell " +
                                   std::to_string(i) + ": " + why);
            }
        }
        traced_wall += monotonicSeconds() - t0;
        decoded_bytes = pass.decodedBytes;
        traced_cache = pass.cache;
        ++passes;
    } while (monotonicSeconds() - start < seconds);

    if (cacheJson(traced_cache) != cacheJson(run.cache))
        failures.push_back("traced cache counts " +
                           cacheJson(traced_cache) +
                           " differ from the runner's " +
                           cacheJson(run.cache));
    Status written = tracer.write(spans_path);
    if (!written.ok()) {
        std::cerr << written.toString() << "\n";
        return 1;
    }
    std::cout << head << ",\"wall_s\":" << num(run.wallS)
              << ",\"cpu_s\":" << num(run.cpuS)
              << ",\"jobs\":" << run.jobs
              << ",\"cells\":" << specs.size()
              << ",\"sweep\":" << cacheJson(run.cache) << "," << cells
              << ",\"passes\":" << passes
              << ",\"traced_wall_s\":" << num(traced_wall)
              << ",\"traced_failed\":" << traced_failed
              << ",\"decoded_mb\":"
              << num(static_cast<double>(decoded_bytes) / 1e6)
              << ",\"failures\":" << failuresJson(failures) << "}"
              << std::endl;
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.declare("workload", "suite-grid",
                 "suite-grid, cold-seeds, timed or characterize");
    opts.declare("seed", "42", "workload seed");
    opts.declare("steps", "0",
                 "per-cell instruction budget (0 = the workload's own)");
    opts.declare("mode", "grid", "grid, setup or traced");
    opts.declare("seconds", "10", "traced mode: time budget");
    opts.declare("spans", "spans.csv", "traced mode: span output file");
    bool help = false;
    Status parsed = opts.tryParse(argc, argv, help);
    if (!parsed.ok()) {
        std::cerr << parsed.toString() << "\n";
        return 2;
    }
    if (help)
        return 0;

    const std::string workload = opts.str("workload");
    const auto seed = static_cast<std::uint64_t>(opts.integer("seed"));
    const auto steps = static_cast<std::uint64_t>(opts.integer("steps"));
    Expected<std::vector<RunSpec>> grid = buildGrid(workload, seed, steps);
    if (!grid.ok()) {
        std::cerr << grid.status().toString() << "\n";
        return 2;
    }
    const std::string mode = opts.str("mode");
    const std::string head = "{\"mode\":" + quoted(mode) +
        ",\"workload\":" + quoted(workload) +
        ",\"seed\":" + std::to_string(seed) +
        ",\"steps\":" + std::to_string(steps);
    if (mode == "setup")
        return setupMode(head);
    if (mode == "grid")
        return gridMode(grid.value(), head);
    if (mode == "traced")
        return tracedMode(grid.value(), head, opts.real("seconds"),
                          opts.str("spans"));
    std::cerr << "unknown --mode '" << mode << "'\n";
    return 2;
}
