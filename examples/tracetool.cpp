/**
 * @file
 * Trace record/replay/inspect tool over PABPDTF1 trace files
 * (sim/decoded_trace.hh).
 *
 *   tracetool --record=dchain --out=dchain.trace [--steps=1000000]
 *   tracetool --replay=dchain.trace [--predictor=gshare] [--sfpf] [--pgu]
 *   tracetool --inspect=dchain.trace
 *
 * Record once, then sweep predictor configurations over the same
 * dynamic stream without re-emulating - the standard trace-driven
 * methodology, end to end. A damaged file is refused with a typed
 * error (exit 1); re-record it.
 */

#include <cstdio>
#include <string>

#include "bpred/factory.hh"
#include "core/engine.hh"
#include "sim/decoded_trace.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "workloads/workload.hh"

using namespace pabp;

namespace {

DecodedTrace
mapOrDie(const std::string &path)
{
    Expected<DecodedTrace> mapped = mapDecodedTraceFile(path);
    if (!mapped.ok())
        pabp_fatal(mapped.status().toString());
    return std::move(mapped.value());
}

int
doRecord(const Options &opts)
{
    std::string name = opts.str("record");
    std::string out = opts.str("out");
    auto steps = static_cast<std::uint64_t>(opts.integer("steps"));

    Workload wl = makeWorkload(name, 42);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    const DecodedTrace trace = DecodedTrace::record(emu, steps);
    Status saved = saveDecodedTraceFile(trace, out);
    if (!saved.ok())
        pabp_fatal(saved.toString());
    std::printf("recorded %zu events of %s into %s\n", trace.size(),
                name.c_str(), out.c_str());
    return 0;
}

int
doReplay(const Options &opts)
{
    const DecodedTrace trace = mapOrDie(opts.str("replay"));

    PredictorPtr pred = makePredictor(
        opts.str("predictor"),
        static_cast<unsigned>(opts.integer("size-log2")));
    EngineConfig ecfg;
    ecfg.useSfpf = opts.flag("sfpf");
    ecfg.usePgu = opts.flag("pgu");
    PredictionEngine engine(*pred, ecfg);

    engine.processBatch(trace, 0, trace.size());

    const EngineStats &s = engine.stats();
    std::printf("replayed %llu insts on %s (sfpf=%d pgu=%d)\n",
                static_cast<unsigned long long>(s.insts),
                pred->name().c_str(), ecfg.useSfpf, ecfg.usePgu);
    std::printf("  cond branches : %llu\n",
                static_cast<unsigned long long>(s.all.branches));
    std::printf("  mispredicts   : %llu (%.3f%%)\n",
                static_cast<unsigned long long>(s.all.mispredicts),
                100.0 * s.all.mispredictRate());
    std::printf("  squashed      : %llu\n",
                static_cast<unsigned long long>(s.all.squashed));
    std::printf("  region branch : %llu (%.3f%% mispredict)\n",
                static_cast<unsigned long long>(s.region.branches),
                100.0 * s.region.mispredictRate());
    return 0;
}

int
doInspect(const Options &opts)
{
    const DecodedTrace trace = mapOrDie(opts.str("inspect"));
    std::uint64_t branches = 0, taken = 0, guards_false = 0;
    std::uint64_t defines = 0, region_insts = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Inst &inst = trace.inst(i);
        if (inst.isConditionalBranch()) {
            ++branches;
            taken += trace.taken(i);
            guards_false += !trace.guard(i);
        }
        defines += inst.writesPredicate();
        region_insts += inst.regionId >= 0;
    }
    std::printf("trace: %zu events, %zu static instructions\n",
                trace.size(), trace.prog.size());
    std::printf("  cond branches  : %llu (%.1f%% taken, %.1f%% false "
                "guard)\n",
                static_cast<unsigned long long>(branches),
                branches ? 100.0 * taken / branches : 0.0,
                branches ? 100.0 * guards_false / branches : 0.0);
    std::printf("  pred defines   : %llu\n",
                static_cast<unsigned long long>(defines));
    std::printf("  region insts   : %llu (%.1f%%)\n",
                static_cast<unsigned long long>(region_insts),
                trace.size() ? 100.0 * region_insts / trace.size() : 0.0);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.declare("record", "", "workload name to record");
    opts.declare("out", "out.trace", "output path for --record");
    opts.declare("replay", "", "trace file to replay");
    opts.declare("inspect", "", "trace file to summarise");
    opts.declare("steps", "1000000", "events to record");
    opts.declare("predictor", "gshare", "predictor kind for --replay");
    opts.declare("size-log2", "12", "predictor size for --replay");
    opts.declare("sfpf", "0", "arm the squash filter on replay");
    opts.declare("pgu", "0", "arm predicate global update on replay");
    if (!opts.parse(argc, argv))
        return 0;

    if (!opts.str("record").empty())
        return doRecord(opts);
    if (!opts.str("replay").empty())
        return doReplay(opts);
    if (!opts.str("inspect").empty())
        return doInspect(opts);
    opts.printHelp(argv[0]);
    return 1;
}
