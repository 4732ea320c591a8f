#include "fuzz/fuzz_runner.hh"

#include <ostream>

#include "bpred/factory.hh"
#include "util/rng.hh"

namespace pabp::fuzz {

namespace {

std::uint64_t
mix(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Engine-flag combinations a campaign cycles through: the E6 axis
 *  (base/sfpf/pgu/both), the speculative-squash extension with both
 *  confidence gates, and the two ablations. */
const char *const engineSpecs[] = {
    "base",          "sfpf",         "pgu",
    "sfpf+pgu",      "spec",         "sfpf+pgu+jrs",
    "sfpf+train",    "sfpf+consdef", "sfpf+pgu+spec",
};

} // anonymous namespace

FuzzCase
deriveCase(std::uint64_t seed)
{
    Rng rng(mix(seed, 0xde51));

    FuzzCase c;
    c.name = "campaign-" + std::to_string(seed);
    c.seed = seed;
    // The registry order (bpred/factory.cc) is append-only precisely
    // so this draw keeps mapping old campaign seeds to the same
    // predictor kind.
    const std::vector<std::string> &kinds = allPredictorKinds();
    c.predictor = kinds[rng.below(kinds.size())];
    c.sizeLog2 = 8 + static_cast<unsigned>(rng.below(5));

    Expected<EngineConfig> engine =
        parseEngineSpec(engineSpecs[rng.below(std::size(engineSpecs))]);
    c.engine = engine.value(); // specs above are all well-formed
    c.engine.availDelay =
        rng.chance(0.25) ? static_cast<unsigned>(rng.below(33)) : 8;

    c.maxInsts = 4'000 + rng.below(12'000);
    c.gen.items = 2 + static_cast<unsigned>(rng.below(12));
    c.gen.repeats = 2 + static_cast<std::int64_t>(rng.below(16));
    c.gen.branchDensity = static_cast<unsigned>(rng.below(101));
    c.gen.predNestDepth = static_cast<unsigned>(rng.below(4));
    c.gen.loopDepth = static_cast<unsigned>(rng.below(4));
    c.gen.callDepth =
        rng.chance(0.35) ? 1 + static_cast<unsigned>(rng.below(3)) : 0;
    c.gen.hbPressure = static_cast<unsigned>(rng.below(101));
    c.gen.divEdgePercent =
        rng.chance(0.3) ? 10 + static_cast<unsigned>(rng.below(40)) : 0;
    c.gen.emptyRas = rng.chance(0.1);
    c.gen.dataWindow = std::int64_t(64) << rng.below(6); // 64..2048

    // A quarter of the campaign interleaves the stream across several
    // trace contexts so the multictx oracle sees random schedules,
    // history-sharing modes and tag widths, not just the corpus pins.
    if (rng.chance(0.25)) {
        c.contexts = 2 + static_cast<unsigned>(rng.below(3));
        c.ctxSchedule = rng.chance(0.5) ? ScheduleKind::Bursty
                                        : ScheduleKind::RoundRobin;
        c.ctxQuantum = std::uint64_t(16) << rng.below(6); // 16..512
        c.ctxSeed = 1 + rng.below(1'000);
        c.ctxShared = rng.chance(0.6);
        c.ctxTagBits = static_cast<unsigned>(rng.below(3));
    }
    clampConfig(c.gen);
    return c;
}

Expected<CampaignResult>
runCampaign(const CampaignConfig &cfg, const RunEnv &env,
            std::ostream &log)
{
    CampaignResult result;
    for (unsigned i = 0; i < cfg.runs; ++i) {
        const std::uint64_t seed = cfg.baseSeed + i;
        FuzzCase c = deriveCase(seed);
        Expected<CaseOutcome> outcome = runCase(c, env);
        if (!outcome.ok())
            return outcome.status();
        ++result.casesRun;
        if (outcome.value().passed())
            continue;

        ++result.casesFailed;
        log << "FAIL seed " << seed << " (" << c.predictor << "/"
            << engineSpecString(c.engine) << "):\n";
        for (const FuzzReport &report : outcome.value().failures)
            log << "  [" << oracleName(report.oracle) << "] "
                << report.status.toString() << "\n";

        ShrinkResult shrunk = shrinkCase(c, env, cfg.shrinkBudget);
        shrunk.shrunk.name = "min-" + std::to_string(seed);
        log << "  minimised in " << shrunk.attempts << " attempts ("
            << shrunk.accepted << " reductions):\n"
            << formatCase(shrunk.shrunk);
        result.minimized.push_back(shrunk.shrunk);

        if (!cfg.emitDir.empty()) {
            const std::string path = cfg.emitDir + "/min-" +
                std::to_string(seed) + ".pabp";
            Status written = writeCaseFile(path, shrunk.shrunk);
            if (!written.ok())
                return written;
            result.emitted.push_back(path);
            log << "  wrote " << path << "\n";
        }
    }
    log << "campaign: " << result.casesRun << " case(s), "
        << result.casesFailed << " failure(s), seeds ["
        << cfg.baseSeed << ", " << cfg.baseSeed + cfg.runs << ")\n";
    return result;
}

Expected<CaseOutcome>
replayCaseFile(const std::string &path, const RunEnv &env,
               std::ostream &log, unsigned shrink_budget)
{
    Expected<FuzzCase> loaded = readCaseFile(path);
    if (!loaded.ok())
        return loaded.status();
    const FuzzCase &c = loaded.value();

    Expected<CaseOutcome> outcome = runCase(c, env);
    if (!outcome.ok())
        return outcome.status();

    log << path << ": " << c.name << " (" << c.predictor << "/"
        << engineSpecString(c.engine) << ", oracles "
        << formatOracleMask(c.oracles) << ")\n";
    if (outcome.value().passed()) {
        log << "  PASS\n";
        return outcome;
    }
    for (const FuzzReport &report : outcome.value().failures)
        log << "  FAIL [" << oracleName(report.oracle) << "] "
            << report.status.toString() << "\n";
    ShrinkResult shrunk = shrinkCase(c, env, shrink_budget);
    shrunk.shrunk.name = c.name + "-min";
    log << "  minimised reproducer:\n" << formatCase(shrunk.shrunk);
    return outcome;
}

Status
checkHarness(const RunEnv &env, std::ostream &log)
{
    RunEnv injected = env;
    injected.injectClampBug = true;

    FuzzCase c;
    c.name = "clamp-bug-check";
    c.seed = 7;
    c.predictor = "gshare";
    c.oracles = static_cast<unsigned>(Oracle::Split);
    c.maxInsts = 20'000;
    clampConfig(c.gen);

    Expected<CaseOutcome> outcome = runCase(c, injected);
    if (!outcome.ok())
        return outcome.status();
    if (outcome.value().passed())
        return statusError(
            StatusCode::Corrupt,
            "harness check: injected cursor-clamp bug was NOT caught "
            "by the split oracle");
    log << "harness check: injected clamp bug caught:\n";
    for (const FuzzReport &report : outcome.value().failures)
        log << "  [" << oracleName(report.oracle) << "] "
            << report.status.toString() << "\n";

    ShrinkResult shrunk = shrinkCase(c, injected, 200);
    log << "harness check: minimised to max_insts="
        << shrunk.shrunk.maxInsts << " items="
        << shrunk.shrunk.gen.items << " repeats="
        << shrunk.shrunk.gen.repeats << " in " << shrunk.attempts
        << " attempts\n";
    if (shrunk.shrunk.maxInsts > 20)
        return statusError(
            StatusCode::Corrupt,
            "harness check: shrinker left a reproducer of " +
                std::to_string(shrunk.shrunk.maxInsts) +
                " trace instructions (want <= 20)");

    // The minimised case must still reproduce when replayed as
    // written - the corpus contract.
    Expected<CaseOutcome> replay = runCase(shrunk.shrunk, injected);
    if (!replay.ok())
        return replay.status();
    if (replay.value().passed())
        return statusError(StatusCode::Corrupt,
                           "harness check: minimised case does not "
                           "reproduce the injected bug");
    log << "harness check: PASS\n";
    return {};
}

} // namespace pabp::fuzz
