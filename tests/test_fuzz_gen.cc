/**
 * @file
 * Property tests for the fuzz generator and its case/shrink
 * machinery (docs/FUZZING.md): fixed seed => byte-identical program;
 * generated IR always verifies and its if-converted lowering always
 * passes pred_verify; the branch-density knob is monotone in the
 * static branch count; the `.pabp` case format round-trips; and the
 * shrinker converges to the smallest still-failing knob values.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/pred_verify.hh"
#include "fuzz/fuzz_case.hh"
#include "fuzz/fuzz_gen.hh"
#include "fuzz/fuzz_runner.hh"
#include "fuzz/shrink.hh"

namespace pabp::fuzz {
namespace {

std::vector<EncodedInst>
encodeAll(const Program &prog)
{
    std::vector<EncodedInst> out;
    out.reserve(prog.insts.size());
    for (const Inst &inst : prog.insts)
        out.push_back(encode(inst));
    return out;
}

// ---------------------------------------------------------------------
// Determinism: equal (seed, config) gives byte-identical programs.

TEST(FuzzGen, FixedSeedGivesByteIdenticalPrograms)
{
    FuzzProgramConfig cfg;
    cfg.callDepth = 2;
    cfg.divEdgePercent = 30;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        FuzzPrograms a = buildFuzzPrograms(seed, cfg);
        FuzzPrograms b = buildFuzzPrograms(seed, cfg);
        EXPECT_EQ(encodeAll(a.branchy.prog), encodeAll(b.branchy.prog))
            << "seed " << seed;
        EXPECT_EQ(encodeAll(a.converted.prog),
                  encodeAll(b.converted.prog))
            << "seed " << seed;
        EXPECT_EQ(a.body.fn.dump(), b.body.fn.dump()) << "seed " << seed;
    }
}

TEST(FuzzGen, DifferentSeedsGiveDifferentPrograms)
{
    FuzzProgramConfig cfg;
    FuzzPrograms a = buildFuzzPrograms(1, cfg);
    FuzzPrograms b = buildFuzzPrograms(2, cfg);
    EXPECT_NE(encodeAll(a.branchy.prog), encodeAll(b.branchy.prog));
}

// ---------------------------------------------------------------------
// Well-formedness: IR verifies, lowerings validate, converted code
// passes the pred_verify codegen contract - across seeds and knobs.

TEST(FuzzGen, GeneratedProgramsAlwaysVerify)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        FuzzProgramConfig cfg;
        cfg.branchDensity = static_cast<unsigned>((seed * 17) % 101);
        cfg.hbPressure = static_cast<unsigned>((seed * 31) % 101);
        cfg.predNestDepth = static_cast<unsigned>(seed % 5);
        cfg.loopDepth = static_cast<unsigned>(seed % 4);
        cfg.callDepth = static_cast<unsigned>(seed % 4);
        cfg.divEdgePercent = seed % 2 ? 40 : 0;
        cfg.emptyRas = (seed % 5) == 0;

        FuzzPrograms p = buildFuzzPrograms(seed, cfg);
        EXPECT_EQ(verifyFunction(p.body.fn), "") << "seed " << seed;
        EXPECT_EQ(validateProgram(p.branchy.prog), "")
            << "seed " << seed;
        EXPECT_EQ(validateProgram(p.converted.prog), "")
            << "seed " << seed;
        EXPECT_EQ(verifyPredicatedProgram(p.converted.prog), "")
            << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Knob monotonicity: raising branchDensity with a fixed seed never
// removes a static branch (each item has its own rng stream, so the
// branchy/straight flips are independent).

TEST(FuzzGen, BranchDensityIsMonotoneInStaticBranches)
{
    const unsigned densities[] = {0, 20, 40, 60, 80, 100};
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        unsigned prev = 0;
        for (unsigned density : densities) {
            FuzzProgramConfig cfg;
            cfg.items = 16;
            cfg.branchDensity = density;
            Workload wl = makeFuzzWorkload(seed, cfg);
            unsigned count = staticCondBranches(wl.fn);
            EXPECT_GE(count, prev)
                << "seed " << seed << " density " << density;
            prev = count;
        }
        // Full density must actually add branches over zero density
        // (zero still has the outer loop's one CondBranch).
        FuzzProgramConfig zero;
        zero.items = 16;
        zero.branchDensity = 0;
        FuzzProgramConfig full = zero;
        full.branchDensity = 100;
        EXPECT_GT(staticCondBranches(makeFuzzWorkload(seed, full).fn),
                  staticCondBranches(makeFuzzWorkload(seed, zero).fn))
            << "seed " << seed;
    }
}

// The data-branch knob is drawn only when nonzero, so turning it on
// must strictly add static branches for a branch-free base config,
// and the programs must still pass every verification layer (the
// knob reserves its own stream register; a clash with the counter or
// driver registers would corrupt control flow, not just data).
TEST(FuzzGen, DataBranchKnobAddsBranchesAndVerifies)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        FuzzProgramConfig off;
        off.items = 8;
        off.branchDensity = 0;
        FuzzProgramConfig on = off;
        on.dataBranchPercent = 100;
        EXPECT_GT(staticCondBranches(makeFuzzWorkload(seed, on).fn),
                  staticCondBranches(makeFuzzWorkload(seed, off).fn))
            << "seed " << seed;

        FuzzPrograms p = buildFuzzPrograms(seed, on);
        EXPECT_EQ(verifyFunction(p.body.fn), "") << "seed " << seed;
        EXPECT_EQ(validateProgram(p.branchy.prog), "")
            << "seed " << seed;
        EXPECT_EQ(validateProgram(p.converted.prog), "")
            << "seed " << seed;
        EXPECT_EQ(verifyPredicatedProgram(p.converted.prog), "")
            << "seed " << seed;
    }
}

TEST(FuzzGen, ClampConfigEnforcesRanges)
{
    FuzzProgramConfig cfg;
    cfg.items = 1000;
    cfg.branchDensity = 400;
    cfg.predNestDepth = 99;
    cfg.loopDepth = 99;
    cfg.callDepth = 99;
    cfg.hbPressure = 101;
    cfg.divEdgePercent = 300;
    cfg.repeats = 100000;
    cfg.dataWindow = 1000; // not a power of two
    clampConfig(cfg);
    EXPECT_EQ(cfg.items, 32u);
    EXPECT_EQ(cfg.branchDensity, 100u);
    EXPECT_EQ(cfg.predNestDepth, 4u);
    EXPECT_EQ(cfg.loopDepth, 4u);
    EXPECT_EQ(cfg.callDepth, 6u);
    EXPECT_EQ(cfg.hbPressure, 100u);
    EXPECT_EQ(cfg.divEdgePercent, 100u);
    // The cap leaves the miner room to grow run length well past the
    // campaign draw's range (mining climbs repeats multiplicatively).
    EXPECT_EQ(cfg.repeats, 4096);
    EXPECT_EQ(cfg.dataWindow, 512); // rounded down to a power of two

    FuzzProgramConfig tiny;
    tiny.items = 0;
    tiny.repeats = 0;
    tiny.dataWindow = 3;
    clampConfig(tiny);
    EXPECT_EQ(tiny.items, 1u);
    EXPECT_EQ(tiny.repeats, 1);
    EXPECT_EQ(tiny.dataWindow, 16);
}

// ---------------------------------------------------------------------
// Case format: canonical round trip and typed parse errors.

TEST(FuzzCaseFormat, RoundTripsThroughText)
{
    FuzzCase c;
    c.name = "roundtrip";
    c.seed = 123456789;
    c.predictor = "perceptron";
    c.sizeLog2 = 9;
    c.engine.useSfpf = true;
    c.engine.usePgu = true;
    c.engine.useSpeculativeSquash = true;
    c.engine.specGate = EngineConfig::SpecGate::Jrs;
    c.engine.availDelay = 17;
    c.oracles = static_cast<unsigned>(Oracle::Replay) |
        static_cast<unsigned>(Oracle::Trace);
    c.maxInsts = 7777;
    c.gen.items = 5;
    c.gen.branchDensity = 33;
    c.gen.predNestDepth = 3;
    c.gen.loopDepth = 1;
    c.gen.callDepth = 2;
    c.gen.hbPressure = 91;
    c.gen.divEdgePercent = 12;
    c.gen.dataBranchPercent = 45;
    c.gen.emptyRas = true;
    c.gen.dataWindow = 256;
    c.gen.repeats = 9;
    c.corruptFlips = 4;
    c.corruptSeed = 55;
    c.corruptTruncate = 13;

    Expected<FuzzCase> back = parseCase(formatCase(c));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    const FuzzCase &r = back.value();
    EXPECT_EQ(r.name, c.name);
    EXPECT_EQ(r.seed, c.seed);
    EXPECT_EQ(r.predictor, c.predictor);
    EXPECT_EQ(r.sizeLog2, c.sizeLog2);
    EXPECT_EQ(engineSpecString(r.engine), engineSpecString(c.engine));
    EXPECT_EQ(r.engine.availDelay, c.engine.availDelay);
    EXPECT_EQ(r.oracles, c.oracles);
    EXPECT_EQ(r.maxInsts, c.maxInsts);
    EXPECT_TRUE(r.gen == c.gen);
    EXPECT_EQ(r.corruptFlips, c.corruptFlips);
    EXPECT_EQ(r.corruptSeed, c.corruptSeed);
    EXPECT_EQ(r.corruptTruncate, c.corruptTruncate);
}

TEST(FuzzCaseFormat, TypedParseErrors)
{
    EXPECT_EQ(parseCase("seed=1\n").status().code(),
              StatusCode::BadMagic); // no format line
    EXPECT_EQ(parseCase("format=pabp-fuzz-case-v9\n").status().code(),
              StatusCode::VersionMismatch);
    EXPECT_EQ(
        parseCase("format=pabp-fuzz-case-v1\nbogus_key=1\n")
            .status()
            .code(),
        StatusCode::ParseError);
    EXPECT_EQ(
        parseCase("format=pabp-fuzz-case-v1\nseed=12x\n")
            .status()
            .code(),
        StatusCode::ParseError);
    EXPECT_EQ(
        parseCase("format=pabp-fuzz-case-v1\noracles=nope\n")
            .status()
            .code(),
        StatusCode::ParseError);
    EXPECT_EQ(
        parseCase("format=pabp-fuzz-case-v1\nengine=sfpf+warp\n")
            .status()
            .code(),
        StatusCode::ParseError);
}

TEST(FuzzCaseFormat, EngineSpecRoundTrips)
{
    const char *const specs[] = {"base",
                                 "sfpf",
                                 "pgu",
                                 "sfpf+pgu",
                                 "spec",
                                 "jrs",
                                 "sfpf+pgu+spec",
                                 "sfpf+pgu+jrs",
                                 "sfpf+train",
                                 "sfpf+consdef"};
    for (const char *spec : specs) {
        Expected<EngineConfig> cfg = parseEngineSpec(spec);
        ASSERT_TRUE(cfg.ok()) << spec;
        EXPECT_EQ(engineSpecString(cfg.value()), spec) << spec;
    }
}

TEST(FuzzCaseFormat, OracleMaskFormatting)
{
    EXPECT_EQ(formatOracleMask(allOracles), "all");
    unsigned two = static_cast<unsigned>(Oracle::IfConvert) |
        static_cast<unsigned>(Oracle::Split);
    EXPECT_EQ(formatOracleMask(two), "ifconvert,split");
    Expected<unsigned> parsed = parseOracleMask("ifconvert,split");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), two);
    EXPECT_TRUE(parseOracleMask("all").ok());
    EXPECT_FALSE(parseOracleMask("").ok());
}

// ---------------------------------------------------------------------
// Shrinker: converges to the smallest still-failing knobs and
// respects its evaluation budget.

TEST(FuzzShrink, ConvergesToMinimalFailingKnobs)
{
    FuzzCase start;
    start.gen.items = 8;
    start.maxInsts = 20'000;

    // Synthetic failure: reproduces iff items >= 4 AND maxInsts >= 100.
    FailPredicate pred = [](const FuzzCase &c) {
        return c.gen.items >= 4 && c.maxInsts >= 100;
    };
    ASSERT_TRUE(pred(start));
    ShrinkResult r = shrinkCaseWith(start, pred, 200);
    EXPECT_EQ(r.shrunk.gen.items, 4u);
    // Binary descent halves toward the floor and stops once the
    // midpoint stops reproducing, so it converges to within 2x of
    // the true threshold (100 here), not to it exactly.
    EXPECT_GE(r.shrunk.maxInsts, 100u);
    EXPECT_LT(r.shrunk.maxInsts, 212u);
    EXPECT_TRUE(pred(r.shrunk));
    EXPECT_GT(r.accepted, 0u);
    // Irrelevant knobs collapse to their floors.
    EXPECT_EQ(r.shrunk.gen.repeats, 1);
    EXPECT_EQ(r.shrunk.gen.callDepth, 0u);
    EXPECT_EQ(r.shrunk.gen.branchDensity, 0u);
}

TEST(FuzzShrink, RespectsBudget)
{
    FuzzCase start;
    FailPredicate pred = [](const FuzzCase &) { return true; };
    ShrinkResult r = shrinkCaseWith(start, pred, 3);
    EXPECT_LE(r.attempts, 3u);
}

// ---------------------------------------------------------------------
// Campaign derivation: deterministic in the seed.

TEST(FuzzCampaign, DeriveCaseIsDeterministic)
{
    for (std::uint64_t seed : {1ull, 7ull, 99999ull}) {
        FuzzCase a = deriveCase(seed);
        FuzzCase b = deriveCase(seed);
        EXPECT_EQ(formatCase(a), formatCase(b)) << seed;
    }
    EXPECT_NE(formatCase(deriveCase(1)), formatCase(deriveCase(2)));
}

} // namespace
} // namespace pabp::fuzz
