/**
 * @file
 * Fast-replay equivalence: PredictionEngine::processBatch over a
 * DecodedTrace must be bit-identical - stats, per-branch profile,
 * PGU bit count, exported metrics BYTES - to the reference
 * replayTrace() loop, across predictor kinds (the E2 axis) and
 * engine configurations (the E6 axis plus the speculative-squash
 * extension). Also pins the DecodedTrace lane packing against the
 * live emulator's step() stream, the PABPDTF1 file reader, the
 * clamped cursor contracts of
 * processBatch and replayTraceFrom, the chunked-batch invariant, the
 * ProcessResult::specSquashed/squashed separation, and the sweep
 * runner's fast-vs-reference byte equality and trace-cache counters.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/btb.hh"
#include "bpred/factory.hh"
#include "core/engine.hh"
#include "sim/decoded_trace.hh"
#include "sim/emulator.hh"
#include "sim/trace_io.hh"
#include "sweep.hh"
#include "util/crc32.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

using bench::RunResult;
using bench::RunSpec;
using bench::SweepRunner;

// ---------------------------------------------------------------------
// Shared fixtures: one recorded trace per workload.

DecodedTrace
recordWorkload(const std::string &name, std::uint64_t max_insts)
{
    Workload wl = makeWorkload(name, 42);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    return DecodedTrace::record(emu, max_insts);
}

Emulator
startWorkload(const CompiledProgram &cp, const Workload &wl)
{
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    return emu;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
tempPath(const std::string &name)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->name() + "_" + name;
}

/** Everything the engine exposes after a replay. */
struct ReplayOutcome
{
    EngineStats stats;
    BranchProfile profile;
    std::uint64_t pguBits = 0;
    std::uint64_t processed = 0;
};

ReplayOutcome
runReference(const DecodedTrace &trace, const std::string &kind,
             const EngineConfig &ecfg)
{
    PredictorPtr pred = makePredictor(kind, 12);
    PredictionEngine engine(*pred, ecfg);
    ReplayOutcome out;
    out.processed = replayTrace(trace, engine, trace.size());
    out.stats = engine.stats();
    out.profile = engine.branchProfile();
    out.pguBits = engine.pguBitsInserted();
    return out;
}

ReplayOutcome
runFast(const DecodedTrace &trace, const std::string &kind,
        const EngineConfig &ecfg)
{
    PredictorPtr pred = makePredictor(kind, 12);
    PredictionEngine engine(*pred, ecfg);
    ReplayOutcome out;
    out.processed = engine.processBatch(trace, 0, trace.size());
    out.stats = engine.stats();
    out.profile = engine.branchProfile();
    out.pguBits = engine.pguBitsInserted();
    return out;
}

void
expectEquivalent(const ReplayOutcome &ref, const ReplayOutcome &fast)
{
    EXPECT_EQ(ref.processed, fast.processed);
    EXPECT_EQ(ref.stats, fast.stats);
    EXPECT_EQ(ref.profile, fast.profile);
    EXPECT_EQ(ref.pguBits, fast.pguBits);
    // Guard against a vacuous pass: the trace must actually have
    // exercised the predictor.
    EXPECT_GT(ref.stats.all.branches, 0u);
}

// ---------------------------------------------------------------------
// Lane packing: DecodedTrace::materialise against an independent
// source, a second emulator's step() stream. The reference replay
// loop reads materialise(), so this keeps it independent of the lane
// packing the fast path shares.

TEST(DecodedTraceLanes, MaterialiseMatchesLiveEmulator)
{
    constexpr std::uint64_t steps = 30000;
    for (const std::string &name : workloadNames()) {
        SCOPED_TRACE(name);
        Workload wl = makeWorkload(name, 42);
        const CompiledProgram cp = compileWorkload(wl, CompileOptions{});
        Emulator rec = startWorkload(cp, wl);
        Emulator live = startWorkload(cp, wl);
        const DecodedTrace dec = DecodedTrace::record(rec, steps);

        DynInst a;
        std::size_t i = 0;
        for (; i < steps && live.step(a); ++i) {
            ASSERT_LT(i, dec.size());
            const DynInst b = dec.materialise(i);
            ASSERT_EQ(a.seq, b.seq) << i;
            ASSERT_EQ(a.pc, b.pc) << i;
            ASSERT_EQ(encode(*a.inst), encode(*b.inst)) << i;
            ASSERT_EQ(a.inst->regionId, b.inst->regionId) << i;
            ASSERT_EQ(a.guard, b.guard) << i;
            ASSERT_EQ(a.taken, b.taken) << i;
            ASSERT_EQ(a.isControl, b.isControl) << i;
            ASSERT_EQ(a.nextPc, b.nextPc) << i;
            ASSERT_EQ(a.numPredWrites, b.numPredWrites) << i;
            for (unsigned w = 0; w < a.numPredWrites; ++w) {
                ASSERT_EQ(a.predWrites[w].reg, b.predWrites[w].reg)
                    << i;
                ASSERT_EQ(a.predWrites[w].value, b.predWrites[w].value)
                    << i;
            }
            ASSERT_EQ(a.cmpRel, b.cmpRel) << i;
            ASSERT_EQ(a.isMem, b.isMem) << i;
        }
        EXPECT_EQ(i, dec.size());
        EXPECT_GT(i, 0u);
    }
}

TEST(DecodedTraceLanes, ClassLaneMatchesDispatchRules)
{
    const DecodedTrace dec = recordWorkload("filter", 30000);

    std::uint64_t seen[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < dec.size(); ++i) {
        const Inst &inst = dec.inst(i);
        auto cls = static_cast<DecodedTrace::Class>(dec.cls[i]);
        ++seen[dec.cls[i]];
        switch (cls) {
          case DecodedTrace::Class::CondBranch:
            EXPECT_EQ(inst.op, Opcode::Br) << i;
            EXPECT_NE(inst.qp, 0) << i;
            break;
          case DecodedTrace::Class::UncondControl:
            EXPECT_TRUE(inst.isControl()) << i;
            EXPECT_FALSE(inst.op == Opcode::Br && inst.qp != 0) << i;
            break;
          case DecodedTrace::Class::PredDefine:
            EXPECT_TRUE(inst.op == Opcode::Cmp ||
                        inst.op == Opcode::PSet)
                << i;
            break;
          case DecodedTrace::Class::Other:
            EXPECT_FALSE(inst.isControl()) << i;
            EXPECT_FALSE(inst.writesPredicate()) << i;
            break;
        }
    }
    // An if-converted workload exercises every class.
    EXPECT_GT(seen[0], 0u);
    EXPECT_GT(seen[1], 0u);
    EXPECT_GT(seen[2], 0u);
    EXPECT_GT(seen[3], 0u);
}

// ---------------------------------------------------------------------
// Recording straight into lanes: DecodedTrace::record must be lane for
// lane what build(recordTrace(...)) gives, at every budget shape.

template <typename T>
void
expectLane(const T *a, const T *b, std::size_t n, const char *lane)
{
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(a[i], b[i]) << lane << " lane, event " << i;
}

class DecodedTraceRecord : public ::testing::TestWithParam<std::string>
{};

TEST_P(DecodedTraceRecord, LanesMatchBuildOfRecordedTrace)
{
    // Past every suite workload's halt (the longest runs ~4M).
    constexpr std::uint64_t kPastHalt = 8'000'000;
    Workload wl = makeWorkload(GetParam(), 42);
    const CompiledProgram cp = compileWorkload(wl, CompileOptions{});
    for (std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1},
                            std::uint64_t{4097}, kPastHalt}) {
        SCOPED_TRACE(n);
        Emulator a = startWorkload(cp, wl);
        Emulator b = startWorkload(cp, wl);
        const DecodedTrace rec = DecodedTrace::record(a, n);
        const DecodedTrace ref = DecodedTrace::build(recordTrace(b, n));

        ASSERT_EQ(rec.count, ref.count);
        if (n < kPastHalt)
            EXPECT_EQ(rec.count, n);
        else
            EXPECT_LT(rec.count, n); // the program halted first
        ASSERT_EQ(rec.prog.name, ref.prog.name);
        ASSERT_EQ(rec.prog.insts.size(), ref.prog.insts.size());
        for (std::size_t i = 0; i < rec.prog.insts.size(); ++i) {
            ASSERT_EQ(encode(rec.prog.insts[i]), encode(ref.prog.insts[i]))
                << i;
            ASSERT_EQ(rec.prog.insts[i].regionId,
                      ref.prog.insts[i].regionId)
                << i;
        }
        expectLane(rec.pcs, ref.pcs, rec.count, "pc");
        expectLane(rec.cls, ref.cls, rec.count, "class");
        expectLane(rec.flags, ref.flags, rec.count, "flags");
        expectLane(rec.predReg0, ref.predReg0, rec.count, "predReg0");
        expectLane(rec.predReg1, ref.predReg1, rec.count, "predReg1");
        expectLane(rec.predVal, ref.predVal, rec.count, "predVal");
        expectLane(rec.nextPcs, ref.nextPcs, rec.count, "nextPc");
        EXPECT_NE(rec.schedCache, nullptr);
        EXPECT_FALSE(rec.isMapped());
    }
}

INSTANTIATE_TEST_SUITE_P(
    SuiteWorkloads, DecodedTraceRecord,
    ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(DecodedTraceRecordHalt, KeepsNoBudgetSizedLanes)
{
    Workload wl = makeWorkload("listwalk", 42);
    const CompiledProgram cp = compileWorkload(wl, CompileOptions{});
    Emulator emu = startWorkload(cp, wl);
    const DecodedTrace rec = DecodedTrace::record(emu, 8'000'000);
    ASSERT_TRUE(emu.halted());
    ASSERT_GT(rec.count, 0u);
    ASSERT_LT(rec.count, 8'000'000u);

    // The budget-sized reservation is given back: each lane holds the
    // recorded events and no slack, and the lane views point into it.
    const DecodedTrace::Lanes &lanes = *rec.store;
    EXPECT_EQ(lanes.pcs.capacity(), rec.count);
    EXPECT_EQ(lanes.cls.capacity(), rec.count);
    EXPECT_EQ(lanes.flags.capacity(), rec.count);
    EXPECT_EQ(lanes.predReg0.capacity(), rec.count);
    EXPECT_EQ(lanes.predReg1.capacity(), rec.count);
    EXPECT_EQ(lanes.predVal.capacity(), rec.count);
    EXPECT_EQ(lanes.nextPcs.capacity(), rec.count);
    EXPECT_EQ(rec.pcs, lanes.pcs.data());
    EXPECT_EQ(rec.nextPcs, lanes.nextPcs.data());
}

// ---------------------------------------------------------------------
// Equivalence across the predictor axis (the E2 grid): every factory
// kind, base and fully-armed configs. Covers the devirtualised
// predictors (gshare, comb, perceptron, tage) and the generic
// fallback.

TEST(FastReplayEquivalence, EveryPredictorKind)
{
    static const char *const kinds[] = {
        "static-taken", "static-nottaken", "bimodal", "gshare",
        "gag",          "local",           "agree",   "yags",
        "perceptron",   "comb",            "tage"};

    for (const char *wl : {"interp", "bsort"}) {
        const DecodedTrace dec = recordWorkload(wl, 40000);
        for (const char *kind : kinds) {
            for (int armed = 0; armed < 2; ++armed) {
                SCOPED_TRACE(std::string(wl) + "/" + kind +
                             (armed ? "/+both" : "/base"));
                EngineConfig ecfg;
                ecfg.useSfpf = armed != 0;
                ecfg.usePgu = armed != 0;
                expectEquivalent(runReference(dec, kind, ecfg),
                                 runFast(dec, kind, ecfg));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Equivalence across the configuration axis (the E6 grid plus the
// extension knobs): each flag combination instantiates a different
// batchLoop specialisation, and every ablation that branches inside
// the loop body gets its own cell.

std::vector<std::pair<std::string, EngineConfig>>
configGrid()
{
    std::vector<std::pair<std::string, EngineConfig>> grid;
    EngineConfig base;
    grid.emplace_back("base", base);

    EngineConfig sfpf;
    sfpf.useSfpf = true;
    grid.emplace_back("+sfpf", sfpf);

    EngineConfig pgu;
    pgu.usePgu = true;
    grid.emplace_back("+pgu", pgu);

    EngineConfig both;
    both.useSfpf = true;
    both.usePgu = true;
    grid.emplace_back("+both", both);

    EngineConfig spec = sfpf;
    spec.useSpeculativeSquash = true;
    grid.emplace_back("+sfpf+spec", spec);

    EngineConfig spec_jrs = spec;
    spec_jrs.specGate = EngineConfig::SpecGate::Jrs;
    grid.emplace_back("+sfpf+spec-jrs", spec_jrs);

    EngineConfig all = both;
    all.useSpeculativeSquash = true;
    grid.emplace_back("+both+spec", all);

    EngineConfig train = both;
    train.trainOnSquashed = true;
    grid.emplace_back("+both+trainOnSquashed", train);

    EngineConfig conservative = both;
    conservative.conservativeDefTracking = true;
    grid.emplace_back("+both+conservative", conservative);

    EngineConfig pgu_region = both;
    pgu_region.pgu.source = PguSource::RegionCmps;
    grid.emplace_back("+both+regionCmps", pgu_region);

    EngineConfig pgu_writes = both;
    pgu_writes.pgu.value = PguValue::BothWrites;
    pgu_writes.pgu.includePSet = true;
    grid.emplace_back("+both+bothWrites+pset", pgu_writes);

    EngineConfig no_profile = both;
    no_profile.branchProfileCapacity = 0;
    grid.emplace_back("+both+noProfile", no_profile);
    return grid;
}

TEST(FastReplayEquivalence, EveryEngineConfig)
{
    for (const char *wl : {"bsort", "interp", "dchain", "filter",
                           "histogram"}) {
        const DecodedTrace dec = recordWorkload(wl, 40000);
        for (const auto &[name, ecfg] : configGrid()) {
            SCOPED_TRACE(std::string(wl) + "/" + name);
            expectEquivalent(runReference(dec, "gshare", ecfg),
                             runFast(dec, "gshare", ecfg));
        }
    }
}

// The history-carrying predictors with their own injectHistoryBits
// fast paths (perceptron's SIMD dot/train, yags' tagged tables through
// the generic fallback, tage's folded-history re-fold on its
// devirtualised arm) get the full predicate-config axis, not just
// the base/+both corners of EveryPredictorKind: each config arms a
// different slice of the schedule-cache machinery.

TEST(FastReplayEquivalence, PerceptronAndYagsAcrossConfigs)
{
    struct Cell
    {
        const char *name;
        bool sfpf;
        bool pgu;
    };
    static const Cell cells[] = {{"base", false, false},
                                 {"+sfpf", true, false},
                                 {"+pgu", false, true},
                                 {"+both", true, true}};

    for (const char *wl : {"interp", "fsm"}) {
        const DecodedTrace dec = recordWorkload(wl, 40000);
        for (const char *kind : {"perceptron", "yags", "comb",
                                 "tage"}) {
            for (const Cell &cell : cells) {
                SCOPED_TRACE(std::string(wl) + "/" + kind + "/" +
                             cell.name);
                EngineConfig ecfg;
                ecfg.useSfpf = cell.sfpf;
                ecfg.usePgu = cell.pgu;
                expectEquivalent(runReference(dec, kind, ecfg),
                                 runFast(dec, kind, ecfg));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Target modelling: with EngineConfig::modelTargets armed, the BTB
// and RAS counters must be byte-identical between the reference and
// batched loops. This pins the Btb::lookup side-effect policy
// (bpred/btb.hh): exactly one counting lookup() plus one silent
// update() per taken transfer, in BOTH loops - an extra probe or a
// skipped update in either would desynchronise hits/misses (and LRU
// recency, hence future targets) between replay strategies.

TEST(FastReplayEquivalence, TargetStructureCountersMatchReference)
{
    for (const char *wl : {"interp", "bsort", "fsm"}) {
        SCOPED_TRACE(wl);
        const DecodedTrace dec = recordWorkload(wl, 40000);
        EngineConfig ecfg;
        ecfg.useSfpf = true;
        ecfg.usePgu = true;
        ecfg.modelTargets = true;

        PredictorPtr predA = makePredictor("gshare", 12);
        PredictionEngine ref(*predA, ecfg);
        replayTrace(dec, ref, dec.size());

        PredictorPtr predB = makePredictor("gshare", 12);
        PredictionEngine fast(*predB, ecfg);
        fast.processBatch(dec, 0, dec.size());

        EXPECT_EQ(ref.stats(), fast.stats());
        ASSERT_NE(ref.btb(), nullptr);
        ASSERT_NE(fast.btb(), nullptr);
        EXPECT_EQ(ref.btb()->hits(), fast.btb()->hits());
        EXPECT_EQ(ref.btb()->misses(), fast.btb()->misses());
        EXPECT_EQ(ref.ras()->pushes(), fast.ras()->pushes());
        EXPECT_EQ(ref.ras()->pops(), fast.ras()->pops());
        EXPECT_EQ(ref.ras()->overflows(), fast.ras()->overflows());
        EXPECT_EQ(ref.ras()->underflows(), fast.ras()->underflows());
        // Vacuity guard: the policy is only pinned if the BTB was
        // actually probed.
        EXPECT_GT(ref.btb()->hits() + ref.btb()->misses(), 0u);
    }
}

// ---------------------------------------------------------------------
// Replay-schedule cache: the first fast replay of a (range, config,
// entry state) runs the define kernel and records a schedule on the
// trace; every later identical replay takes the hit path (cached
// guards, word-at-a-time PGU drain, restored predicate-file exit
// state). Both paths must be bit-identical to the reference loop -
// and to each other - or the sweep use case (one trace, many
// predictors) silently simulates two different machines.

TEST(FastReplayEquivalence, ScheduleCacheHitMatchesReference)
{
    for (const char *wl : {"interp", "fsm", "listwalk"}) {
        const DecodedTrace dec = recordWorkload(wl, 40000);
        for (const auto &[name, ecfg] : configGrid()) {
            SCOPED_TRACE(std::string(wl) + "/" + name);
            const ReplayOutcome ref =
                runReference(dec, "gshare", ecfg);
            const ReplayOutcome miss = runFast(dec, "gshare", ecfg);
            const ReplayOutcome hit = runFast(dec, "gshare", ecfg);
            expectEquivalent(ref, miss);
            expectEquivalent(ref, hit);
            // A different predictor kind must reuse the same schedule
            // (it is predictor-independent) and still match ITS
            // reference.
            expectEquivalent(runReference(dec, "perceptron", ecfg),
                             runFast(dec, "perceptron", ecfg));
        }
    }
}

TEST(FastReplayEquivalence, ChunkedScheduleCacheHitMatches)
{
    // Chunked replay captures one schedule per chunk (keyed on the
    // carried predicate state); a second chunked pass hits every one.
    const DecodedTrace dec = recordWorkload("interp", 40000);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;

    const ReplayOutcome oneshot = runFast(dec, "gshare", ecfg);
    for (int pass = 0; pass < 2; ++pass) {
        PredictorPtr pred = makePredictor("gshare", 12);
        PredictionEngine engine(*pred, ecfg);
        std::uint64_t cursor = 0;
        while (cursor < dec.size())
            cursor = engine.processBatch(dec, cursor, 7777);
        SCOPED_TRACE(pass == 0 ? "capture pass" : "hit pass");
        EXPECT_EQ(engine.stats(), oneshot.stats);
        EXPECT_EQ(engine.branchProfile(), oneshot.profile);
        EXPECT_EQ(engine.pguBitsInserted(), oneshot.pguBits);
    }
}

// ---------------------------------------------------------------------
// Decoded-trace files: a mapped trace must behave byte-for-byte like
// the in-memory build it was saved from, and damage must surface as
// TYPED errors, never as a crash or a silently different replay.

TEST(DecodedTraceFile, MmapMatchesInMemory)
{
    const DecodedTrace dec = recordWorkload("filter", 30000);
    const std::string path = tempPath("decoded.pabpdtf");
    ASSERT_TRUE(saveDecodedTraceFile(dec, path).ok());

    Expected<DecodedTrace> mapped = mapDecodedTraceFile(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().toString();
    const DecodedTrace &mm = mapped.value();

    // Lane bytes, not just semantics.
    ASSERT_EQ(mm.size(), dec.size());
    const std::size_t n = dec.size();
    EXPECT_EQ(std::memcmp(mm.pcs, dec.pcs, n * 4), 0);
    EXPECT_EQ(std::memcmp(mm.nextPcs, dec.nextPcs, n * 4), 0);
    EXPECT_EQ(std::memcmp(mm.cls, dec.cls, n), 0);
    EXPECT_EQ(std::memcmp(mm.flags, dec.flags, n), 0);
    EXPECT_EQ(std::memcmp(mm.predReg0, dec.predReg0, n), 0);
    EXPECT_EQ(std::memcmp(mm.predReg1, dec.predReg1, n), 0);
    EXPECT_EQ(std::memcmp(mm.predVal, dec.predVal, n), 0);

    // And the replay over the mapping matches the reference loop,
    // miss and schedule-cache hit alike.
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;
    const ReplayOutcome ref = runReference(dec, "gshare", ecfg);
    expectEquivalent(ref, runFast(mm, "gshare", ecfg));
    expectEquivalent(ref, runFast(mm, "gshare", ecfg));
    std::remove(path.c_str());
}

TEST(DecodedTraceFile, TruncationIsTyped)
{
    const DecodedTrace dec = recordWorkload("bsort", 8000);
    const std::string path = tempPath("trunc.pabpdtf");
    ASSERT_TRUE(saveDecodedTraceFile(dec, path).ok());
    const std::string bytes = readFile(path);

    // Torn anywhere - inside the header, the program section, or the
    // lane region - the mapping must come back Truncated.
    for (const std::size_t keep :
         {std::size_t{10}, std::size_t{100}, bytes.size() - 1}) {
        SCOPED_TRACE("keep=" + std::to_string(keep));
        ASSERT_LT(keep, bytes.size());
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(keep));
        }
        Expected<DecodedTrace> mapped = mapDecodedTraceFile(path);
        ASSERT_FALSE(mapped.ok());
        EXPECT_EQ(mapped.status().code(), StatusCode::Truncated);
    }
    std::remove(path.c_str());
}

TEST(DecodedTraceFile, CorruptionIsTyped)
{
    const DecodedTrace dec = recordWorkload("bsort", 8000);
    const std::string path = tempPath("corrupt.pabpdtf");
    ASSERT_TRUE(saveDecodedTraceFile(dec, path).ok());
    const std::string bytes = readFile(path);

    auto mapWithFlip = [&](std::size_t at) {
        std::string copy = bytes;
        copy[at] = static_cast<char>(copy[at] ^ 0x40);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(copy.data(),
                  static_cast<std::streamsize>(copy.size()));
        out.close();
        return mapDecodedTraceFile(path);
    };

    {
        // Magic damage: not our file at all.
        Expected<DecodedTrace> mapped = mapWithFlip(2);
        ASSERT_FALSE(mapped.ok());
        EXPECT_EQ(mapped.status().code(), StatusCode::BadMagic);
    }
    {
        // Header field damage: the header CRC catches it.
        Expected<DecodedTrace> mapped = mapWithFlip(14);
        ASSERT_FALSE(mapped.ok());
        EXPECT_EQ(mapped.status().code(),
                  StatusCode::ChecksumMismatch);
    }
    {
        // Lane damage: the lane CRC catches it.
        Expected<DecodedTrace> mapped = mapWithFlip(bytes.size() - 1);
        ASSERT_FALSE(mapped.ok());
        EXPECT_EQ(mapped.status().code(),
                  StatusCode::ChecksumMismatch);
    }
    std::remove(path.c_str());
}

TEST(DecodedTraceFile, ImpossiblePredWriteCountIsCorrupt)
{
    // The flags lane has a 2-bit write count but an event has at most
    // two write slots. A file claiming three writes, with every CRC
    // recomputed so only the event check can see it, must be refused
    // before materialise() or the batch loop index past the slots.
    Workload wl = makeWorkload("dchain", 77);
    const CompiledProgram cp = compileWorkload(wl, CompileOptions{});
    Emulator emu = startWorkload(cp, wl);
    const DecodedTrace dec = DecodedTrace::record(emu, 20000);
    const std::string path = tempPath("writes.pabpdtf");
    ASSERT_TRUE(saveDecodedTraceFile(dec, path).ok());
    std::string bytes = readFile(path);

    std::size_t victim = dec.size();
    for (std::size_t i = 0; i < dec.size() && victim == dec.size(); ++i)
        if (dec.numPredWrites(i) == 2)
            victim = i;
    ASSERT_LT(victim, dec.size()) << "no two-write define to damage";

    const std::size_t n = dec.size();
    const std::size_t lanes =
        (36 + dec.prog.size() * instRecordSize + 4 + 7) & ~std::size_t{7};
    const std::size_t flagsLane = lanes + n * 9;
    bytes[flagsLane + victim] =
        static_cast<char>(bytes[flagsLane + victim] | 0x0c);
    const std::uint32_t laneCrc = crc32(bytes.data() + lanes, n * 13);
    std::memcpy(bytes.data() + 28, &laneCrc, 4);
    const std::uint32_t headerCrc = crc32(bytes.data(), 32);
    std::memcpy(bytes.data() + 32, &headerCrc, 4);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    Expected<DecodedTrace> mapped = mapDecodedTraceFile(path);
    ASSERT_FALSE(mapped.ok()) << "three predicate writes mapped Ok";
    EXPECT_EQ(mapped.status().code(), StatusCode::Corrupt)
        << mapped.status().toString();
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Cursor contracts.

TEST(FastReplayEquivalence, ChunkedBatchesMatchOneShot)
{
    const DecodedTrace dec = recordWorkload("interp", 40000);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;

    ReplayOutcome oneshot = runFast(dec, "gshare", ecfg);

    // Deliberately awkward chunk size: chunks end mid-define-window,
    // so the deferred advance/drain sync at each batch boundary is
    // what keeps the state machines aligned.
    PredictorPtr pred = makePredictor("gshare", 12);
    PredictionEngine engine(*pred, ecfg);
    std::uint64_t cursor = 0;
    while (cursor < dec.size())
        cursor = engine.processBatch(dec, cursor, 7777);
    EXPECT_EQ(cursor, dec.size());
    EXPECT_EQ(engine.stats(), oneshot.stats);
    EXPECT_EQ(engine.branchProfile(), oneshot.profile);
    EXPECT_EQ(engine.pguBitsInserted(), oneshot.pguBits);
}

TEST(FastReplayEquivalence, ProcessBatchClampsPastTheEnd)
{
    const DecodedTrace dec = recordWorkload("bsort", 5000);
    PredictorPtr pred = makePredictor("gshare", 12);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    PredictionEngine engine(*pred, ecfg);

    engine.processBatch(dec, 0, dec.size());
    const EngineStats done = engine.stats();

    // At the end and past it: nothing processed, cursor returned
    // UNCHANGED (not yanked back to size()), no counter moves.
    EXPECT_EQ(engine.processBatch(dec, dec.size(), 100), dec.size());
    EXPECT_EQ(engine.processBatch(dec, dec.size() + 7, 100),
              dec.size() + 7);
    EXPECT_EQ(engine.stats(), done);
}

TEST(FastReplayEquivalence, ReplayTraceFromClampsPastTheEnd)
{
    // Regression for the cursor clamp bug: replayTraceFrom with first
    // PAST the end used to misbehave instead of returning the cursor
    // unchanged - a cursor positioned past a shorter trace would
    // silently re-run events.
    const DecodedTrace trace = recordWorkload("bsort", 5000);
    PredictorPtr pred = makePredictor("gshare", 12);
    EngineConfig ecfg;
    PredictionEngine engine(*pred, ecfg);

    replayTrace(trace, engine, trace.size());
    const EngineStats done = engine.stats();

    EXPECT_EQ(replayTraceFrom(trace, engine, trace.size(), 100),
              trace.size());
    EXPECT_EQ(replayTraceFrom(trace, engine, trace.size() + 9, 100),
              trace.size() + 9);
    EXPECT_EQ(engine.stats(), done)
        << "a clamped replay must not process any event";
}

// ---------------------------------------------------------------------
// ProcessResult flag separation: a speculative squash is a GUESS and
// is never folded into the certain SFPF `squashed` flag.

TEST(ProcessResultFlags, SpecSquashedIsDistinctFromSquashed)
{
    const DecodedTrace trace = recordWorkload("interp", 60000);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.useSpeculativeSquash = true;
    PredictorPtr pred = makePredictor("gshare", 12);
    PredictionEngine engine(*pred, ecfg);

    std::uint64_t squashed = 0, spec = 0, spec_mispredicts = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ProcessResult r = engine.process(trace.materialise(i));
        if (r.squashed || r.specSquashed) {
            EXPECT_TRUE(r.condBranch);
        }
        // Mutually exclusive by construction: the certain filter wins
        // and the speculative path only considers unresolved guards.
        EXPECT_FALSE(r.squashed && r.specSquashed) << i;
        if (r.squashed) {
            ++squashed;
            // Resolved-false guard: architecturally not-taken, so a
            // squash is never a mispredict.
            EXPECT_FALSE(r.mispredicted) << i;
        }
        if (r.specSquashed) {
            ++spec;
            spec_mispredicts += r.mispredicted;
        }
    }

    ASSERT_GT(squashed, 0u);
    ASSERT_GT(spec, 0u) << "config must actually exercise the "
                           "speculative path";
    EXPECT_EQ(squashed, engine.stats().all.squashed);
    EXPECT_EQ(spec, engine.stats().specSquashed);
    // The per-result flag is the only honest way to see speculative
    // wrongness at the pipeline interface; the aggregate agrees.
    EXPECT_EQ(spec_mispredicts, engine.stats().specSquashedWrong);
}

// ---------------------------------------------------------------------
// Sweep integration: the fast path is an execution strategy, not a
// configuration - identical fingerprints, identical metric BYTES.

std::vector<RunSpec>
sweepGrid(const std::string &dir, bool fast)
{
    std::vector<RunSpec> specs;
    for (const char *name : {"bsort", "interp", "dchain"}) {
        for (int armed = 0; armed < 2; ++armed) {
            RunSpec spec;
            spec.workload = name;
            spec.engine.useSfpf = armed != 0;
            spec.engine.usePgu = armed != 0;
            spec.maxInsts = 15000;
            spec.metricsDir = dir;
            spec.fastReplay = fast;
            specs.push_back(spec);
        }
    }
    return specs;
}

TEST(SweepFastReplay, MetricsFilesAreByteIdenticalToReference)
{
    const std::string fast_dir = tempPath("fast");
    const std::string ref_dir = tempPath("ref");
    std::vector<RunSpec> fast = sweepGrid(fast_dir, true);
    std::vector<RunSpec> ref = sweepGrid(ref_dir, false);

    SweepRunner fast_runner(SweepRunner::Config{1});
    SweepRunner ref_runner(SweepRunner::Config{1});
    std::vector<RunResult> fast_results = fast_runner.run(fast);
    std::vector<RunResult> ref_results = ref_runner.run(ref);

    for (std::size_t i = 0; i < fast.size(); ++i) {
        SCOPED_TRACE(fast[i].workload + "#" + std::to_string(i));
        ASSERT_TRUE(fast_results[i].status.ok())
            << fast_results[i].status.toString();
        ASSERT_TRUE(ref_results[i].status.ok())
            << ref_results[i].status.toString();
        EXPECT_EQ(fast_results[i].engine, ref_results[i].engine);
        EXPECT_EQ(fast_results[i].profile, ref_results[i].profile);
        EXPECT_EQ(fast_results[i].pguBits, ref_results[i].pguBits);

        // fastReplay is NOT a behaviour-defining field: both cells
        // share one fingerprint, hence one metrics filename, and the
        // exported bytes match exactly.
        const std::uint64_t fp = bench::specFingerprint(fast[i]);
        ASSERT_EQ(fp, bench::specFingerprint(ref[i]));
        const std::string fast_file =
            bench::metricsFilePath(fast_dir, fp);
        const std::string ref_file =
            bench::metricsFilePath(ref_dir, fp);
        EXPECT_EQ(readFile(fast_file), readFile(ref_file));
        std::remove(fast_file.c_str());
        std::remove(ref_file.c_str());
    }

    // The fast grid decodes each workload's trace once and shares it
    // across both configs; the reference grid never touches the
    // decoded-trace cache.
    EXPECT_EQ(fast_runner.cacheStats().records, 3u);
    EXPECT_EQ(fast_runner.cacheStats().traceHits, 3u);
    EXPECT_EQ(ref_runner.cacheStats().records, 0u);
    EXPECT_EQ(ref_runner.cacheStats().traceHits, 0u);
}

} // namespace
} // namespace pabp
