/**
 * @file
 * TAGE predictor tests - learning behaviour, folded-history
 * injection, allocation/u-reset mechanics - plus the
 * cross-predictor injectHistoryBits contract test: for EVERY factory
 * kind, the word-at-a-time inject must equal the same bits injected
 * one at a time (a bit-order or fold mismatch here would silently
 * corrupt schedule-cache-hit replays; see docs/PERF.md).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "bpred/factory.hh"
#include "bpred/tage.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace pabp {
namespace {

/** Serialised dynamic state - the strongest equality available. */
std::string
snapshotState(const BranchPredictor &pred)
{
    std::ostringstream os;
    StateSink sink(os);
    pred.saveState(sink);
    return os.str();
}

double
accuracyOnPattern(BranchPredictor &pred, std::uint32_t pc,
                  const std::vector<bool> &pattern, int reps)
{
    int correct = 0, total = 0, warmup = reps / 2;
    for (int r = 0; r < reps; ++r) {
        for (bool taken : pattern) {
            bool predicted = pred.predict(pc);
            pred.update(pc, taken);
            if (r >= warmup) {
                correct += predicted == taken;
                ++total;
            }
        }
    }
    return static_cast<double>(correct) / total;
}

TEST(Tage, LearnsBias)
{
    TagePredictor pred(TageConfig{});
    EXPECT_GT(accuracyOnPattern(pred, 100, {true}, 40), 0.99);
}

TEST(Tage, LearnsLongPattern)
{
    // A 9-period pattern defeats bimodal but is well inside the
    // tagged tables' history reach.
    std::vector<bool> pattern = {true, true, true, true, true,
                                 true, true, true, false};
    TagePredictor pred(TageConfig{});
    EXPECT_GT(accuracyOnPattern(pred, 200, pattern, 200), 0.95);
}

TEST(Tage, PredictAndUpdateMatchesUnfusedPair)
{
    TagePredictor fused(TageConfig{});
    TagePredictor unfused(TageConfig{});
    Rng rng(7);
    for (int i = 0; i < 4000; ++i) {
        std::uint32_t pc = static_cast<std::uint32_t>(rng.below(64))
            * 4;
        bool taken = rng.chance(0.6);
        bool a = fused.predictAndUpdate(pc, taken);
        bool b = unfused.predict(pc);
        unfused.update(pc, taken);
        ASSERT_EQ(a, b) << "at branch " << i;
    }
    EXPECT_EQ(snapshotState(fused), snapshotState(unfused));
}

TEST(Tage, InjectedBitsPerturbFoldedHistory)
{
    // Injecting predicate bits must actually reach the folded
    // registers: two predictors that diverge only in injected bits
    // must end up in different states.
    TagePredictor a(TageConfig{});
    TagePredictor b(TageConfig{});
    Rng rng(11);
    for (int i = 0; i < 512; ++i) {
        std::uint32_t pc =
            static_cast<std::uint32_t>(rng.below(32)) * 4;
        bool taken = rng.chance(0.5);
        a.predictAndUpdate(pc, taken);
        b.predictAndUpdate(pc, taken);
    }
    a.injectHistoryBit(true);
    b.injectHistoryBit(false);
    EXPECT_NE(snapshotState(a), snapshotState(b));
}

TEST(Tage, UBitResetFiresAndIsCounted)
{
    TageConfig cfg;
    cfg.tickPeriod = 256; // small enough to fire many times here
    TagePredictor pred(cfg);
    StatGroup stats;
    pred.registerStats(stats, "pred.");

    Rng rng(13);
    const int branches = 4096;
    for (int i = 0; i < branches; ++i) {
        std::uint32_t pc =
            static_cast<std::uint32_t>(rng.below(512)) * 4;
        pred.predictAndUpdate(pc, rng.chance(0.5));
    }
    EXPECT_EQ(stats.value("pred.u_resets"),
              static_cast<std::uint64_t>(branches) / cfg.tickPeriod);
    // Random outcomes over many PCs must also have exercised the
    // allocation path.
    EXPECT_GT(stats.value("pred.allocations"), 0u);
}

TEST(Tage, StorageBitsAccountsAllTables)
{
    TageConfig cfg;
    TagePredictor pred(cfg);
    // At least the base + tagged + corrector table payload.
    std::size_t floor = (std::size_t{1} << cfg.baseLog2) * 2 +
        cfg.numTables * (std::size_t{1} << cfg.tableLog2) *
            (cfg.counterBits + cfg.usefulBits + cfg.tagBits) +
        (std::size_t{1} << cfg.scLog2) * cfg.scCounterBits;
    EXPECT_GE(pred.storageBits(), floor);
    EXPECT_TRUE(pred.hasGlobalHistory());
    EXPECT_NE(pred.name().find("tage"), std::string::npos);
}

// ---------------------------------------------------------------------
// The injectHistoryBits contract (bpred/predictor.hh): for every
// predictor kind, injectHistoryBits(bits, k) must leave the predictor
// in EXACTLY the state k sequential injectHistoryBit() calls walking
// bits MSB-to-LSB would. k = 63/64 pin the word-boundary cases the
// schedule cache's PGU drain produces; serialised state is compared,
// so a mismatch anywhere (history register, folded registers) fails
// even if near-term predictions happen to agree.

TEST(InjectContract, BulkInjectEqualsSequentialForEveryKind)
{
    const char *const kinds[] = {
        "static-taken", "static-nottaken", "bimodal", "gshare",
        "gag",          "local",           "agree",   "yags",
        "perceptron",   "comb",            "tage"};
    const unsigned ks[] = {1, 7, 63, 64};

    for (const char *kind : kinds) {
        for (unsigned k : ks) {
            SCOPED_TRACE(std::string(kind) + "/k=" + std::to_string(k));
            PredictorPtr bulk = makePredictor(kind, 10);
            PredictorPtr sequential = makePredictor(kind, 10);

            // Identical warmup so the injection lands on non-trivial
            // state.
            Rng rng(0x5eedull + k);
            for (int i = 0; i < 600; ++i) {
                std::uint32_t pc =
                    static_cast<std::uint32_t>(rng.below(256)) * 4;
                bool taken = rng.chance(0.55);
                bulk->predict(pc);
                bulk->update(pc, taken);
                sequential->predict(pc);
                sequential->update(pc, taken);
            }

            // Callers pass only the low k bits (high bits clear).
            std::uint64_t bits = rng.next();
            if (k < 64)
                bits &= (std::uint64_t{1} << k) - 1;
            bulk->injectHistoryBits(bits, k);
            for (unsigned j = k; j-- > 0;)
                sequential->injectHistoryBit(((bits >> j) & 1) != 0);

            EXPECT_EQ(snapshotState(*bulk),
                      snapshotState(*sequential));

            // And the states must agree behaviourally afterwards.
            for (int i = 0; i < 200; ++i) {
                std::uint32_t pc =
                    static_cast<std::uint32_t>(rng.below(256)) * 4;
                bool taken = rng.chance(0.55);
                ASSERT_EQ(bulk->predict(pc), sequential->predict(pc));
                bulk->update(pc, taken);
                sequential->update(pc, taken);
            }
            EXPECT_EQ(snapshotState(*bulk),
                      snapshotState(*sequential));
        }
    }
}

} // namespace
} // namespace pabp
