/**
 * @file
 * Property tests for the predictability analyzer
 * (core/predictability.hh). The entropy estimator is pinned against
 * analytic generators whose conditional entropies are known in
 * closed form - made EXACT (not approximate) by the analyzer's
 * warm-up rule: the first k occurrences of a PC never enter the
 * k-conditioned table, so a fully-determined sequence really reports
 * H == 0.0, with no cold-start residue. Also covers the bounded-table
 * eviction remainders and the trace-level characterization fronts,
 * and holds the indexed eviction path to a linear-scan reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "core/predictability.hh"
#include "sim/decoded_trace.hh"
#include "sim/emulator.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

constexpr std::uint32_t kPc = 0x40;

/** Deterministic splitmix-style bit source for the fair-coin pin. */
std::uint64_t
mixBits(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

PredictabilityReport
reportFor(const std::vector<bool> &outcomes,
          PredictabilityConfig cfg = {})
{
    PredictabilityAnalyzer an(cfg);
    for (bool taken : outcomes)
        an.observe(kPc, taken);
    return an.report();
}

// ---------------------------------------------------------------------
// Analytic entropy pins.

TEST(PredictabilityEntropy, AlwaysTakenIsZeroAtEveryK)
{
    std::vector<bool> outcomes(4096, true);
    const PredictabilityReport rep = reportFor(outcomes);

    EXPECT_EQ(rep.occurrences, 4096u);
    EXPECT_DOUBLE_EQ(rep.takenRate(), 1.0);
    EXPECT_DOUBLE_EQ(rep.transitionRate(), 0.0);
    ASSERT_EQ(rep.entropy.size(), 4u);
    for (double h : rep.entropy)
        EXPECT_DOUBLE_EQ(h, 0.0);
    // Warm-up accounting: the k-table only sees occurrences k..N-1.
    ASSERT_EQ(rep.conditioned.size(), 4u);
    EXPECT_EQ(rep.conditioned[0], 4096u);
    EXPECT_EQ(rep.conditioned[1], 4092u);
    EXPECT_EQ(rep.conditioned[2], 4088u);
    EXPECT_EQ(rep.conditioned[3], 4080u);
}

TEST(PredictabilityEntropy, FairCoinApproachesOneBit)
{
    std::vector<bool> outcomes;
    for (std::uint64_t i = 0; i < (1u << 15); ++i)
        outcomes.push_back((mixBits(i) & 1) != 0);
    const PredictabilityReport rep = reportFor(outcomes);

    EXPECT_NEAR(rep.takenRate(), 0.5, 0.02);
    EXPECT_NEAR(rep.transitionRate(), 0.5, 0.02);
    // Unconditioned and lightly-conditioned entropy sit at ~1 bit;
    // history carries no information about an independent coin.
    EXPECT_GT(rep.entropy[0], 0.99);
    EXPECT_LE(rep.entropy[0], 1.0);
    EXPECT_GT(rep.entropy[1], 0.99); // k=4: 2048 samples/pattern
    EXPECT_GT(rep.entropy[2], 0.95); // k=8: ~128 samples/pattern
    // k=16 is deliberately NOT pinned near 1: with 2^15 samples over
    // 2^16 patterns the empirical estimator overfits toward 0. That
    // bias is a property of frequentist conditional entropy, not a
    // bug, and the docs call it out.
}

TEST(PredictabilityEntropy, AlternatorResolvesAtAnyPositiveK)
{
    std::vector<bool> outcomes;
    for (int i = 0; i < 4096; ++i)
        outcomes.push_back(i % 2 == 0);
    const PredictabilityReport rep = reportFor(outcomes);

    // Equal taken/not-taken counts: exactly one bit unconditioned.
    EXPECT_DOUBLE_EQ(rep.entropy[0], 1.0);
    EXPECT_DOUBLE_EQ(rep.takenRate(), 0.5);
    // Every outcome differs from its predecessor except the first.
    EXPECT_EQ(rep.transitions, 4095u);
    // One previous outcome fully determines the next - EXACTLY zero,
    // thanks to the warm-up rule.
    EXPECT_DOUBLE_EQ(rep.entropy[1], 0.0);
    EXPECT_DOUBLE_EQ(rep.entropy[2], 0.0);
    EXPECT_DOUBLE_EQ(rep.entropy[3], 0.0);
}

TEST(PredictabilityEntropy, PeriodEightPatternResolvesOnlyAtDeepK)
{
    // Period-8 pattern chosen so one 4-bit history window occurs at
    // two phases with DIFFERENT successors (0,1,0,1 -> 0 at one
    // phase, -> 1 at another): a 4-bit history cannot fully resolve
    // it, an 8-bit history pins the phase and resolves everything.
    const bool base[8] = {true, true, false, false,
                          true, false, true, false};
    std::vector<bool> outcomes;
    for (int i = 0; i < 8 * 512; ++i)
        outcomes.push_back(base[i % 8]);
    const PredictabilityReport rep = reportFor(outcomes);

    EXPECT_DOUBLE_EQ(rep.entropy[0], 1.0); // four of eight taken
    EXPECT_GT(rep.entropy[1], 0.2);        // k=4: ambiguous window
    EXPECT_LT(rep.entropy[1], 0.3);
    EXPECT_DOUBLE_EQ(rep.entropy[2], 0.0); // k=8 resolves - exactly
    EXPECT_DOUBLE_EQ(rep.entropy[3], 0.0); // deeper stays resolved
}

TEST(PredictabilityEntropy, BinaryEntropyEndpoints)
{
    EXPECT_DOUBLE_EQ(binaryEntropy(0.0), 0.0);
    EXPECT_DOUBLE_EQ(binaryEntropy(1.0), 0.0);
    EXPECT_DOUBLE_EQ(binaryEntropy(0.5), 1.0);
    EXPECT_NEAR(binaryEntropy(0.25), 0.811278, 1e-6);
    EXPECT_DOUBLE_EQ(binaryEntropy(0.25), binaryEntropy(0.75));
}

// ---------------------------------------------------------------------
// Bounded tables: deterministic eviction, explicit remainders.

TEST(PredictabilityEviction, PcFoldKeepsTotalsExact)
{
    PredictabilityConfig cfg;
    cfg.pcCapacity = 2;
    PredictabilityAnalyzer an(cfg);
    // 0x10: 8 occurrences, 0x20: 4, 0x30 arrives at capacity and
    // evicts the least-observed tracked PC (0x20).
    for (int i = 0; i < 8; ++i)
        an.observe(0x10, true);
    for (int i = 0; i < 4; ++i)
        an.observe(0x20, i % 2 == 0);
    for (int i = 0; i < 6; ++i)
        an.observe(0x30, false);

    const PredictabilityReport rep = an.report();
    EXPECT_EQ(rep.perPc.size(), 2u);
    EXPECT_TRUE(rep.perPc.count(0x10));
    EXPECT_TRUE(rep.perPc.count(0x30));
    EXPECT_EQ(rep.evictedBranches, 1u);
    EXPECT_EQ(rep.evictedOccurrences, 4u);
    // Whole-trace totals never lose the folded PC's outcomes.
    EXPECT_EQ(rep.occurrences, 18u);
    EXPECT_EQ(rep.taken, 8u + 2u);
    EXPECT_DOUBLE_EQ(rep.takenRate(), 10.0 / 18.0);
}

TEST(PredictabilityEviction, PcFoldBreaksTiesTowardHighestPc)
{
    PredictabilityConfig cfg;
    cfg.pcCapacity = 2;
    PredictabilityAnalyzer an(cfg);
    an.observe(0x10, true); // tied at one occurrence each
    an.observe(0x20, true);
    an.observe(0x30, true); // evicts 0x20 (tie -> highest PC)

    const PredictabilityReport rep = an.report();
    EXPECT_TRUE(rep.perPc.count(0x10));
    EXPECT_TRUE(rep.perPc.count(0x30));
    EXPECT_EQ(rep.evictedBranches, 1u);
}

TEST(PredictabilityEviction, PatternFoldCountsRemainder)
{
    PredictabilityConfig cfg;
    cfg.historyLengths = {4};
    cfg.patternCapacity = 2;
    PredictabilityAnalyzer an(cfg);
    // A period-8 pattern visits 8 distinct 4-bit windows; with room
    // for 2 the rest fold into the remainder bucket, but every
    // conditioned outcome is still accounted for.
    const bool base[8] = {true, true, false, false,
                          true, false, true, false};
    for (int i = 0; i < 8 * 64; ++i)
        an.observe(kPc, base[i % 8]);

    const PredictabilityReport rep = an.report();
    EXPECT_GT(rep.evictedPatterns, 0u);
    ASSERT_EQ(rep.conditioned.size(), 1u);
    EXPECT_EQ(rep.conditioned[0], 8u * 64u - 4u);
    // The merged remainder is an upper bound: entropy stays finite
    // and within [0, 1].
    EXPECT_GE(rep.entropy[0], 0.0);
    EXPECT_LE(rep.entropy[0], 1.0);
}

TEST(PredictabilityConfigCheck, RejectsMalformedConfigs)
{
    PredictabilityConfig cfg;
    cfg.historyLengths = {};
    EXPECT_FALSE(PredictabilityAnalyzer::validateConfig(cfg).ok());
    cfg.historyLengths = {0, 4, 4};
    EXPECT_FALSE(PredictabilityAnalyzer::validateConfig(cfg).ok());
    cfg.historyLengths = {0, 32};
    EXPECT_FALSE(PredictabilityAnalyzer::validateConfig(cfg).ok());
    cfg.historyLengths = {0, 4};
    cfg.patternCapacity = 0;
    EXPECT_FALSE(PredictabilityAnalyzer::validateConfig(cfg).ok());
    cfg = PredictabilityConfig{};
    EXPECT_TRUE(PredictabilityAnalyzer::validateConfig(cfg).ok());
}

// ---------------------------------------------------------------------
// Trace-level characterization: the recorded lanes and the live
// emulator stream they were recorded from give the same report.

TEST(PredictabilityTrace, RecordedAndDecodedAgree)
{
    Workload wl = makeWorkload("interp", 42);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    Emulator live(cp.prog);
    if (wl.init) {
        wl.init(emu.state());
        wl.init(live.state());
    }
    const DecodedTrace dec = DecodedTrace::record(emu, 30'000);

    PredictabilityAnalyzer an{PredictabilityConfig{}};
    DynInst dyn;
    for (std::uint64_t i = 0; i < 30'000 && live.step(dyn); ++i)
        if (dyn.inst->isConditionalBranch())
            an.observe(dyn.pc, dyn.taken);
    const PredictabilityReport a = an.report();
    const PredictabilityReport b = characterizeTrace(dec);
    ASSERT_EQ(a.perPc.size(), b.perPc.size());
    EXPECT_EQ(a.occurrences, b.occurrences);
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.transitions, b.transitions);
    ASSERT_EQ(a.entropy.size(), b.entropy.size());
    for (std::size_t k = 0; k < a.entropy.size(); ++k)
        EXPECT_DOUBLE_EQ(a.entropy[k], b.entropy[k]);
    // Guard against a vacuous pass.
    EXPECT_GT(a.occurrences, 1000u);
}

TEST(PredictabilityTrace, EventBudgetMatchesReplayBudget)
{
    Workload wl = makeWorkload("bsort", 42);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    const DecodedTrace trace = DecodedTrace::record(emu, 20'000);

    const PredictabilityReport whole = characterizeTrace(trace);
    const PredictabilityReport half =
        characterizeTrace(trace, PredictabilityConfig{},
                          trace.size() / 2);
    EXPECT_LT(half.occurrences, whole.occurrences);
    EXPECT_GT(half.occurrences, 0u);
}

// ---------------------------------------------------------------------
// Differential: the analyzer's victim index against a linear scan.

/**
 * Reference analyzer with the plain eviction rule: pattern tables are
 * pattern-sorted vectors and both levels pick their victim by scanning
 * every entry (fewest observations, ties to the highest key). Its
 * report follows the same arithmetic order as the real one, so the
 * two must agree bit for bit.
 */
class LinearScanAnalyzer
{
  public:
    explicit LinearScanAnalyzer(PredictabilityConfig c) : cfg(std::move(c))
    {}

    void
    observe(std::uint32_t pc, bool taken)
    {
        Pc &st = stateFor(pc);
        for (std::size_t i = 0; i < cfg.historyLengths.size(); ++i) {
            const unsigned k = cfg.historyLengths[i];
            if (st.occurrences < k)
                continue;
            const std::uint32_t mask = k ? ((1u << k) - 1u) : 0u;
            recordPattern(st.tables[i], st.history & mask, taken);
        }
        if (st.occurrences > 0 && taken != st.lastOutcome)
            st.transitions += 1;
        st.occurrences += 1;
        st.taken += taken ? 1 : 0;
        st.lastOutcome = taken;
        st.history = (st.history << 1) | (taken ? 1u : 0u);
    }

    PredictabilityReport
    report() const
    {
        PredictabilityReport rep;
        rep.historyLengths = cfg.historyLengths;
        rep.entropy.assign(cfg.historyLengths.size(), 0.0);
        rep.conditioned.assign(cfg.historyLengths.size(), 0);
        rep.evictedBranches = evictedBranches;
        rep.evictedOccurrences = evictedOccurrences;
        rep.evictedTaken = evictedTaken;
        rep.evictedTransitions = evictedTransitions;
        rep.evictedPatterns = evictedPatterns;
        for (const auto &[pc, st] : table) {
            PredictabilityReport::PerPc out;
            out.occurrences = st.occurrences;
            out.taken = st.taken;
            out.transitions = st.transitions;
            for (const Table &t : st.tables) {
                std::uint64_t n = t.remainder[0] + t.remainder[1];
                for (const auto &[pattern, c] : t.counts)
                    n += c[0] + c[1];
                out.conditioned.push_back(n);
                out.entropy.push_back(entropyOf(t, n));
                rep.evictedPatterns += t.evicted;
            }
            rep.occurrences += st.occurrences;
            rep.taken += st.taken;
            rep.transitions += st.transitions;
            rep.perPc.emplace(pc, std::move(out));
        }
        rep.occurrences += evictedOccurrences;
        rep.taken += evictedTaken;
        rep.transitions += evictedTransitions;
        for (std::size_t i = 0; i < cfg.historyLengths.size(); ++i) {
            std::uint64_t weight = 0;
            double sum = 0.0;
            for (const auto &[pc, per] : rep.perPc) {
                weight += per.conditioned[i];
                sum += static_cast<double>(per.conditioned[i]) *
                    per.entropy[i];
            }
            rep.conditioned[i] = weight;
            rep.entropy[i] =
                weight ? sum / static_cast<double>(weight) : 0.0;
        }
        return rep;
    }

  private:
    using Counts = std::array<std::uint64_t, 2>;

    struct Table
    {
        std::vector<std::pair<std::uint32_t, Counts>> counts; ///< sorted
        Counts remainder = {0, 0};
        std::uint64_t evicted = 0;
    };

    struct Pc
    {
        std::uint64_t occurrences = 0;
        std::uint64_t taken = 0;
        std::uint64_t transitions = 0;
        bool lastOutcome = false;
        std::uint32_t history = 0;
        std::vector<Table> tables;
    };

    static double
    entropyOf(const Table &t, std::uint64_t total)
    {
        if (total == 0)
            return 0.0;
        double h = 0.0;
        auto add = [&](const Counts &c) {
            const std::uint64_t n = c[0] + c[1];
            if (n)
                h += static_cast<double>(n) / static_cast<double>(total) *
                    binaryEntropy(static_cast<double>(c[1]) /
                                  static_cast<double>(n));
        };
        for (const auto &[pattern, c] : t.counts)
            add(c);
        add(t.remainder);
        return h;
    }

    Pc &
    stateFor(std::uint32_t pc)
    {
        auto it = table.find(pc);
        if (it != table.end())
            return it->second;
        if (table.size() >= cfg.pcCapacity) {
            auto victim = table.begin();
            for (auto c = table.begin(); c != table.end(); ++c)
                if (c->second.occurrences < victim->second.occurrences ||
                    (c->second.occurrences ==
                         victim->second.occurrences &&
                     c->first > victim->first))
                    victim = c;
            evictedBranches += 1;
            evictedOccurrences += victim->second.occurrences;
            evictedTaken += victim->second.taken;
            evictedTransitions += victim->second.transitions;
            for (const Table &t : victim->second.tables)
                evictedPatterns += t.evicted;
            table.erase(victim);
        }
        Pc &st = table[pc];
        st.tables.resize(cfg.historyLengths.size());
        return st;
    }

    void
    recordPattern(Table &t, std::uint32_t pattern, bool taken)
    {
        auto find = [&t](std::uint32_t p) {
            return std::lower_bound(
                t.counts.begin(), t.counts.end(), p,
                [](const auto &e, std::uint32_t k) { return e.first < k; });
        };
        auto it = find(pattern);
        if (it == t.counts.end() || it->first != pattern) {
            if (t.counts.size() >= cfg.patternCapacity) {
                auto victim = t.counts.begin();
                for (auto c = t.counts.begin(); c != t.counts.end(); ++c) {
                    const std::uint64_t cn = c->second[0] + c->second[1];
                    const std::uint64_t vn =
                        victim->second[0] + victim->second[1];
                    if (cn < vn || (cn == vn && c->first > victim->first))
                        victim = c;
                }
                t.remainder[0] += victim->second[0];
                t.remainder[1] += victim->second[1];
                t.evicted += 1;
                t.counts.erase(victim);
                it = find(pattern);
            }
            it = t.counts.insert(it, {pattern, Counts{0, 0}});
        }
        it->second[taken ? 1 : 0] += 1;
    }

    PredictabilityConfig cfg;
    std::map<std::uint32_t, Pc> table;
    std::uint64_t evictedBranches = 0;
    std::uint64_t evictedOccurrences = 0;
    std::uint64_t evictedTaken = 0;
    std::uint64_t evictedTransitions = 0;
    std::uint64_t evictedPatterns = 0;
};

/** Every report field, doubles compared exactly. */
void
expectSameReport(const PredictabilityReport &a,
                 const PredictabilityReport &b)
{
    EXPECT_EQ(a.historyLengths, b.historyLengths);
    EXPECT_EQ(a.occurrences, b.occurrences);
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.transitions, b.transitions);
    EXPECT_EQ(a.entropy, b.entropy);
    EXPECT_EQ(a.conditioned, b.conditioned);
    EXPECT_EQ(a.evictedBranches, b.evictedBranches);
    EXPECT_EQ(a.evictedOccurrences, b.evictedOccurrences);
    EXPECT_EQ(a.evictedTaken, b.evictedTaken);
    EXPECT_EQ(a.evictedTransitions, b.evictedTransitions);
    EXPECT_EQ(a.evictedPatterns, b.evictedPatterns);
    ASSERT_EQ(a.perPc.size(), b.perPc.size());
    for (auto ia = a.perPc.begin(), ib = b.perPc.begin();
         ia != a.perPc.end(); ++ia, ++ib) {
        ASSERT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second.occurrences, ib->second.occurrences)
            << ia->first;
        EXPECT_EQ(ia->second.taken, ib->second.taken) << ia->first;
        EXPECT_EQ(ia->second.transitions, ib->second.transitions)
            << ia->first;
        EXPECT_EQ(ia->second.entropy, ib->second.entropy) << ia->first;
        EXPECT_EQ(ia->second.conditioned, ib->second.conditioned)
            << ia->first;
    }
}

std::string
exportedBytes(const PredictabilityReport &rep)
{
    MetricsExporter ex;
    exportPredictability(ex, rep);
    std::ostringstream os;
    ex.writeJson(os);
    return os.str();
}

/**
 * A fixed-seed branch stream built to stress eviction: far more
 * distinct PCs and patterns than any tested capacity, a skewed PC mix
 * (low ids hot), per-PC outcome styles from fair coins (every pattern
 * new, counts tied at one) through strong bias (skewed counts) to short
 * periods (few patterns, counts tied across them), and phases that move
 * the hot set so PC folds keep happening.
 */
std::vector<std::pair<std::uint32_t, bool>>
evictionStream(std::uint64_t seed, std::size_t length)
{
    std::vector<std::pair<std::uint32_t, bool>> out;
    out.reserve(length);
    std::uint64_t burst = 0;
    while (out.size() < length) {
        const std::uint64_t r = mixBits(seed * 0x100000001b3ull + burst++);
        const std::uint32_t phase =
            static_cast<std::uint32_t>(out.size() / 512);
        // Skew: the lower of two draws over 24 ids, shifted per phase.
        const std::uint32_t id =
            std::min<std::uint32_t>(r % 24, (r >> 8) % 24) + 3 * phase;
        const std::uint32_t pc = 0x100 + 4 * id;
        // Bursts of 1..24 so even a one-PC table sees deep histories.
        const std::size_t run = 1 + (r >> 16) % 24;
        for (std::size_t j = 0; j < run && out.size() < length; ++j) {
            const std::uint64_t e = mixBits(r + j);
            const std::size_t i = out.size();
            bool taken = false;
            switch (id % 4) {
              case 0: // fair coin
                taken = e & 1;
                break;
              case 1: // strongly biased
                taken = (e & 15) != 0;
                break;
              case 2: // period 3
                taken = (i % 3) == 0;
                break;
              default: // period 6 with noise
                taken = (i % 6) < 2 || (e & 31) == 0;
                break;
            }
            out.emplace_back(pc, taken);
        }
    }
    return out;
}

TEST(PredictabilityDifferential, IndexedEvictionMatchesLinearScan)
{
    for (std::size_t patternCap : {1, 2, 3, 16}) {
        for (std::size_t pcCap : {1, 2, 5}) {
            for (std::uint64_t seed : {1, 2, 3}) {
                SCOPED_TRACE(::testing::Message()
                             << "patternCapacity " << patternCap
                             << " pcCapacity " << pcCap << " seed "
                             << seed);
                PredictabilityConfig cfg;
                cfg.historyLengths = {0, 4, 8, 16};
                cfg.patternCapacity = patternCap;
                cfg.pcCapacity = pcCap;
                PredictabilityAnalyzer an(cfg);
                LinearScanAnalyzer ref(cfg);
                for (const auto &[pc, taken] : evictionStream(seed, 6000)) {
                    an.observe(pc, taken);
                    ref.observe(pc, taken);
                }
                const PredictabilityReport got = an.report();
                const PredictabilityReport want = ref.report();
                expectSameReport(got, want);
                EXPECT_EQ(exportedBytes(got), exportedBytes(want));
                // Both levels really folded.
                EXPECT_GT(want.evictedBranches, 0u);
                EXPECT_GT(want.evictedPatterns, 0u);
            }
        }
    }
}

TEST(PredictabilityDifferential, DefaultCapacitiesMatchLinearScan)
{
    // Enough observations of one fair-coin PC to overflow its k=16
    // table many times over, next to a thousand-PC churn that keeps
    // the PC table folding.
    PredictabilityConfig cfg;
    PredictabilityAnalyzer an(cfg);
    LinearScanAnalyzer ref(cfg);
    for (std::uint64_t i = 0; i < 40000; ++i) {
        const std::uint64_t r = mixBits(i);
        const bool taken = (r >> 7) & 1;
        const std::uint32_t pc =
            (i % 3 == 0) ? static_cast<std::uint32_t>(8 + (r >> 32) % 3000)
                         : 4;
        an.observe(pc, taken);
        ref.observe(pc, taken);
    }
    const PredictabilityReport got = an.report();
    const PredictabilityReport want = ref.report();
    expectSameReport(got, want);
    EXPECT_EQ(exportedBytes(got), exportedBytes(want));
    EXPECT_GT(want.evictedBranches, 0u);
    EXPECT_GT(want.evictedPatterns, 0u);
}

// Pinned from the linear-scan analyzer: a 200k-instruction trace of
// each workload overflows its k=16 tables thousands of times.
TEST(PredictabilityDifferential, SuiteFoldsArePinned)
{
    struct Pin
    {
        const char *workload;
        std::uint64_t evictedPatterns;
        double entropyK16;
    };
    const Pin pins[] = {
        {"bsearch", 10450, 0x1.4d023175de58cp-2},
        {"interp", 10721, 0x1.41c960c3b0da4p-2},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.workload);
        Workload wl = makeWorkload(pin.workload, 42);
        CompiledProgram cp = compileWorkload(wl, CompileOptions{});
        Emulator emu(cp.prog);
        if (wl.init)
            wl.init(emu.state());
        const PredictabilityReport rep =
            characterizeTrace(DecodedTrace::record(emu, 200'000));
        ASSERT_EQ(rep.historyLengths.back(), 16u);
        EXPECT_EQ(rep.evictedPatterns, pin.evictedPatterns);
        EXPECT_EQ(rep.entropy.back(), pin.entropyK16);
    }
}

} // namespace
} // namespace pabp
