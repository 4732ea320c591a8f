#include "core/predictability.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace pabp {

double
binaryEntropy(double p)
{
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

Status
PredictabilityAnalyzer::validateConfig(const PredictabilityConfig &cfg)
{
    if (cfg.historyLengths.empty())
        return Status(StatusCode::InvalidArgument,
                      "predictability: no history lengths");
    for (std::size_t i = 0; i < cfg.historyLengths.size(); ++i) {
        if (cfg.historyLengths[i] > 31)
            return Status(StatusCode::InvalidArgument,
                          "predictability: history length " +
                              std::to_string(cfg.historyLengths[i]) +
                              " exceeds 31");
        if (i > 0 &&
            cfg.historyLengths[i] <= cfg.historyLengths[i - 1])
            return Status(StatusCode::InvalidArgument,
                          "predictability: history lengths must be "
                          "strictly increasing");
    }
    if (cfg.pcCapacity == 0 || cfg.patternCapacity == 0)
        return Status(StatusCode::InvalidArgument,
                      "predictability: capacities must be non-zero");
    return Status();
}

PredictabilityAnalyzer::PredictabilityAnalyzer(PredictabilityConfig c)
    : cfg(std::move(c))
{
    pabp_assert(validateConfig(cfg).ok());
}

PredictabilityAnalyzer::PcState &
PredictabilityAnalyzer::stateFor(std::uint32_t pc)
{
    auto it = table.find(pc);
    if (it != table.end())
        return it->second;

    if (table.size() >= cfg.pcCapacity) {
        // Fold the least-observed entry (ties: highest PC) into the
        // remainder - the same deterministic policy shape as
        // BranchProfile, keyed on occurrences since there is no
        // mispredict notion here.
        auto victim = table.begin();
        for (auto cand = table.begin(); cand != table.end(); ++cand) {
            if (cand->second.occurrences <
                    victim->second.occurrences ||
                (cand->second.occurrences ==
                     victim->second.occurrences &&
                 cand->first > victim->first))
                victim = cand;
        }
        evictedBranches += 1;
        evictedOccurrences += victim->second.occurrences;
        evictedTaken += victim->second.taken;
        evictedTransitions += victim->second.transitions;
        for (const PatternTable &t : victim->second.tables)
            evictedPatterns += t.evictedPatterns;
        table.erase(victim);
    }

    PcState &st = table[pc];
    st.tables.resize(cfg.historyLengths.size());
    return st;
}

void
PredictabilityAnalyzer::recordPattern(PatternTable &t,
                                      std::uint32_t pattern,
                                      bool taken)
{
    const auto find = [&t](std::uint32_t p) {
        return std::lower_bound(
            t.counts.begin(), t.counts.end(), p,
            [](const PatternCount &e, std::uint32_t k) {
                return e.pattern < k;
            });
    };
    auto it = find(pattern);
    if (it == t.counts.end() || it->pattern != pattern) {
        if (t.counts.size() >= cfg.patternCapacity) {
            // Fold the least-observed pattern (ties: highest
            // pattern) into the remainder bucket.
            auto victim = t.counts.begin();
            for (auto cand = t.counts.begin(); cand != t.counts.end();
                 ++cand) {
                const std::uint64_t cn = cand->n[0] + cand->n[1];
                const std::uint64_t vn = victim->n[0] + victim->n[1];
                if (cn < vn || (cn == vn && cand->pattern > victim->pattern))
                    victim = cand;
            }
            t.remainder[0] += victim->n[0];
            t.remainder[1] += victim->n[1];
            t.evictedPatterns += 1;
            t.counts.erase(victim);
            it = find(pattern);
        }
        it = t.counts.insert(it, PatternCount{pattern, {0, 0}});
    }
    it->n[taken ? 1 : 0] += 1;
}

void
PredictabilityAnalyzer::observe(std::uint32_t pc, bool taken)
{
    PcState &st = stateFor(pc);

    for (std::size_t i = 0; i < cfg.historyLengths.size(); ++i) {
        const unsigned k = cfg.historyLengths[i];
        // Warm-up skip: a k-conditioned table only counts outcomes
        // that have a full k-deep history for this PC.
        if (st.occurrences < k)
            continue;
        const std::uint32_t mask =
            k ? ((1u << k) - 1u) : 0u;
        recordPattern(st.tables[i], st.history & mask, taken);
    }

    if (st.occurrences > 0 && taken != st.lastOutcome)
        st.transitions += 1;
    st.occurrences += 1;
    st.taken += taken ? 1 : 0;
    st.lastOutcome = taken;
    st.history = (st.history << 1) | (taken ? 1u : 0u);
    total += 1;
}

namespace {

/** Pattern-frequency-weighted binary entropy of one table. */
template <typename Counts>
double
tableEntropy(const Counts &counts,
             const std::array<std::uint64_t, 2> &remainder,
             std::uint64_t total)
{
    if (total == 0)
        return 0.0;
    double h = 0.0;
    for (const auto &[pattern, c] : counts) {
        const std::uint64_t n = c[0] + c[1];
        if (n == 0)
            continue;
        h += static_cast<double>(n) / static_cast<double>(total) *
            binaryEntropy(static_cast<double>(c[1]) /
                          static_cast<double>(n));
    }
    const std::uint64_t rn = remainder[0] + remainder[1];
    if (rn)
        h += static_cast<double>(rn) / static_cast<double>(total) *
            binaryEntropy(static_cast<double>(remainder[1]) /
                          static_cast<double>(rn));
    return h;
}

} // namespace

PredictabilityReport
PredictabilityAnalyzer::report() const
{
    PredictabilityReport rep;
    rep.historyLengths = cfg.historyLengths;
    rep.entropy.assign(cfg.historyLengths.size(), 0.0);
    rep.conditioned.assign(cfg.historyLengths.size(), 0);
    rep.evictedBranches = evictedBranches;
    rep.evictedOccurrences = evictedOccurrences;
    rep.evictedTaken = evictedTaken;
    rep.evictedTransitions = evictedTransitions;

    std::uint64_t patternFolds = evictedPatterns;
    for (const auto &[pc, st] : table) {
        PredictabilityReport::PerPc out;
        out.occurrences = st.occurrences;
        out.taken = st.taken;
        out.transitions = st.transitions;
        out.entropy.reserve(st.tables.size());
        out.conditioned.reserve(st.tables.size());
        for (const PatternTable &t : st.tables) {
            std::uint64_t n = t.remainder[0] + t.remainder[1];
            for (const auto &[pattern, c] : t.counts)
                n += c[0] + c[1];
            out.conditioned.push_back(n);
            out.entropy.push_back(
                tableEntropy(t.counts, t.remainder, n));
            patternFolds += t.evictedPatterns;
        }
        rep.occurrences += st.occurrences;
        rep.taken += st.taken;
        rep.transitions += st.transitions;
        rep.perPc.emplace(pc, std::move(out));
    }
    rep.evictedPatterns = patternFolds;

    // Whole-trace totals fold the evicted remainder back in: the
    // trace-level rates must not depend on pcCapacity (only the
    // per-PC attribution and the entropy weighting do).
    rep.occurrences += evictedOccurrences;
    rep.taken += evictedTaken;
    rep.transitions += evictedTransitions;

    // Occurrence-weighted aggregation: each PC weighs by its
    // conditioned count at that k, so warm-up outcomes never dilute
    // the k-conditioned mean.
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

namespace {

template <typename IsBranch, typename Taken, typename Pc>
PredictabilityReport
characterizeStream(std::size_t events, const PredictabilityConfig &cfg,
                   std::uint64_t max_events, IsBranch is_branch,
                   Taken taken, Pc pc)
{
    PredictabilityAnalyzer an(cfg);
    std::size_t n = events;
    if (max_events && max_events < n)
        n = static_cast<std::size_t>(max_events);
    for (std::size_t i = 0; i < n; ++i) {
        if (!is_branch(i))
            continue;
        an.observe(pc(i), taken(i));
    }
    return an.report();
}

} // namespace

PredictabilityReport
characterizeTrace(const RecordedTrace &trace,
                  const PredictabilityConfig &cfg,
                  std::uint64_t max_events)
{
    return characterizeStream(
        trace.events.size(), cfg, max_events,
        [&](std::size_t i) {
            const RecordedTrace::Event &e = trace.events[i];
            return e.pc < trace.prog.insts.size() &&
                trace.prog.insts[e.pc].isConditionalBranch();
        },
        [&](std::size_t i) {
            return (trace.events[i].flags >> 1) & 1;
        },
        [&](std::size_t i) { return trace.events[i].pc; });
}

PredictabilityReport
characterizeTrace(const DecodedTrace &trace,
                  const PredictabilityConfig &cfg,
                  std::uint64_t max_events)
{
    return characterizeStream(
        trace.size(), cfg, max_events,
        [&](std::size_t i) {
            return trace.cls[i] ==
                static_cast<std::uint8_t>(
                       DecodedTrace::Class::CondBranch);
        },
        [&](std::size_t i) { return trace.taken(i); },
        [&](std::size_t i) { return trace.pcs[i]; });
}

std::vector<std::string>
predictabilityTableColumns(const std::vector<unsigned> &history_lengths)
{
    std::vector<std::string> cols = {"pc", "occurrences", "taken",
                                     "transitions"};
    for (unsigned k : history_lengths)
        cols.push_back("entropy_k" + std::to_string(k) +
                       "_millibits");
    return cols;
}

namespace {

std::uint64_t
millibits(double bits)
{
    return static_cast<std::uint64_t>(
        std::llround(std::max(0.0, bits) * 1000.0));
}

} // namespace

void
exportPredictability(MetricsExporter &ex,
                     const PredictabilityReport &report,
                     const std::string &prefix)
{
    ex.setInt(prefix + ".static_branches", report.perPc.size());
    ex.setInt(prefix + ".occurrences", report.occurrences);
    ex.setInt(prefix + ".taken", report.taken);
    ex.setInt(prefix + ".transitions", report.transitions);
    ex.setReal(prefix + ".taken_rate", report.takenRate());
    ex.setReal(prefix + ".transition_rate", report.transitionRate());
    ex.setInt(prefix + ".evicted_branches", report.evictedBranches);
    ex.setInt(prefix + ".evicted_occurrences",
              report.evictedOccurrences);
    ex.setInt(prefix + ".evicted_patterns", report.evictedPatterns);
    for (std::size_t i = 0; i < report.historyLengths.size(); ++i) {
        const std::string k =
            "k" + std::to_string(report.historyLengths[i]);
        ex.setReal(prefix + ".entropy." + k, report.entropy[i]);
        ex.setInt(prefix + ".conditioned." + k,
                  report.conditioned[i]);
    }

    ex.declareTable(prefix,
                    predictabilityTableColumns(report.historyLengths));
    for (const auto &[pc, per] : report.perPc) {
        std::vector<std::uint64_t> row = {pc, per.occurrences,
                                          per.taken, per.transitions};
        for (double h : per.entropy)
            row.push_back(millibits(h));
        ex.addRow(prefix, std::move(row));
    }
}

void
aggregatePredictabilityByTier(MetricsExporter &ex,
                              const H2pClassification &cls,
                              const PredictabilityReport &report,
                              const std::string &prefix)
{
    struct TierAgg
    {
        std::uint64_t matched = 0;
        std::uint64_t occurrences = 0;
        std::uint64_t taken = 0;
        std::uint64_t transitions = 0;
        std::vector<std::uint64_t> conditioned;
        std::vector<double> entropySum;
    };
    const std::size_t ks = report.historyLengths.size();
    std::vector<TierAgg> tiers(cls.numTiers());
    for (TierAgg &t : tiers) {
        t.conditioned.assign(ks, 0);
        t.entropySum.assign(ks, 0.0);
    }

    for (const auto &[pc, tier] : cls.tierOf) {
        auto it = report.perPc.find(pc);
        if (it == report.perPc.end())
            continue;
        TierAgg &agg = tiers[tier];
        const PredictabilityReport::PerPc &per = it->second;
        agg.matched += 1;
        agg.occurrences += per.occurrences;
        agg.taken += per.taken;
        agg.transitions += per.transitions;
        for (std::size_t i = 0; i < ks; ++i) {
            agg.conditioned[i] += per.conditioned[i];
            agg.entropySum[i] +=
                static_cast<double>(per.conditioned[i]) *
                per.entropy[i];
        }
    }

    for (unsigned t = 0; t < cls.numTiers(); ++t) {
        const std::string key =
            prefix + ".tier" + std::to_string(t) + ".";
        const TierAgg &agg = tiers[t];
        ex.setInt(key + "matched_branches", agg.matched);
        ex.setInt(key + "occurrences", agg.occurrences);
        ex.setReal(key + "taken_rate",
                   agg.occurrences
                       ? static_cast<double>(agg.taken) /
                           static_cast<double>(agg.occurrences)
                       : 0.0);
        ex.setReal(key + "transition_rate",
                   agg.occurrences
                       ? static_cast<double>(agg.transitions) /
                           static_cast<double>(agg.occurrences)
                       : 0.0);
        for (std::size_t i = 0; i < ks; ++i) {
            const std::string k =
                "k" + std::to_string(report.historyLengths[i]);
            ex.setReal(key + "entropy." + k,
                       agg.conditioned[i]
                           ? agg.entropySum[i] /
                               static_cast<double>(agg.conditioned[i])
                           : 0.0);
        }
    }
}

} // namespace pabp
