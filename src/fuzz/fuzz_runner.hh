/**
 * @file
 * Campaign driver shared by tools/pabp-fuzz and the tests: derive a
 * randomised case per seed, run every oracle, shrink failures to
 * minimal reproducers, and (optionally) emit them as `.pabp` files
 * for tests/corpus/. Also hosts the harness self-check that
 * re-introduces the PR-4 replayTraceFrom cursor-clamp bug and proves
 * the oracles catch it and the shrinker minimises it.
 */

#ifndef PABP_FUZZ_FUZZ_RUNNER_HH
#define PABP_FUZZ_FUZZ_RUNNER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/oracles.hh"
#include "fuzz/shrink.hh"

namespace pabp::fuzz {

/**
 * Deterministically derive a randomised fuzz case from a seed:
 * predictor kind, table size, engine-flag combination and every
 * generator knob are drawn from an rng stream over the seed, so a
 * campaign over seeds [S, S+N) explores the configuration space while
 * staying exactly reproducible.
 */
FuzzCase deriveCase(std::uint64_t seed);

/** Campaign parameters. */
struct CampaignConfig
{
    std::uint64_t baseSeed = 1;
    unsigned runs = 20;
    /** Directory minimised failures are written into ("" = none). */
    std::string emitDir;
    unsigned shrinkBudget = 200;
};

/** What a campaign produced. */
struct CampaignResult
{
    unsigned casesRun = 0;
    unsigned casesFailed = 0;
    /** One minimised reproducer per failing case. */
    std::vector<FuzzCase> minimized;
    /** Paths written under CampaignConfig::emitDir (when set). */
    std::vector<std::string> emitted;

    bool clean() const { return casesFailed == 0; }
};

/**
 * Run seeds [baseSeed, baseSeed + runs). Progress and failure
 * descriptions go to @p log. The error path is setup-only (an
 * unwritable emit directory); divergences are reported in the result.
 */
Expected<CampaignResult> runCampaign(const CampaignConfig &cfg,
                                     const RunEnv &env,
                                     std::ostream &log);

/**
 * Replay one case file through every oracle it selects. Prints a
 * per-oracle verdict to @p log; on divergence also shrinks (within
 * @p shrink_budget) and prints the minimised case text.
 */
Expected<CaseOutcome> replayCaseFile(const std::string &path,
                                     const RunEnv &env,
                                     std::ostream &log,
                                     unsigned shrink_budget = 200);

/**
 * Harness self-check (the PR-5 acceptance criterion): run a
 * split-oracle case with the cursor-clamp bug injected
 * (RunEnv::injectClampBug). Ok iff the oracle catches the bug AND the
 * shrinker minimises it to a reproducer of at most 20 trace
 * instructions; any other outcome is an error describing what the
 * harness missed.
 */
Status checkHarness(const RunEnv &env, std::ostream &log);

} // namespace pabp::fuzz

#endif // PABP_FUZZ_FUZZ_RUNNER_HH
