/**
 * @file
 * SweepRunner's artifact schedule (docs/PARALLEL.md): run() builds
 * every distinct artifact once, in parallel phases, before the cells
 * that read it. The load-bearing properties:
 *
 *  - No worker parks on another worker's build: distinct artifacts
 *    build concurrently even when the grid is submitted workload-major.
 *  - The schedule is unobservable: a grid mixing every cell kind gives
 *    the same statuses, stats, metrics bytes and cache counts at every
 *    --jobs.
 *  - Failures stay typed at any --jobs: a slow build is charged to the
 *    watchdog of the first cell that reads it, and only that cell's,
 *    and a throwing build fails every consumer with the same Corrupt
 *    status.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sweep.hh"
#include "workloads/workload.hh"

namespace pabp::bench {
namespace {

/** A std::latch whose wait gives up after a timeout. */
class TimedLatch
{
  public:
    explicit TimedLatch(int parties) : left(parties) {}

    /** Arrive; true once all parties arrived, false on timeout. */
    bool
    arriveAndWait(std::chrono::milliseconds timeout)
    {
        std::unique_lock<std::mutex> lock(mtx);
        if (--left == 0) {
            cv.notify_all();
            return true;
        }
        return cv.wait_for(lock, timeout, [&] { return left <= 0; });
    }

  private:
    std::mutex mtx;
    std::condition_variable cv;
    int left;
};

/** Four engine configurations of one workload, base to +both. */
void
addConfigs(std::vector<RunSpec> &specs, RunSpec spec)
{
    for (int config = 0; config < 4; ++config) {
        spec.engine.useSfpf = config & 1;
        spec.engine.usePgu = config & 2;
        specs.push_back(spec);
    }
}

TEST(SweepSchedule, DistinctArtifactsBuildConcurrently)
{
    // Each workload's first build waits at a 4-party latch, so the
    // grid completes only if the four program builds run at once. A
    // runner that parked three workers on the first workload's build
    // would time the latch out and fail that workload's cells.
    auto latch = std::make_shared<TimedLatch>(4);
    std::vector<RunSpec> specs;
    for (const char *name : {"bsort", "interp", "dchain", "histogram"}) {
        auto entered = std::make_shared<std::atomic<bool>>(false);
        RunSpec spec;
        spec.workload = std::string("latched-") + name;
        spec.factory = [latch, entered,
                        name = std::string(name)](std::uint64_t seed) {
            if (!entered->exchange(true) &&
                !latch->arriveAndWait(std::chrono::seconds(5)))
                throw std::runtime_error("latch timed out building " +
                                         name);
            return makeWorkload(name, seed);
        };
        spec.maxInsts = 20000;
        addConfigs(specs, spec); // workload-major
    }

    SweepRunner runner(SweepRunner::Config{4});
    const std::vector<RunResult> results = runner.run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(results[i].status.ok())
            << "cell " << i << ": " << results[i].status.toString();
    EXPECT_EQ(runner.cacheStats().compiles, 4u);
    EXPECT_EQ(runner.cacheStats().records, 4u);
}

/** Folds an Observe cell's dynamic stream into a hash. */
struct ObservedStream
{
    std::vector<std::shared_ptr<std::uint64_t>> hashes;

    std::function<void(const DynInst &)>
    observer()
    {
        auto hash = std::make_shared<std::uint64_t>(0);
        hashes.push_back(hash);
        return [hash](const DynInst &dyn) {
            *hash = *hash * 0x100000001b3ull ^
                (dyn.pc * 2u + (dyn.taken ? 1u : 0u));
        };
    }
};

/**
 * Every cell kind the schedule plans differently, workload-major:
 * fast and reference Trace, Timed, Observe, fast and reference
 * multi-context, characterize (fast, reference and Timed), then a
 * shard-skipped cell and an unknown-workload cell.
 */
std::vector<RunSpec>
mixedGrid(ObservedStream &observed)
{
    std::vector<RunSpec> specs;
    for (const char *name : {"interp", "bsort"}) {
        RunSpec base;
        base.workload = name;
        base.maxInsts = 20000;
        base.captureMetrics = true;

        RunSpec both = base;
        both.engine.useSfpf = true;
        both.engine.usePgu = true;
        specs.push_back(base);
        specs.push_back(both);

        RunSpec reference = both;
        reference.fastReplay = false;
        specs.push_back(reference);

        RunSpec timed = base;
        timed.mode = RunMode::Timed;
        specs.push_back(timed);

        RunSpec observe = base;
        observe.mode = RunMode::Observe;
        observe.observe = observed.observer();
        specs.push_back(observe);

        RunSpec multi = both;
        multi.context.contexts = 2;
        multi.context.quantum = 512;
        specs.push_back(multi);
        multi.fastReplay = false;
        specs.push_back(multi);

        RunSpec characterized = base;
        characterized.characterize = true;
        specs.push_back(characterized);
        characterized.fastReplay = false;
        characterized.engine.useSfpf = true;
        specs.push_back(characterized);
        characterized.mode = RunMode::Timed;
        specs.push_back(characterized);
    }

    RunSpec skipped;
    skipped.workload = "dchain";
    skipped.maxInsts = 20000;
    skipped.shard =
        ShardSpec{1 - shardOf(specFingerprint(skipped), 2), 2};
    specs.push_back(skipped);

    RunSpec unknown;
    unknown.workload = "no-such-workload";
    specs.push_back(unknown);
    return specs;
}

TEST(SweepSchedule, MixedGridIsIdenticalAtEveryJobCount)
{
    ObservedStream serial_observed;
    const std::vector<RunSpec> serial_specs = mixedGrid(serial_observed);
    SweepRunner serial(SweepRunner::Config{1});
    const std::vector<RunResult> expected = serial.run(serial_specs);
    const SweepRunner::CacheStats expected_cache = serial.cacheStats();

    // Sanity: the grid exercises what it claims to.
    ASSERT_EQ(expected.size(), serial_specs.size());
    EXPECT_TRUE(expected[expected.size() - 2].skipped);
    EXPECT_EQ(expected.back().status.code(), StatusCode::NotFound);
    for (std::size_t i = 0; i + 2 < expected.size(); ++i)
        ASSERT_TRUE(expected[i].status.ok())
            << "cell " << i << ": " << expected[i].status.toString();
    EXPECT_GT(expected_cache.traceHits, 0u);
    EXPECT_GT(expected_cache.hits, 0u);

    for (unsigned jobs : {2u, 4u, 8u}) {
        ObservedStream observed;
        const std::vector<RunSpec> specs = mixedGrid(observed);
        SweepRunner runner(SweepRunner::Config{jobs});
        const std::vector<RunResult> results = runner.run(specs);
        ASSERT_EQ(results.size(), expected.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            const RunResult &want = expected[i];
            const RunResult &got = results[i];
            EXPECT_EQ(got.status.toString(), want.status.toString())
                << "jobs " << jobs << " cell " << i;
            EXPECT_EQ(got.skipped, want.skipped);
            EXPECT_EQ(got.engine, want.engine)
                << "jobs " << jobs << " cell " << i;
            EXPECT_EQ(got.profile, want.profile);
            EXPECT_EQ(got.pguBits, want.pguBits);
            EXPECT_TRUE(got.pipe == want.pipe)
                << "jobs " << jobs << " cell " << i;
            ASSERT_EQ(got.contexts.size(), want.contexts.size());
            for (std::size_t c = 0; c < got.contexts.size(); ++c)
                EXPECT_EQ(got.contexts[c].engine, want.contexts[c].engine);
            EXPECT_EQ(got.metricsJson, want.metricsJson)
                << "jobs " << jobs << " cell " << i;
        }
        for (std::size_t o = 0; o < observed.hashes.size(); ++o)
            EXPECT_EQ(*observed.hashes[o], *serial_observed.hashes[o]);

        const SweepRunner::CacheStats cache = runner.cacheStats();
        EXPECT_EQ(cache.compiles, expected_cache.compiles) << jobs;
        EXPECT_EQ(cache.hits, expected_cache.hits) << jobs;
        EXPECT_EQ(cache.records, expected_cache.records) << jobs;
        EXPECT_EQ(cache.traceHits, expected_cache.traceHits) << jobs;
    }
}

/** Four cells over one workload whose FIRST build (its compile)
 *  sleeps @p slow; later builds are fast. */
std::vector<RunSpec>
slowFirstBuildGrid(std::chrono::milliseconds slow, std::uint32_t watchdog)
{
    auto first = std::make_shared<std::atomic<bool>>(true);
    RunSpec spec;
    spec.workload = "slow-bsort";
    spec.factory = [first, slow](std::uint64_t seed) {
        if (first->exchange(false))
            std::this_thread::sleep_for(slow);
        return makeWorkload("bsort", seed);
    };
    spec.maxInsts = 3000;
    spec.watchdogMillis = watchdog;
    std::vector<RunSpec> specs;
    addConfigs(specs, spec);
    return specs;
}

TEST(SweepSchedule, WatchdogChargesBuildsToFirstConsumerAtJobsFour)
{
    // The twin of SweepRobustness.WatchdogCoversArtifactPhases through
    // run() at four workers: the slow compile is charged to its first
    // consumer in submission order, the cell that builds it in a
    // serial run, so exactly that cell is reaped - at jobs 1 and 4.
    for (unsigned jobs : {1u, 4u}) {
        SweepRunner runner(SweepRunner::Config{jobs});
        const std::vector<RunResult> results = runner.run(
            slowFirstBuildGrid(std::chrono::milliseconds(300), 100));
        ASSERT_EQ(results.size(), 4u);
        EXPECT_EQ(results[0].status.code(), StatusCode::DeadlineExceeded)
            << "jobs " << jobs << ": " << results[0].status.toString();
        for (std::size_t i = 1; i < results.size(); ++i)
            EXPECT_TRUE(results[i].status.ok())
                << "jobs " << jobs << " cell " << i << ": "
                << results[i].status.toString();
    }
}

TEST(SweepSchedule, BuildIsChargedToFirstCellThatReachesIt)
{
    // Cell 0, unarmed and on the reference path, owns the compile and
    // reads no trace. Cell 1 names an unknown predictor, so it fails
    // before it looks its trace up; a serial run records the trace in
    // cell 2. The slow recording must be charged there - at jobs 1
    // and 4 - not lost on the cell that never read it.
    for (unsigned jobs : {1u, 4u}) {
        auto first = std::make_shared<std::atomic<bool>>(true);
        RunSpec spec;
        spec.workload = "slow-trace-bsort";
        spec.compileSeed = 1; // the compile reads seed 1, the run seed 2
        spec.seed = 2;
        spec.factory = [first](std::uint64_t seed) {
            if (seed == 2 && first->exchange(false))
                std::this_thread::sleep_for(std::chrono::milliseconds(300));
            return makeWorkload("bsort", seed);
        };
        spec.maxInsts = 3000;
        std::vector<RunSpec> specs{spec};
        specs[0].fastReplay = false;
        spec.watchdogMillis = 100;
        addConfigs(specs, spec);
        specs[1].predictor = "no-such-predictor";

        SweepRunner runner(SweepRunner::Config{jobs});
        const std::vector<RunResult> results = runner.run(specs);
        ASSERT_EQ(results.size(), 5u);
        EXPECT_EQ(results[1].status.code(), StatusCode::NotFound)
            << "jobs " << jobs << ": " << results[1].status.toString();
        EXPECT_EQ(results[2].status.code(), StatusCode::DeadlineExceeded)
            << "jobs " << jobs << ": " << results[2].status.toString();
        for (std::size_t i : {0u, 3u, 4u})
            EXPECT_TRUE(results[i].status.ok())
                << "jobs " << jobs << " cell " << i << ": "
                << results[i].status.toString();
    }
}

TEST(SweepSchedule, ThrowingBuildFailsEveryConsumerAtJobsFour)
{
    // A throwing workload build fails each of its consumers with the
    // builder's Corrupt status - not a broken promise - while the
    // other workloads' cells complete.
    std::vector<RunSpec> specs;
    RunSpec exploding;
    exploding.workload = "exploding";
    exploding.factory = [](std::uint64_t) -> Workload {
        throw std::runtime_error("factory exploded");
    };
    exploding.maxInsts = 5000;
    addConfigs(specs, exploding);
    RunSpec healthy;
    healthy.workload = "dchain";
    healthy.maxInsts = 5000;
    addConfigs(specs, healthy);

    for (unsigned jobs : {1u, 4u}) {
        SweepRunner runner(SweepRunner::Config{jobs});
        const std::vector<RunResult> results = runner.run(specs);
        ASSERT_EQ(results.size(), 8u);
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(results[i].status.code(), StatusCode::Corrupt)
                << "jobs " << jobs << " cell " << i;
            EXPECT_EQ(results[i].status.message(),
                      "unhandled exception in sweep cell: "
                      "factory exploded")
                << "jobs " << jobs << " cell " << i;
        }
        for (std::size_t i = 4; i < 8; ++i)
            EXPECT_TRUE(results[i].status.ok())
                << "jobs " << jobs << " cell " << i << ": "
                << results[i].status.toString();
    }
}

} // namespace
} // namespace pabp::bench
