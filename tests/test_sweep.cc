/**
 * @file
 * SweepRunner tests. The load-bearing properties:
 *
 *  - Determinism: a grid run at --jobs 1, 4 and 8 yields bit-identical
 *    EngineStats per cell and byte-identical CSV output - parallelism
 *    must be unobservable in the results.
 *  - Sliced execution is unobservable: the watchdog's heartbeat slices
 *    leave every cell's stats and metrics bytes unchanged, and the
 *    deadline runs from cell entry, artifact phases included.
 *  - Typed cell failure: a bad spec (unknown predictor/workload,
 *    overrun watchdog) fails its own cell with a pabp::Status while
 *    the rest of the grid completes.
 *  - Crash-safe campaigns: a killed sweep service resumes from its
 *    journal and converges to byte-identical bytes.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sweep.hh"
#include "sweep_service.hh"
#include "util/table.hh"
#include "workloads/workload.hh"

namespace pabp::bench {
namespace {

std::string
tempPath(const std::string &name)
{
    // Tests run as parallel ctest processes sharing TempDir; the
    // test name keeps their scratch files from colliding.
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->name() + "_" + name;
}

/** A small but heterogeneous grid: three workloads x three engine
 *  configurations, trace mode. */
std::vector<RunSpec>
smallGrid(std::uint64_t max_insts = 30000)
{
    std::vector<RunSpec> specs;
    for (const char *name : {"bsort", "interp", "dchain"}) {
        for (int config = 0; config < 3; ++config) {
            RunSpec spec;
            spec.workload = name;
            spec.engine.useSfpf = config >= 1;
            spec.engine.usePgu = config >= 2;
            spec.maxInsts = max_insts;
            specs.push_back(spec);
        }
    }
    return specs;
}

/** The CSV a bench binary would emit for these results. */
std::string
gridCsv(const std::vector<RunSpec> &specs,
        const std::vector<RunResult> &results)
{
    Table table({"workload", "insts", "branches", "mispredict",
                 "squash%"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const EngineStats &stats = results[i].engine;
        table.startRow();
        table.cell(specs[i].workload);
        table.cell(stats.insts);
        table.cell(stats.all.branches);
        table.percentCell(stats.all.mispredictRate());
        table.percentCell(stats.all.branches
                              ? static_cast<double>(stats.all.squashed) /
                                  static_cast<double>(stats.all.branches)
                              : 0.0);
    }
    std::ostringstream os;
    table.printCsv(os);
    return os.str();
}

TEST(SweepFingerprint, DistinguishesBehaviourChangingFields)
{
    RunSpec spec;
    spec.workload = "bsort";
    const std::uint64_t base = specFingerprint(spec);
    EXPECT_EQ(base, specFingerprint(spec)); // stable

    RunSpec other = spec;
    other.seed = 43;
    EXPECT_NE(specFingerprint(other), base);
    other = spec;
    other.engine.useSfpf = true;
    EXPECT_NE(specFingerprint(other), base);
    other = spec;
    other.predictor = "yags";
    EXPECT_NE(specFingerprint(other), base);
    other = spec;
    other.compile.heuristics.maxBlocks += 1;
    EXPECT_NE(specFingerprint(other), base);
    other = spec;
    other.maxInsts += 1;
    EXPECT_NE(specFingerprint(other), base);
    other = spec;
    other.compileSeed = 7; // cross-input runs differ from same-input
    EXPECT_NE(specFingerprint(other), base);
}

TEST(SweepFingerprint, IgnoresExecutionKnobs)
{
    // How and where a cell runs must not change WHICH cell it is, or
    // moving the metrics directory or arming the watchdog would
    // rename every metrics file and orphan every journal record.
    RunSpec spec;
    spec.workload = "bsort";
    RunSpec other = spec;
    other.metricsDir = "elsewhere";
    other.fastReplay = false;
    other.characterize = true;
    other.watchdogMillis = 5000;
    other.heartbeatInsts = 7;
    other.maxAttempts = 3;
    other.captureMetrics = true;
    EXPECT_EQ(specFingerprint(other), specFingerprint(spec));
}

TEST(SweepRunner, ResultsAreIdenticalAcrossJobCounts)
{
    const std::vector<RunSpec> specs = smallGrid();

    SweepRunner serial(SweepRunner::Config{1});
    SweepRunner four(SweepRunner::Config{4});
    SweepRunner eight(SweepRunner::Config{8});
    const std::vector<RunResult> r1 = serial.run(specs);
    const std::vector<RunResult> r4 = four.run(specs);
    const std::vector<RunResult> r8 = eight.run(specs);

    ASSERT_EQ(r1.size(), specs.size());
    ASSERT_EQ(r4.size(), specs.size());
    ASSERT_EQ(r8.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(r1[i].status.ok()) << r1[i].status.toString();
        // Bit-identical counters, not tolerances.
        EXPECT_EQ(r1[i].engine, r4[i].engine) << "cell " << i;
        EXPECT_EQ(r1[i].engine, r8[i].engine) << "cell " << i;
        EXPECT_EQ(r1[i].numRegions, r4[i].numRegions);
        EXPECT_EQ(r1[i].pguBits, r4[i].pguBits);
    }
    // And the rendered artifact is byte-identical.
    EXPECT_EQ(gridCsv(specs, r1), gridCsv(specs, r4));
    EXPECT_EQ(gridCsv(specs, r1), gridCsv(specs, r8));

    // Sanity: the grid is not degenerate - configs actually differ.
    EXPECT_NE(r1[0].engine.all.mispredicts,
              r1[2].engine.all.mispredicts);
}

TEST(SweepRunner, CompilesEachProgramOnce)
{
    // Nine cells over three workloads: three compiles, six cache hits,
    // regardless of thread count.
    const std::vector<RunSpec> specs = smallGrid(15000);
    SweepRunner runner(SweepRunner::Config{4});
    const std::vector<RunResult> results = runner.run(specs);
    for (const RunResult &result : results)
        ASSERT_TRUE(result.status.ok()) << result.status.toString();
    EXPECT_EQ(runner.cacheStats().compiles, 3u);
    EXPECT_EQ(runner.cacheStats().hits, 6u);
}

TEST(SweepRunner, CrossInputSpecsCompileSeparately)
{
    RunSpec same;
    same.workload = "dchain";
    same.maxInsts = 10000;
    RunSpec cross = same;
    cross.compileSeed = 7; // profile from another input
    SweepRunner runner(SweepRunner::Config{1});
    const std::vector<RunResult> results = runner.run({same, cross});
    ASSERT_TRUE(results[0].status.ok());
    ASSERT_TRUE(results[1].status.ok());
    EXPECT_EQ(runner.cacheStats().compiles, 2u);
    EXPECT_EQ(runner.cacheStats().hits, 0u);
}

TEST(SweepRunner, FactoryWorkloadsRun)
{
    RunSpec spec;
    spec.workload = "bias-0.70"; // unique cache id for this variant
    spec.factory = [](std::uint64_t s) {
        return makeBiasWorkload(0.70, s);
    };
    spec.maxInsts = 10000;
    SweepRunner runner;
    RunResult result = runner.runOne(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.toString();
    EXPECT_GT(result.engine.all.branches, 0u);
}

TEST(SweepRunner, BadCellFailsTypedWhileGridCompletes)
{
    std::vector<RunSpec> specs = smallGrid(10000);
    specs[1].predictor = "no-such-predictor";
    specs[4].workload = "no-such-workload";

    SweepRunner runner(SweepRunner::Config{4});
    const std::vector<RunResult> results = runner.run(specs);

    EXPECT_EQ(results[1].status.code(), StatusCode::NotFound);
    EXPECT_EQ(results[4].status.code(), StatusCode::NotFound);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 1 || i == 4)
            continue;
        EXPECT_TRUE(results[i].status.ok())
            << "cell " << i << ": " << results[i].status.toString();
        EXPECT_GT(results[i].engine.insts, 0u);
    }

    std::ostringstream err;
    EXPECT_EQ(reportFailures(specs, results, err), 2u);
    EXPECT_NE(err.str().find("no-such-predictor"), std::string::npos);
}

TEST(SweepRunner, ObserveWithoutObserverIsInvalid)
{
    RunSpec spec;
    spec.workload = "bsort";
    spec.mode = RunMode::Observe;
    SweepRunner runner;
    EXPECT_EQ(runner.runOne(spec).status.code(),
              StatusCode::InvalidArgument);
}

// ---------------------------------------------------------------------
// Robust execution layer: shard filter, retry, watchdog (the RunSpec
// robustness knobs).

TEST(SweepRobustness, ShardsPartitionTheGridDisjointly)
{
    const std::vector<RunSpec> grid = smallGrid(5000);
    constexpr std::uint32_t shards = 3;

    // Pure-function partition: every fingerprint is owned by exactly
    // one shard, computable without running anything.
    for (const RunSpec &spec : grid) {
        const std::uint64_t fp = specFingerprint(spec);
        unsigned owners = 0;
        for (std::uint32_t s = 0; s < shards; ++s)
            owners += shardOf(fp, shards) == s ? 1 : 0;
        EXPECT_EQ(owners, 1u);
    }

    // Through the runner: non-owned cells are skipped IN PLACE (grid
    // layout preserved, Ok status); owned cells match the unsharded
    // run bit for bit.
    SweepRunner plain_runner(SweepRunner::Config{2});
    const std::vector<RunResult> plain = plain_runner.run(grid);
    std::size_t executed_total = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
        std::vector<RunSpec> sharded = grid;
        for (RunSpec &spec : sharded)
            spec.shard = ShardSpec{s, shards};
        SweepRunner runner(SweepRunner::Config{2});
        const std::vector<RunResult> results = runner.run(sharded);
        ASSERT_EQ(results.size(), grid.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_TRUE(results[i].status.ok());
            const bool owned =
                shardOf(specFingerprint(grid[i]), shards) == s;
            EXPECT_EQ(results[i].skipped, !owned);
            if (owned) {
                ++executed_total;
                EXPECT_EQ(results[i].engine, plain[i].engine);
            } else {
                EXPECT_EQ(results[i].engine.insts, 0u);
            }
        }
    }
    EXPECT_EQ(executed_total, grid.size());
}

TEST(SweepRobustness, RetryableFailuresAreRetriedBoundedly)
{
    RunSpec spec;
    spec.workload = "bsort";
    spec.maxInsts = 3000;
    spec.maxAttempts = 3;
    // Transient environment failure: the first two attempts die with
    // IoError, the third succeeds.
    spec.faultHook = [](unsigned attempt) {
        return attempt < 3
            ? Status(StatusCode::IoError, "injected transient failure")
            : Status();
    };
    SweepRunner runner(SweepRunner::Config{1});
    RunResult healed = runner.runOne(spec);
    EXPECT_TRUE(healed.status.ok()) << healed.status.toString();
    EXPECT_EQ(healed.attempts, 3u);

    // The attempt budget is a hard bound.
    spec.maxAttempts = 2;
    RunResult exhausted = runner.runOne(spec);
    EXPECT_EQ(exhausted.status.code(), StatusCode::IoError);
    EXPECT_EQ(exhausted.attempts, 2u);

    // Deterministic failures do not burn retries.
    spec.maxAttempts = 3;
    spec.faultHook = [](unsigned) {
        return Status(StatusCode::Corrupt, "poisoned cell");
    };
    RunResult poisoned = runner.runOne(spec);
    EXPECT_EQ(poisoned.status.code(), StatusCode::Corrupt);
    EXPECT_EQ(poisoned.attempts, 1u);
}

/** An Observe-mode cell whose per-instruction closure sleeps: the
 *  watchdog must reap it instead of letting it run its (wall-clock
 *  enormous) budget out. */
RunSpec
hungObserveSpec()
{
    RunSpec spec;
    spec.workload = "bsort";
    spec.mode = RunMode::Observe;
    spec.maxInsts = 200000;
    spec.observe = [](const DynInst &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    spec.watchdogMillis = 25;
    spec.heartbeatInsts = 4;
    return spec;
}

TEST(SweepRobustness, WatchdogReapsAnOverrunningCell)
{
    SweepRunner runner(SweepRunner::Config{1});
    RunResult result = runner.runOne(hungObserveSpec());
    EXPECT_EQ(result.status.code(), StatusCode::DeadlineExceeded);
    // The message is deliberately wall-clock-free: it lands in
    // quarantine journal records whose bytes must converge.
    EXPECT_EQ(result.status.message().find("after"), std::string::npos);
}

TEST(SweepRobustness, WatchdogCoversArtifactPhases)
{
    // The deadline starts at cell entry: a cell whose workload build
    // alone overruns it is reaped after the compile phase, before any
    // instruction runs.
    RunSpec spec;
    spec.workload = "slow-bsort";
    spec.factory = [](std::uint64_t seed) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return makeWorkload("bsort", seed);
    };
    spec.maxInsts = 3000;
    spec.watchdogMillis = 10;
    SweepRunner runner(SweepRunner::Config{1});
    EXPECT_EQ(runner.runOne(spec).status.code(),
              StatusCode::DeadlineExceeded);
}

TEST(SweepRobustness, HeartbeatSlicingIsUnobservable)
{
    // Every sliced cell loop continues exactly where its last slice
    // stopped: an armed watchdog with a generous deadline and an odd
    // heartbeat (slices ending mid define-visibility window, mid
    // region) must reproduce the unsliced run's stats and metrics
    // bytes, for every mode the driver slices.
    enum class Kind { Observe, FastTrace, ReferenceTrace };
    for (Kind kind :
         {Kind::Observe, Kind::FastTrace, Kind::ReferenceTrace}) {
        // Observe cells have no engine; fold the observed stream into
        // a hash so slicing cannot silently skip or repeat an event.
        auto observed = std::make_shared<std::uint64_t>(0);
        RunSpec spec;
        spec.workload = "interp";
        spec.maxInsts = 60000;
        spec.engine.useSfpf = true;
        spec.engine.usePgu = true;
        spec.captureMetrics = true;
        spec.fastReplay = kind == Kind::FastTrace;
        if (kind == Kind::Observe) {
            spec.mode = RunMode::Observe;
            spec.observe = [observed](const DynInst &dyn) {
                *observed = *observed * 0x100000001b3ull ^
                    (dyn.pc * 2u + (dyn.taken ? 1u : 0u));
            };
        }

        SweepRunner runner(SweepRunner::Config{1});
        const RunResult plain = runner.runOne(spec);
        ASSERT_TRUE(plain.status.ok()) << plain.status.toString();
        const std::uint64_t plain_observed = *observed;
        ASSERT_FALSE(plain.metricsJson.empty());

        for (std::uint64_t heartbeat : {7ull, 4097ull}) {
            *observed = 0;
            RunSpec sliced = spec;
            sliced.watchdogMillis = 600000;
            sliced.heartbeatInsts = heartbeat;
            const RunResult r = runner.runOne(sliced);
            ASSERT_TRUE(r.status.ok()) << r.status.toString();
            EXPECT_EQ(r.engine, plain.engine) << "heartbeat " << heartbeat;
            EXPECT_EQ(r.profile, plain.profile)
                << "heartbeat " << heartbeat;
            EXPECT_EQ(r.pguBits, plain.pguBits);
            EXPECT_EQ(r.metricsJson, plain.metricsJson)
                << "heartbeat " << heartbeat;
            EXPECT_EQ(*observed, plain_observed);
        }
    }
}

TEST(SweepRobustness, CapturedMetricsMatchExportedFile)
{
    const std::string dir = tempPath("metricsdir");
    RunSpec spec;
    spec.workload = "bsort";
    spec.maxInsts = 3000;
    spec.metricsDir = dir;
    spec.captureMetrics = true;
    SweepRunner runner(SweepRunner::Config{1});
    RunResult result = runner.runOne(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.toString();
    ASSERT_FALSE(result.metricsJson.empty());

    std::ifstream in(metricsFilePath(dir, specFingerprint(spec)),
                     std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream file_bytes;
    file_bytes << in.rdbuf();
    EXPECT_EQ(result.metricsJson, file_bytes.str());
}

// ---------------------------------------------------------------------
// SweepService: the crash-safe campaign coordinator
// (bench/sweep_service.hh).

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

ServiceConfig
serviceConfig(const std::string &journal)
{
    ServiceConfig config;
    config.journalPath = journal;
    config.batchCells = 2; // small batches: more commit boundaries
    return config;
}

TEST(SweepService, DrainsAGridIntoTheJournal)
{
    const std::string journal = tempPath("drain.pabpj");
    const std::vector<RunSpec> grid = smallGrid(4000);
    SweepRunner runner(SweepRunner::Config{2});
    SweepService service(runner, serviceConfig(journal));
    Expected<ServiceReport> report = service.runShard(grid);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_TRUE(report.value().drained);
    EXPECT_EQ(report.value().ownedCells, grid.size());
    EXPECT_EQ(report.value().executed, grid.size());
    EXPECT_EQ(report.value().quarantined, 0u);

    Expected<std::vector<JournalRecord>> records =
        readJournalFile(journal);
    ASSERT_TRUE(records.ok()) << records.status().toString();
    ASSERT_EQ(records.value().size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(records.value()[i].fingerprint,
                  specFingerprint(grid[i]));
        EXPECT_EQ(records.value()[i].kind, JournalRecord::Kind::Result);
        EXPECT_FALSE(records.value()[i].blob.empty());
    }
    std::remove(journal.c_str());
}

TEST(SweepService, KillAndResumeConvergeToIdenticalJournalBytes)
{
    const std::vector<RunSpec> grid = smallGrid(4000);

    // Reference: one uninterrupted single-threaded campaign.
    const std::string clean = tempPath("clean.pabpj");
    {
        SweepRunner runner(SweepRunner::Config{1});
        SweepService service(runner, serviceConfig(clean));
        Expected<ServiceReport> report = service.runShard(grid);
        ASSERT_TRUE(report.ok()) << report.status().toString();
        ASSERT_TRUE(report.value().drained);
    }

    // The same campaign killed twice mid-flight (the stopAfter hook
    // models SIGKILL between record commits), then re-invoked to
    // completion - at a different worker count for good measure.
    const std::string bumpy = tempPath("bumpy.pabpj");
    const std::uint64_t stops[] = {2, 3, 0};
    for (std::uint64_t stop : stops) {
        SweepRunner runner(SweepRunner::Config{stop ? 1u : 8u});
        ServiceConfig config = serviceConfig(bumpy);
        config.stopAfter = stop;
        SweepService service(runner, config);
        Expected<ServiceReport> report = service.runShard(grid);
        ASSERT_TRUE(report.ok()) << report.status().toString();
        EXPECT_EQ(report.value().stopped, stop != 0);
        EXPECT_EQ(report.value().drained, stop == 0);
    }

    EXPECT_EQ(readBytes(bumpy), readBytes(clean));
    std::remove(clean.c_str());
    std::remove(bumpy.c_str());
}

TEST(SweepService, QuarantinesPoisonCellsAndStillDrains)
{
    std::vector<RunSpec> grid = smallGrid(4000);
    grid[4].faultHook = [](unsigned) {
        return Status(StatusCode::Corrupt, "poisoned cell");
    };

    const std::string journal = tempPath("poison.pabpj");
    SweepRunner runner(SweepRunner::Config{2});
    SweepService service(runner, serviceConfig(journal));
    Expected<ServiceReport> report = service.runShard(grid);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_TRUE(report.value().drained);
    EXPECT_EQ(report.value().quarantined, 1u);
    const std::string first_bytes = readBytes(journal);

    Expected<std::vector<JournalRecord>> records =
        readJournalFile(journal);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records.value().size(), grid.size());
    EXPECT_EQ(records.value()[4].kind, JournalRecord::Kind::Quarantine);
    EXPECT_EQ(records.value()[4].statusCode,
              static_cast<std::uint8_t>(StatusCode::Corrupt));
    EXPECT_NE(records.value()[4].blob.find("poisoned cell"),
              std::string::npos);

    // Re-invoking re-runs ONLY the quarantined cell; the
    // deterministic failure re-quarantines, and the drain compaction
    // converges back to the same bytes.
    Expected<ServiceReport> again = service.runShard(grid);
    ASSERT_TRUE(again.ok()) << again.status().toString();
    EXPECT_EQ(again.value().alreadyDone, grid.size() - 1);
    EXPECT_EQ(again.value().executed, 1u);
    EXPECT_EQ(again.value().quarantined, 1u);
    EXPECT_EQ(readBytes(journal), first_bytes);
    std::remove(journal.c_str());
}

TEST(SweepService, WatchdogQuarantineDoesNotStallTheShard)
{
    std::vector<RunSpec> grid = smallGrid(4000);
    grid.push_back(hungObserveSpec());

    const std::string journal = tempPath("hung.pabpj");
    SweepRunner runner(SweepRunner::Config{2});
    SweepService service(runner, serviceConfig(journal));
    Expected<ServiceReport> report = service.runShard(grid);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_TRUE(report.value().drained);
    EXPECT_EQ(report.value().quarantined, 1u);

    Expected<std::vector<JournalRecord>> records =
        readJournalFile(journal);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records.value().size(), grid.size());
    EXPECT_EQ(records.value().back().kind,
              JournalRecord::Kind::Quarantine);
    EXPECT_EQ(records.value().back().statusCode,
              static_cast<std::uint8_t>(StatusCode::DeadlineExceeded));
    for (std::size_t i = 0; i + 1 < records.value().size(); ++i)
        EXPECT_EQ(records.value()[i].kind, JournalRecord::Kind::Result);
    std::remove(journal.c_str());
}

TEST(SweepService, ShardJournalsTogetherCoverTheGridExactlyOnce)
{
    const std::vector<RunSpec> grid = smallGrid(4000);
    constexpr std::uint32_t shards = 2;
    std::map<std::uint64_t, unsigned> coverage;
    std::uint64_t owned_total = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
        const std::string journal =
            deriveShardJournalPath(tempPath("cover.pabpj"),
                                   ShardSpec{s, shards});
        ServiceConfig config = serviceConfig(journal);
        config.shard = ShardSpec{s, shards};
        SweepRunner runner(SweepRunner::Config{2});
        SweepService service(runner, config);
        Expected<ServiceReport> report = service.runShard(grid);
        ASSERT_TRUE(report.ok()) << report.status().toString();
        EXPECT_TRUE(report.value().drained);
        owned_total += report.value().ownedCells;

        JournalHeader header;
        Expected<std::vector<JournalRecord>> records =
            readJournalFile(journal, {}, &header);
        ASSERT_TRUE(records.ok());
        EXPECT_EQ(header.shardIndex, s);
        EXPECT_EQ(header.shardCount, shards);
        for (const JournalRecord &rec : records.value())
            ++coverage[rec.fingerprint];
        std::remove(journal.c_str());
    }
    EXPECT_EQ(owned_total, grid.size());
    EXPECT_EQ(coverage.size(), grid.size());
    for (const RunSpec &spec : grid) {
        auto it = coverage.find(specFingerprint(spec));
        ASSERT_NE(it, coverage.end());
        EXPECT_EQ(it->second, 1u);
    }
}

TEST(SweepService, DeriveShardJournalPathNamesShards)
{
    EXPECT_EQ(deriveShardJournalPath("results/e6.pabpj", {0, 1}),
              "results/e6.pabpj");
    EXPECT_EQ(deriveShardJournalPath("results/e6.pabpj", {2, 4}),
              "results/e6-shard2of4.pabpj");
    EXPECT_EQ(deriveShardJournalPath("plain", {1, 2}),
              "plain-shard1of2");
    EXPECT_EQ(deriveShardJournalPath("dir.d/plain", {1, 2}),
              "dir.d/plain-shard1of2");
}

} // namespace
} // namespace pabp::bench
