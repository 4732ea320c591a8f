/**
 * @file
 * Trace record/replay tests: recording, the PABPDTF1 file round trip,
 * the key property that replaying a recorded trace produces *exactly*
 * the same prediction statistics as a live run, and the format's
 * hardening guarantees - every corruption or truncation of the file
 * yields a typed Status (never a process abort, never a trace that
 * differs from the one written).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bpred/gshare.hh"
#include "core/engine.hh"
#include "sim/decoded_trace.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

DecodedTrace
recordWorkload(const std::string &name, std::uint64_t steps)
{
    Workload wl = makeWorkload(name, 77);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    return DecodedTrace::record(emu, steps);
}

std::string
tempPath(const std::string &name)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "trace_io_" + info->name() + "_" + name;
}

/** Save @p trace as PABPDTF1 and return the file's bytes. */
std::string
savedBytes(const DecodedTrace &trace, const std::string &path)
{
    EXPECT_TRUE(saveDecodedTraceFile(trace, path).ok());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/** Write @p bytes to @p path and map them. */
Expected<DecodedTrace>
mapBytes(const std::string &bytes, const std::string &path)
{
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    return mapDecodedTraceFile(path);
}

// PABPDTF1 layout offsets (see decoded_trace.hh): a 36-byte header
// (magic 8, version 4, numInsts 8, numEvents 8, laneCrc 4,
// headerCrc 4), 20-byte program records, a u32 program CRC, then the
// 8-aligned lane region.
constexpr std::size_t headerBytes = 36;
constexpr std::size_t instRecordBytes = 20;

std::size_t
programSectionEnd(const DecodedTrace &trace)
{
    return headerBytes + trace.prog.size() * instRecordBytes + 4;
}

std::size_t
laneRegionStart(const DecodedTrace &trace)
{
    return (programSectionEnd(trace) + 7) & ~std::size_t{7};
}

/** Map @p bytes and expect a typed failure with @p code. */
void
expectMapFails(const std::string &bytes, const std::string &path,
               StatusCode code)
{
    Expected<DecodedTrace> loaded = mapBytes(bytes, path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), code)
        << loaded.status().toString();
}

TEST(TraceIo, RecordCapturesEvents)
{
    DecodedTrace trace = recordWorkload("dchain", 50000);
    EXPECT_EQ(trace.size(), 50000u);
    EXPECT_GT(trace.prog.size(), 0u);
}

TEST(TraceIo, MaterialiseReconstructsBranchFacts)
{
    DecodedTrace trace = recordWorkload("filter", 20000);
    std::uint64_t branches = 0, taken = 0, writes = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        DynInst dyn = trace.materialise(i);
        EXPECT_EQ(dyn.seq, i);
        ASSERT_NE(dyn.inst, nullptr);
        if (dyn.inst->isConditionalBranch()) {
            ++branches;
            taken += dyn.taken;
        }
        writes += dyn.numPredWrites;
    }
    EXPECT_GT(branches, 0u);
    EXPECT_GT(taken, 0u);
    EXPECT_GT(writes, 0u);
}

TEST(TraceIo, StreamRoundTripExact)
{
    // Saved and mapped back, every program record and every lane
    // byte is what was written.
    DecodedTrace trace = recordWorkload("histogram", 30000);
    const std::string path = tempPath("t.pabpdtf");
    const std::string bytes = savedBytes(trace, path);
    EXPECT_EQ(bytes.size(), laneRegionStart(trace) + trace.size() * 13);

    Expected<DecodedTrace> loaded = mapDecodedTraceFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const DecodedTrace &back = loaded.value();
    EXPECT_TRUE(back.isMapped());
    ASSERT_EQ(back.size(), trace.size());
    ASSERT_EQ(back.prog.size(), trace.prog.size());
    const std::size_t n = trace.size();
    EXPECT_EQ(std::memcmp(back.pcs, trace.pcs, n * 4), 0);
    EXPECT_EQ(std::memcmp(back.nextPcs, trace.nextPcs, n * 4), 0);
    EXPECT_EQ(std::memcmp(back.cls, trace.cls, n), 0);
    EXPECT_EQ(std::memcmp(back.flags, trace.flags, n), 0);
    EXPECT_EQ(std::memcmp(back.predReg0, trace.predReg0, n), 0);
    EXPECT_EQ(std::memcmp(back.predReg1, trace.predReg1, n), 0);
    EXPECT_EQ(std::memcmp(back.predVal, trace.predVal, n), 0);
    for (std::size_t pc = 0; pc < trace.prog.size(); ++pc) {
        EXPECT_EQ(encode(back.prog.insts[pc]),
                  encode(trace.prog.insts[pc]));
        EXPECT_EQ(back.prog.insts[pc].regionId,
                  trace.prog.insts[pc].regionId);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, BadMagicIsTypedError)
{
    const std::string path = tempPath("t.pabpdtf");
    // Long and short files of another format alike.
    expectMapFails(std::string("NOTATRACE-------") + std::string(64, 'x'),
                   path, StatusCode::BadMagic);
    expectMapFails("NOTATRACE-------", path, StatusCode::BadMagic);
    std::remove(path.c_str());
}

TEST(TraceIo, UnknownContainerVersionIsTypedError)
{
    DecodedTrace trace = recordWorkload("rle", 1000);
    const std::string path = tempPath("t.pabpdtf");
    std::string bytes = savedBytes(trace, path);
    bytes[8] = 9; // version field
    expectMapFails(bytes, path, StatusCode::VersionMismatch);
    std::remove(path.c_str());
}

TEST(TraceIo, HeaderCorruptionFailsChecksum)
{
    DecodedTrace trace = recordWorkload("rle", 1000);
    const std::string path = tempPath("t.pabpdtf");
    std::string bytes = savedBytes(trace, path);
    bytes[12] ^= 0x40; // inside numInsts
    expectMapFails(bytes, path, StatusCode::ChecksumMismatch);
    std::remove(path.c_str());
}

TEST(TraceIo, ProgramCorruptionFailsChecksum)
{
    DecodedTrace trace = recordWorkload("rle", 1000);
    const std::string path = tempPath("t.pabpdtf");
    std::string bytes = savedBytes(trace, path);
    bytes[headerBytes + 3] ^= 0x01;
    expectMapFails(bytes, path, StatusCode::ChecksumMismatch);
    std::remove(path.c_str());
}

TEST(TraceIo, EventCorruptionFailsChecksum)
{
    DecodedTrace trace = recordWorkload("rle", 1000);
    const std::string path = tempPath("t.pabpdtf");
    std::string bytes = savedBytes(trace, path);
    bytes[laneRegionStart(trace) + 7] ^= 0x80; // inside the pc lane
    expectMapFails(bytes, path, StatusCode::ChecksumMismatch);
    std::remove(path.c_str());
}

TEST(TraceIo, FooterCorruptionIsTypedError)
{
    // PABPDTF1 has no footer sentinel: the exact file size pins the
    // end of the artifact, and the lane CRC covers its last byte.
    DecodedTrace trace = recordWorkload("rle", 1000);
    const std::string path = tempPath("t.pabpdtf");
    std::string bytes = savedBytes(trace, path);
    std::string flipped = bytes;
    flipped.back() ^= 0xff;
    expectMapFails(flipped, path, StatusCode::ChecksumMismatch);
    expectMapFails(bytes + '\0', path, StatusCode::Corrupt);
    std::remove(path.c_str());
}

TEST(TraceIo, TruncationAtEverySectionBoundaryIsTyped)
{
    DecodedTrace trace = recordWorkload("rle", 1000);
    const std::string path = tempPath("t.pabpdtf");
    const std::string bytes = savedBytes(trace, path);
    const std::size_t prog_end = programSectionEnd(trace);
    const std::size_t lanes = laneRegionStart(trace);
    const std::size_t n = trace.size();
    // Structural boundaries: empty, inside the magic, after the
    // magic, inside the header, after the header CRC, inside the
    // program section, just before / after the program CRC, at the
    // lane region, at each lane boundary, and one byte short.
    const std::size_t cuts[] = {
        0,  4,  8,  20, headerBytes,
        headerBytes + instRecordBytes + 3,
        prog_end - 4, prog_end, lanes, lanes + 5,
        lanes + n * 4, lanes + n * 8, lanes + n * 9, lanes + n * 10,
        lanes + n * 11, lanes + n * 12, bytes.size() - 1,
    };
    for (std::size_t cut : cuts) {
        ASSERT_LT(cut, bytes.size());
        Expected<DecodedTrace> loaded =
            mapBytes(bytes.substr(0, cut), path);
        ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
        EXPECT_EQ(loaded.status().code(), StatusCode::Truncated)
            << "cut at " << cut << ": " << loaded.status().toString();
    }
    std::remove(path.c_str());
}

TEST(TraceIo, FileRoundTrip)
{
    // A mapped trace replays exactly like the recorded one, and the
    // write-then-rename save leaves no temporary behind.
    DecodedTrace trace = recordWorkload("rle", 10000);
    const std::string path = tempPath("t.pabpdtf");
    ASSERT_TRUE(saveDecodedTraceFile(trace, path).ok());
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    Expected<DecodedTrace> back = mapDecodedTraceFile(path);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().size(), trace.size());

    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;
    GSharePredictor pa(12), pb(12);
    PredictionEngine a(pa, ecfg), b(pb, ecfg);
    replayTrace(trace, a, trace.size());
    replayTrace(back.value(), b, back.value().size());
    EXPECT_EQ(a.stats(), b.stats());
    EXPECT_EQ(a.branchProfile(), b.branchProfile());
    std::remove(path.c_str());
}

TEST(TraceIo, TryLoadMissingFileIsTypedError)
{
    Expected<DecodedTrace> loaded =
        mapDecodedTraceFile(tempPath("no_such.pabpdtf"));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::IoError);
}

class ReplayEquivalence : public ::testing::TestWithParam<std::string>
{};

TEST_P(ReplayEquivalence, ReplayMatchesLiveRunExactly)
{
    // The reference replay loop against the live emulator: an
    // independent source, so it does not share the lane packing the
    // fast path reads.
    const std::string name = GetParam();
    constexpr std::uint64_t steps = 200000;

    // Live run.
    Workload wl = makeWorkload(name, 77);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    GSharePredictor live_pred(12);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;
    PredictionEngine live(live_pred, ecfg);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    runTrace(emu, live, steps);

    // Recorded replay.
    DecodedTrace trace = recordWorkload(name, steps);
    GSharePredictor replay_pred(12);
    PredictionEngine replay(replay_pred, ecfg);
    replayTrace(trace, replay, steps);

    EXPECT_EQ(live.stats().insts, replay.stats().insts);
    EXPECT_EQ(live.stats().all.branches, replay.stats().all.branches);
    EXPECT_EQ(live.stats().all.mispredicts,
              replay.stats().all.mispredicts);
    EXPECT_EQ(live.stats().all.squashed, replay.stats().all.squashed);
    EXPECT_EQ(live.stats().predicateDefines,
              replay.stats().predicateDefines);
    EXPECT_EQ(live.pguBitsInserted(), replay.pguBitsInserted());
    EXPECT_EQ(live.stats(), replay.stats());
    EXPECT_EQ(live.branchProfile(), replay.branchProfile());
}

INSTANTIATE_TEST_SUITE_P(Suite, ReplayEquivalence,
                         ::testing::Values("dchain", "filter", "interp",
                                           "bsearch"));

} // namespace
} // namespace pabp
