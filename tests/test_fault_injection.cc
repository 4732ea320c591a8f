/**
 * @file
 * Fault-injection sweeps over the PABPDTF1 trace reader. The contract
 * under test is absolute: *every* deterministically injected fault -
 * bit flips at every region of the artifact, truncation at every
 * prefix length, a file the OS will not map - must surface as a typed
 * Status (or, for a flip in bytes no check covers, as the unchanged
 * trace), and never as a process abort. The sweep runs in the test
 * process itself: an abort anywhere kills the test run, which is
 * exactly the detection we want.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/decoded_trace.hh"
#include "util/fault_injection.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

DecodedTrace
recordDchain(std::uint64_t steps)
{
    Workload wl = makeWorkload("dchain", 77);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    return DecodedTrace::record(emu, steps);
}

std::string
scratchFile()
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "fault_" + info->name() + ".pabpdtf";
}

std::string
savedBytes(const DecodedTrace &trace, const std::string &path)
{
    EXPECT_TRUE(saveDecodedTraceFile(trace, path).ok());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/** Write the faulted image and map it. */
Expected<DecodedTrace>
mapFaulted(const std::string &bytes, const FaultSpec &spec,
           const std::string &path)
{
    const std::string image = applyFault(bytes, spec);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(image.data(),
                  static_cast<std::streamsize>(image.size()));
    }
    return mapDecodedTraceFile(path);
}

bool
sameLanes(const DecodedTrace &a, const DecodedTrace &b)
{
    const std::size_t n = a.size();
    return n == b.size() &&
        std::memcmp(a.pcs, b.pcs, n * 4) == 0 &&
        std::memcmp(a.nextPcs, b.nextPcs, n * 4) == 0 &&
        std::memcmp(a.cls, b.cls, n) == 0 &&
        std::memcmp(a.flags, b.flags, n) == 0 &&
        std::memcmp(a.predReg0, b.predReg0, n) == 0 &&
        std::memcmp(a.predReg1, b.predReg1, n) == 0 &&
        std::memcmp(a.predVal, b.predVal, n) == 0;
}

TEST(FaultInjection, TraceSurvivesBitFlipsEverywhere)
{
    const DecodedTrace trace = recordDchain(9000);
    const std::string path = scratchFile();
    const std::string bytes = savedBytes(trace, path);
    // Flip a bit in every 97th byte (and each of the first 64 bytes,
    // covering the whole header densely), across all 8 bit positions.
    for (std::size_t off = 0; off < bytes.size();
         off += (off < 64 ? 1 : 97)) {
        Expected<DecodedTrace> loaded =
            mapFaulted(bytes, FaultSpec::bitFlip(off, off % 8), path);
        if (!loaded.ok()) {
            // Typed, specific error - never the catch-all Ok/Unknown.
            EXPECT_NE(loaded.status().code(), StatusCode::Ok);
            EXPECT_FALSE(loaded.status().message().empty());
        } else {
            // Only the alignment pad before the lanes is unchecked,
            // and it carries no data.
            EXPECT_TRUE(sameLanes(loaded.value(), trace))
                << "flip at " << off << " mapped Ok with different lanes";
        }
    }
    std::remove(path.c_str());
}

TEST(FaultInjection, TraceSurvivesTruncationAtEveryStride)
{
    const DecodedTrace trace = recordDchain(5000);
    const std::string path = scratchFile();
    const std::string bytes = savedBytes(trace, path);
    for (std::size_t off = 0; off < bytes.size();
         off += (off < 64 ? 1 : 61)) {
        Expected<DecodedTrace> loaded =
            mapFaulted(bytes, FaultSpec::truncate(off), path);
        ASSERT_FALSE(loaded.ok()) << "cut at " << off;
        EXPECT_EQ(loaded.status().code(), StatusCode::Truncated)
            << "cut at " << off << ": " << loaded.status().toString();
    }
    std::remove(path.c_str());
}

TEST(FaultInjection, TraceReportsIoErrorOnHardReadFailure)
{
    // A path the OS opens but cannot read as a file: a non-empty
    // directory opens read-only, then refuses to be mapped.
    const std::string dir = scratchFile() + ".d";
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/entry") << "x";
    Expected<DecodedTrace> loaded = mapDecodedTraceFile(dir);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::IoError)
        << loaded.status().toString();
    std::filesystem::remove_all(dir);
}

TEST(FaultInjection, ApplyFaultIsDeterministic)
{
    std::string image = "abcdefgh";
    std::string once = applyFault(image, FaultSpec::bitFlip(2, 1));
    std::string twice = applyFault(image, FaultSpec::bitFlip(2, 1));
    EXPECT_EQ(once, twice);
    EXPECT_NE(once, image);
    EXPECT_EQ(applyFault(once, FaultSpec::bitFlip(2, 1)), image);

    EXPECT_EQ(applyFault(image, FaultSpec::truncate(3)), "abc");
    // Past-the-end faults leave the image unchanged.
    EXPECT_EQ(applyFault(image, FaultSpec::bitFlip(99, 0)), image);
    EXPECT_EQ(applyFault(image, FaultSpec::truncate(99)), image);
}

} // namespace
} // namespace pabp
