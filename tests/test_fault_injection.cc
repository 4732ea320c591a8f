/**
 * @file
 * Fault-injection sweeps over the hardened readers. The contract
 * under test is absolute: *every* deterministically injected fault -
 * bit flips at every region of the artifact, truncation at every
 * prefix length, hard I/O failure at every offset stride - must
 * surface as a typed Status (or, in salvage mode, as a successful
 * prefix recovery), and never as a process abort. The sweep runs in
 * the test process itself: an abort anywhere kills the test run,
 * which is exactly the detection we want.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/trace_io.hh"
#include "util/fault_injection.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

std::string
recordedTraceBytes(std::uint64_t steps)
{
    Workload wl = makeWorkload("dchain", 77);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    RecordedTrace trace = recordTrace(emu, steps);
    std::stringstream buffer;
    writeTrace(trace, buffer);
    return buffer.str();
}

/** Feed a faulted trace image to the reader; the result must be a
 *  typed error or a clean (possibly salvaged) success. */
void
expectTraceReadIsGraceful(const std::string &bytes,
                          const FaultSpec &spec, bool salvage)
{
    // FaultyStream applies the spec itself (BitFlip/Truncate in the
    // buffer, FailRead at read time).
    FaultyStream faulty(bytes, spec);
    TraceReadOptions opts;
    opts.salvage = salvage;
    TraceReadInfo info;
    Expected<RecordedTrace> loaded =
        readTrace(faulty.stream(), opts, &info);
    if (!loaded.ok()) {
        // Typed, specific error - never the catch-all Ok/Unknown.
        EXPECT_NE(loaded.status().code(), StatusCode::Ok);
        EXPECT_FALSE(loaded.status().message().empty());
    } else if (info.salvaged) {
        EXPECT_LE(loaded.value().size() + info.eventsDropped,
                  bytes.size()); // sanity: bounded by the artifact
    }
}

TEST(FaultInjection, TraceSurvivesBitFlipsEverywhere)
{
    std::string bytes = recordedTraceBytes(9000);
    // Flip a bit in every 97th byte (and each of the first 64 bytes,
    // covering the whole header densely), across all 8 bit positions.
    for (std::size_t off = 0; off < bytes.size();
         off += (off < 64 ? 1 : 97)) {
        expectTraceReadIsGraceful(
            bytes, FaultSpec::bitFlip(off, off % 8), false);
    }
}

TEST(FaultInjection, TraceSurvivesBitFlipsEverywhereWithSalvage)
{
    std::string bytes = recordedTraceBytes(9000);
    for (std::size_t off = 0; off < bytes.size();
         off += (off < 64 ? 1 : 131)) {
        expectTraceReadIsGraceful(
            bytes, FaultSpec::bitFlip(off, (off + 3) % 8), true);
    }
}

TEST(FaultInjection, TraceSurvivesTruncationAtEveryStride)
{
    std::string bytes = recordedTraceBytes(5000);
    for (std::size_t off = 0; off < bytes.size();
         off += (off < 64 ? 1 : 61)) {
        FaultyStream faulty(bytes, FaultSpec::truncate(off));
        Expected<RecordedTrace> loaded = readTrace(faulty.stream());
        ASSERT_FALSE(loaded.ok()) << "cut at " << off;
        EXPECT_EQ(loaded.status().code(), StatusCode::Truncated)
            << "cut at " << off << ": " << loaded.status().toString();
    }
}

TEST(FaultInjection, TraceReportsIoErrorOnHardReadFailure)
{
    std::string bytes = recordedTraceBytes(5000);
    for (std::size_t off = 0; off < bytes.size();
         off += (off < 64 ? 1 : 61)) {
        FaultyStream faulty(bytes, FaultSpec::failRead(off));
        Expected<RecordedTrace> loaded = readTrace(faulty.stream());
        ASSERT_FALSE(loaded.ok()) << "failure at " << off;
        EXPECT_EQ(loaded.status().code(), StatusCode::IoError)
            << "failure at " << off << ": "
            << loaded.status().toString();
    }
}

TEST(FaultInjection, SalvageRecoversPrefixUnderEventDamage)
{
    // Large enough for multiple event blocks; flip a bit well into
    // the event section and salvage.
    std::string bytes = recordedTraceBytes(10000);
    FaultyStream faulty(bytes,
                        FaultSpec::bitFlip(bytes.size() - 2000, 4));
    TraceReadOptions opts;
    opts.salvage = true;
    TraceReadInfo info;
    Expected<RecordedTrace> loaded =
        readTrace(faulty.stream(), opts, &info);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_TRUE(info.salvaged);
    EXPECT_GT(loaded.value().size(), 0u);
    EXPECT_GT(info.eventsDropped, 0u);
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

TEST(FaultInjection, FaultyStreamFailsExactlyAtOffset)
{
    FaultyStream faulty("0123456789", FaultSpec::failRead(4));
    char buf[4];
    faulty.stream().read(buf, 4);
    EXPECT_EQ(faulty.stream().gcount(), 4);
    EXPECT_FALSE(faulty.stream().bad());
    faulty.stream().read(buf, 1);
    EXPECT_TRUE(faulty.stream().bad());
}

} // namespace
} // namespace pabp
