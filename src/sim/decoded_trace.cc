#include "sim/decoded_trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>

#include "util/crc32.hh"

namespace pabp {

namespace {

constexpr char decodedMagic[8] = {'P', 'A', 'B', 'P', 'D', 'T', 'F', '1'};
constexpr std::uint32_t decodedVersion = 1;

/** Fixed-size header: magic + version + numInsts + numEvents +
 *  laneCrc + headerCrc. */
constexpr std::size_t headerBytes = 36;
/** How much of the header the headerCrc covers (everything before
 *  the crc field itself). */
constexpr std::size_t headerCrcSpan = 32;

/** Bytes of lane data per event: two u32 lanes + five byte lanes. */
constexpr std::size_t laneBytesPerEvent = 13;

/** Allocation sanity bound on a file's program size; also caps
 *  record()'s up-front lane reservation. */
constexpr std::uint64_t maxDecodedInsts = 1u << 26;

/** Events record() packs, and build() decodes, per lane pass. */
constexpr std::uint64_t recordBlockEvents = 4096;

std::size_t
alignUp8(std::size_t v)
{
    return (v + 7) & ~static_cast<std::size_t>(7);
}

/** Offset of the 8-aligned lane region for a given program size. */
std::size_t
laneRegionOffset(std::uint64_t numInsts)
{
    return alignUp8(headerBytes +
                    static_cast<std::size_t>(numInsts) * instRecordSize +
                    4 /* progCrc */);
}

DecodedTrace::Class
classify(const Inst &inst)
{
    using Class = DecodedTrace::Class;
    if (inst.op == Opcode::Br)
        return inst.qp ? Class::CondBranch : Class::UncondControl;
    if (inst.op == Opcode::Call || inst.op == Opcode::Ret)
        return Class::UncondControl;
    if (inst.writesPredicate())
        return Class::PredDefine;
    return Class::Other;
}

} // anonymous namespace

void
DecodedTrace::bindStore()
{
    pcs = store->pcs.data();
    cls = store->cls.data();
    flags = store->flags.data();
    predReg0 = store->predReg0.data();
    predReg1 = store->predReg1.data();
    predVal = store->predVal.data();
    nextPcs = store->nextPcs.data();
    count = store->pcs.size();
}

namespace {

template <typename F>
void
forEachLane(DecodedTrace::Lanes &lanes, F f)
{
    f(lanes.pcs);
    f(lanes.cls);
    f(lanes.flags);
    f(lanes.predReg0);
    f(lanes.predReg1);
    f(lanes.predVal);
    f(lanes.nextPcs);
}

/** Append @p events to every lane: the one place a trace event is
 *  split into lanes and its class derived, shared by build() and
 *  record(). Lane by lane, so each loop streams one array. */
void
appendEvents(DecodedTrace::Lanes &lanes, const Program &prog,
             std::span<const RecordedTrace::Event> events)
{
    const auto fill = [&events](auto &lane, auto field) {
        const std::size_t at = lane.size();
        lane.resize(at + events.size());
        // A local pointer: byte stores through lane[] could alias the
        // vector's own pointers and force a reload per element.
        auto *out = lane.data() + at;
        for (const RecordedTrace::Event &e : events)
            *out++ = field(e);
    };
    // The one bounds-checked instruction lookup the reference loop
    // pays per step, hoisted to build time.
    fill(lanes.cls, [&prog](const RecordedTrace::Event &e) {
        return static_cast<std::uint8_t>(classify(prog.insts.at(e.pc)));
    });
    fill(lanes.pcs, [](const RecordedTrace::Event &e) { return e.pc; });
    fill(lanes.flags, [](const RecordedTrace::Event &e) { return e.flags; });
    fill(lanes.predReg0,
         [](const RecordedTrace::Event &e) { return e.predReg[0]; });
    fill(lanes.predReg1,
         [](const RecordedTrace::Event &e) { return e.predReg[1]; });
    fill(lanes.predVal,
         [](const RecordedTrace::Event &e) { return e.predVal; });
    fill(lanes.nextPcs,
         [](const RecordedTrace::Event &e) { return e.nextPc; });
}

} // anonymous namespace

DecodedTrace
DecodedTrace::build(const RecordedTrace &trace)
{
    DecodedTrace out;
    out.prog = trace.prog;
    out.store = std::make_unique<Lanes>();
    const std::span<const RecordedTrace::Event> events = trace.events;
    forEachLane(*out.store,
                [n = events.size()](auto &lane) { lane.reserve(n); });
    // Block by block, so each lane pass re-reads cached events.
    for (std::size_t at = 0; at < events.size(); at += recordBlockEvents)
        appendEvents(*out.store, out.prog,
                     events.subspan(at, std::min<std::size_t>(
                                            recordBlockEvents,
                                            events.size() - at)));
    out.bindStore();
    out.schedCache = std::make_shared<ReplayScheduleCache>();
    return out;
}

DecodedTrace
DecodedTrace::record(Emulator &emu, std::uint64_t max_insts)
{
    DecodedTrace out;
    out.prog = emu.program();
    out.store = std::make_unique<Lanes>();
    Lanes &lanes = *out.store;

    // Reserve once for the whole budget, up to the reader's
    // allocation sanity bound; a larger budget grows past it.
    const auto reserved = static_cast<std::size_t>(
        std::min<std::uint64_t>(max_insts, maxDecodedInsts));
    forEachLane(lanes, [reserved](auto &lane) { lane.reserve(reserved); });

    // Events are staged a cache-sized block at a time, then appended
    // lane by lane: one store stream per loop instead of seven.
    std::vector<RecordedTrace::Event> block(static_cast<std::size_t>(
        std::min<std::uint64_t>(max_insts, recordBlockEvents)));
    DynInst dyn;
    for (std::uint64_t done = 0; done < max_insts;) {
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(block.size(), max_insts - done));
        std::size_t n = 0;
        while (n < want && emu.step(dyn))
            block[n++] = packDynInst(dyn);
        appendEvents(lanes, out.prog, std::span(block.data(), n));
        done += n;
        if (n < want)
            break; // halted
    }

    // A program that halted short of the budget gives back the
    // unused reservation rather than holding it for the trace's life.
    if (lanes.pcs.size() < reserved)
        forEachLane(lanes, [](auto &lane) { lane.shrink_to_fit(); });
    out.bindStore();
    out.schedCache = std::make_shared<ReplayScheduleCache>();
    return out;
}

Status
saveDecodedTraceFile(const DecodedTrace &trace, const std::string &path)
{
    const std::uint64_t numInsts = trace.prog.insts.size();
    const std::uint64_t numEvents = trace.size();

    // Program section + its CRC.
    std::vector<unsigned char> progBytes(
        static_cast<std::size_t>(numInsts) * instRecordSize);
    for (std::uint64_t i = 0; i < numInsts; ++i)
        packInstRecord(trace.prog.insts[i],
                       progBytes.data() + i * instRecordSize);
    const std::uint32_t progCrc =
        crc32(progBytes.data(), progBytes.size());

    // Lane region, in file order, CRC'd as one span.
    Crc32 laneCrcAcc;
    laneCrcAcc.update(trace.pcs, numEvents * 4);
    laneCrcAcc.update(trace.nextPcs, numEvents * 4);
    laneCrcAcc.update(trace.cls, numEvents);
    laneCrcAcc.update(trace.flags, numEvents);
    laneCrcAcc.update(trace.predReg0, numEvents);
    laneCrcAcc.update(trace.predReg1, numEvents);
    laneCrcAcc.update(trace.predVal, numEvents);
    const std::uint32_t laneCrc = laneCrcAcc.value();

    unsigned char header[headerBytes];
    std::memcpy(header, decodedMagic, 8);
    std::memcpy(header + 8, &decodedVersion, 4);
    std::memcpy(header + 12, &numInsts, 8);
    std::memcpy(header + 20, &numEvents, 8);
    std::memcpy(header + 28, &laneCrc, 4);
    const std::uint32_t headerCrc = crc32(header, headerCrcSpan);
    std::memcpy(header + 32, &headerCrc, 4);

    // Write-then-rename so a crash can never leave a torn file at
    // the final path (readers either see the old file or the new).
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return Status(StatusCode::IoError, "cannot open " + tmp);

        os.write(reinterpret_cast<const char *>(header), headerBytes);
        os.write(reinterpret_cast<const char *>(progBytes.data()),
                 static_cast<std::streamsize>(progBytes.size()));
        os.write(reinterpret_cast<const char *>(&progCrc), 4);

        const std::size_t laneOff = laneRegionOffset(numInsts);
        const std::size_t written =
            headerBytes + progBytes.size() + 4;
        const char pad[8] = {};
        os.write(pad, static_cast<std::streamsize>(laneOff - written));

        os.write(reinterpret_cast<const char *>(trace.pcs),
                 static_cast<std::streamsize>(numEvents * 4));
        os.write(reinterpret_cast<const char *>(trace.nextPcs),
                 static_cast<std::streamsize>(numEvents * 4));
        os.write(reinterpret_cast<const char *>(trace.cls),
                 static_cast<std::streamsize>(numEvents));
        os.write(reinterpret_cast<const char *>(trace.flags),
                 static_cast<std::streamsize>(numEvents));
        os.write(reinterpret_cast<const char *>(trace.predReg0),
                 static_cast<std::streamsize>(numEvents));
        os.write(reinterpret_cast<const char *>(trace.predReg1),
                 static_cast<std::streamsize>(numEvents));
        os.write(reinterpret_cast<const char *>(trace.predVal),
                 static_cast<std::streamsize>(numEvents));
        os.flush();
        if (!os)
            return Status(StatusCode::IoError,
                          "write failed for " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Status(StatusCode::IoError,
                      "cannot rename " + tmp + " to " + path);
    }
    return Status();
}

Expected<DecodedTrace>
mapDecodedTraceFile(const std::string &path)
{
    auto mapped = MmapFile::open(path);
    if (!mapped)
        return mapped.status();
    MmapFile file = std::move(mapped.value());

    const unsigned char *base = file.data();
    const std::size_t size = file.size();
    // Any file long enough to hold a magic is judged by it first, so
    // a short file of another format is not misreported as torn.
    if (size >= sizeof(decodedMagic) &&
        std::memcmp(base, decodedMagic, sizeof(decodedMagic)) != 0)
        return Status(StatusCode::BadMagic,
                      path + ": not a PABPDTF1 trace (bad magic)");
    if (size < headerBytes)
        return Status(StatusCode::Truncated,
                      path + ": shorter than a PABPDTF1 header");

    std::uint32_t version = 0;
    std::uint64_t numInsts = 0;
    std::uint64_t numEvents = 0;
    std::uint32_t laneCrc = 0;
    std::uint32_t headerCrc = 0;
    std::memcpy(&version, base + 8, 4);
    std::memcpy(&numInsts, base + 12, 8);
    std::memcpy(&numEvents, base + 20, 8);
    std::memcpy(&laneCrc, base + 28, 4);
    std::memcpy(&headerCrc, base + 32, 4);

    if (version != decodedVersion)
        return Status(StatusCode::VersionMismatch,
                      path + ": decoded-trace version " +
                          std::to_string(version) + " unsupported");
    if (crc32(base, headerCrcSpan) != headerCrc)
        return Status(StatusCode::ChecksumMismatch,
                      path + ": header CRC mismatch");

    // A verified header whose counts are absurd is corrupt, and the
    // counts must not overflow the size arithmetic below.
    if (numInsts > maxDecodedInsts ||
        numEvents > std::numeric_limits<std::size_t>::max() /
                        (laneBytesPerEvent + 1))
        return Status(StatusCode::Corrupt,
                      path + ": implausible section sizes");

    const std::size_t laneOff = laneRegionOffset(numInsts);
    const std::size_t expected =
        laneOff + static_cast<std::size_t>(numEvents) * laneBytesPerEvent;
    if (size < expected)
        return Status(StatusCode::Truncated,
                      path + ": file ends inside the lane region");
    if (size > expected)
        return Status(StatusCode::Corrupt,
                      path + ": trailing bytes after the lane region");

    // Program section: CRC, then decode each record.
    const unsigned char *progBase = base + headerBytes;
    const std::size_t progSpan =
        static_cast<std::size_t>(numInsts) * instRecordSize;
    std::uint32_t progCrc = 0;
    std::memcpy(&progCrc, progBase + progSpan, 4);
    if (crc32(progBase, progSpan) != progCrc)
        return Status(StatusCode::ChecksumMismatch,
                      path + ": program CRC mismatch");

    DecodedTrace out;
    out.prog.insts.resize(static_cast<std::size_t>(numInsts));
    for (std::uint64_t i = 0; i < numInsts; ++i) {
        if (!unpackInstRecord(progBase + i * instRecordSize,
                              out.prog.insts[i]))
            return Status(StatusCode::Corrupt,
                          path + ": invalid instruction record " +
                              std::to_string(i));
    }

    const std::size_t n = static_cast<std::size_t>(numEvents);
    const unsigned char *p = base + laneOff;
    out.pcs = reinterpret_cast<const std::uint32_t *>(p);
    out.nextPcs = reinterpret_cast<const std::uint32_t *>(p + n * 4);
    out.cls = p + n * 8;
    out.flags = out.cls + n;
    out.predReg0 = out.flags + n;
    out.predReg1 = out.predReg0 + n;
    out.predVal = out.predReg1 + n;
    out.count = n;

    // The batch loop indexes the program with lane pcs and the
    // predicate file with the write registers unchecked, and reads at
    // most two write slots, so every event is validated against the
    // program before the trace is handed out.
    Crc32 crc;
    crc.update(p, n * laneBytesPerEvent);
    if (crc.value() != laneCrc)
        return Status(StatusCode::ChecksumMismatch,
                      path + ": lane CRC mismatch");
    for (std::size_t i = 0; i < n; ++i) {
        if (out.pcs[i] >= numInsts)
            return Status(StatusCode::Corrupt,
                          path + ": event " + std::to_string(i) +
                              " pc out of range");
        const Inst &inst = out.prog.insts[out.pcs[i]];
        if (out.cls[i] != static_cast<std::uint8_t>(classify(inst)))
            return Status(StatusCode::Corrupt,
                          path + ": event " + std::to_string(i) +
                              " class lane disagrees with program");
        const unsigned writes = out.numPredWrites(i);
        if (writes > 2)
            return Status(StatusCode::Corrupt,
                          path + ": event " + std::to_string(i) +
                              " claims " + std::to_string(writes) +
                              " predicate writes");
        if ((writes >= 1 && out.predReg0[i] >= numPredRegs) ||
            (writes >= 2 && out.predReg1[i] >= numPredRegs))
            return Status(StatusCode::Corrupt,
                          path + ": event " + std::to_string(i) +
                              " predicate register out of range");
    }

    out.mapping = std::make_unique<MmapFile>(std::move(file));
    out.schedCache = std::make_shared<ReplayScheduleCache>();
    return out;
}

} // namespace pabp
