/**
 * @file
 * Binary trace serialisation. A recorded trace captures everything a
 * prediction study needs from the dynamic stream - static instruction
 * table plus per-instruction events - so expensive workloads can be
 * emulated once and replayed against many predictor configurations
 * (the record/replay methodology of trace-driven studies).
 *
 * Two on-disk versions exist (both little-endian):
 *
 *  v1 ("PABPTRC1"): the original unprotected layout - program size,
 *    instruction records, event count, event records. Still readable.
 *
 *  v2 ("PABPTRC2"): the hardened layout this library writes.
 *    | magic[8] | u32 version | u64 numInsts | u64 numEvents
 *    | u32 headerCrc   - CRC-32 of the 28 bytes above
 *    | program section - 20 bytes per instruction
 *    | u32 progCrc     - CRC-32 of the program section
 *    | event blocks    - u32 count (<= 4096), count*12 payload bytes,
 *    |                   u32 blockCrc over count + payload
 *    | u64 footer      - ASCII "PABPEND2" end-of-artifact sentinel
 *    Per-block CRCs localise corruption, which is what makes salvage
 *    (recovering the longest valid event prefix) possible.
 *
 * Readers never terminate the process on malformed input: every
 * failure mode maps to a typed Status (BadMagic, VersionMismatch,
 * ChecksumMismatch, Truncated, IoError, Corrupt). The pabp_fatal
 * wrappers survive only as CLI conveniences. See docs/ROBUSTNESS.md.
 */

#ifndef PABP_SIM_TRACE_IO_HH
#define PABP_SIM_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "sim/emulator.hh"
#include "util/status.hh"

namespace pabp {

/** A fully materialised trace: program text + dynamic events. */
struct RecordedTrace
{
    Program prog;

    /** Compact per-instruction dynamic record. */
    struct Event
    {
        std::uint32_t pc;
        std::uint8_t flags; ///< bit0 guard, bit1 taken, bits 2-3
                            ///< numPredWrites
        std::uint8_t predReg[2];
        std::uint8_t predVal; ///< bit0/bit1 = write values, bit2 cmpRel
        std::uint32_t nextPc;

        bool operator==(const Event &) const = default;
    };
    std::vector<Event> events;

    std::size_t size() const { return events.size(); }

    /** Reconstitute the DynInst for event @p i (seq = i). */
    DynInst materialise(std::size_t i) const;
};

/** Pack one executed instruction into its trace event: the one
 *  place the flags / predReg / predVal layout is written. */
RecordedTrace::Event packDynInst(const DynInst &dyn);

/** Record up to @p max_insts instructions of @p emu. */
RecordedTrace recordTrace(Emulator &emu, std::uint64_t max_insts);

/** Reader knobs. */
struct TraceReadOptions
{
    /**
     * Best-effort recovery: when the event section of a v2 trace is
     * damaged (CRC failure, truncation, corrupt block), return the
     * longest prefix of events from fully-valid blocks instead of an
     * error. The header and program section must still verify - a
     * trace whose static program is damaged cannot be replayed at all.
     */
    bool salvage = false;
};

/** What the reader learned about the artifact. */
struct TraceReadInfo
{
    std::uint32_t version = 0;      ///< 1 or 2
    bool salvaged = false;          ///< salvage mode recovered a prefix
    std::uint64_t eventsDropped = 0; ///< events lost to salvage
};

/** Serialise in the current (v2) format. Returns bytes written. */
std::uint64_t writeTrace(const RecordedTrace &trace, std::ostream &os);

/** Serialise in the legacy v1 format (compatibility testing). */
std::uint64_t writeTraceV1(const RecordedTrace &trace, std::ostream &os);

/**
 * Deserialise a v1 or v2 trace (dispatched on the magic). All
 * malformed-input paths return a typed Status; nothing aborts.
 */
Expected<RecordedTrace> readTrace(std::istream &is,
                                  const TraceReadOptions &opts = {},
                                  TraceReadInfo *info = nullptr);

/** Recoverable file wrappers. */
Status trySaveTraceFile(const RecordedTrace &trace,
                        const std::string &path);
Expected<RecordedTrace> tryLoadTraceFile(const std::string &path,
                                         const TraceReadOptions &opts = {},
                                         TraceReadInfo *info = nullptr);

/** CLI shims: fatal on any failure. Library code wants the try* forms. */
void saveTraceFile(const RecordedTrace &trace, const std::string &path);
RecordedTrace loadTraceFile(const std::string &path);

/**
 * @name Static-instruction record packing
 * The 20-byte on-disk instruction record (architectural encoding plus
 * the regionId sidecar) shared by the trace formats and the decoded-
 * trace file format (sim/decoded_trace.hh).
 * @{
 */
constexpr std::size_t instRecordSize = 20;
void packInstRecord(const Inst &inst, unsigned char *out);
/** False when the record is not a valid encoding. */
bool unpackInstRecord(const unsigned char *p, Inst &inst);
/** @} */

} // namespace pabp

#endif // PABP_SIM_TRACE_IO_HH
