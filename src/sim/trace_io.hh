/**
 * @file
 * The packed per-instruction trace event and the static-instruction
 * record. A trace captures everything a prediction study needs from
 * the dynamic stream - static instruction table plus per-instruction
 * events - so expensive workloads can be emulated once and replayed
 * against many predictor configurations (the record/replay
 * methodology of trace-driven studies).
 *
 * The trace everything replays, characterises and stores on disk is
 * the DecodedTrace of sim/decoded_trace.hh, recorded straight into
 * its lanes by DecodedTrace::record and stored as a PABPDTF1 file.
 * This header keeps the pieces that format is built from:
 *
 *  - packDynInst(): the one place the event flags / predReg / predVal
 *    packing is written; DecodedTrace stores those bytes unchanged.
 *  - packInstRecord() / unpackInstRecord(): the 20-byte on-disk
 *    static-instruction record of PABPDTF1's program section.
 *  - RecordedTrace + recordTrace(): an array-of-structs event vector
 *    that DecodedTrace::build() turns into lanes. The perfbench
 *    driver's traced spans still time that two-step path and the
 *    record-vs-build lane test uses it as the reference for
 *    DecodedTrace::record; once the driver records with
 *    DecodedTrace::record it can go.
 */

#ifndef PABP_SIM_TRACE_IO_HH
#define PABP_SIM_TRACE_IO_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "sim/emulator.hh"

namespace pabp {

/** Program text + packed dynamic events, in array-of-structs form. */
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
};

/** Pack one executed instruction into its trace event: the one
 *  place the flags / predReg / predVal layout is written. */
RecordedTrace::Event packDynInst(const DynInst &dyn);

/** Record up to @p max_insts instructions of @p emu. */
RecordedTrace recordTrace(Emulator &emu, std::uint64_t max_insts);

/**
 * @name Static-instruction record packing
 * The 20-byte on-disk instruction record (architectural encoding plus
 * the regionId sidecar) of the PABPDTF1 program section.
 * @{
 */
constexpr std::size_t instRecordSize = 20;
void packInstRecord(const Inst &inst, unsigned char *out);
/** False when the record is not a valid encoding. */
bool unpackInstRecord(const unsigned char *p, Inst &inst);
/** @} */

} // namespace pabp

#endif // PABP_SIM_TRACE_IO_HH
