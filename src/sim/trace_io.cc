#include "sim/trace_io.hh"

#include <cstring>

namespace pabp {

RecordedTrace::Event
packDynInst(const DynInst &dyn)
{
    RecordedTrace::Event event{};
    event.pc = dyn.pc;
    event.flags = static_cast<std::uint8_t>(
        (dyn.guard ? 1 : 0) | (dyn.taken ? 2 : 0) |
        (dyn.numPredWrites << 2));
    for (unsigned w = 0; w < dyn.numPredWrites; ++w) {
        event.predReg[w] = dyn.predWrites[w].reg;
        if (dyn.predWrites[w].value)
            event.predVal |= static_cast<std::uint8_t>(1u << w);
    }
    if (dyn.cmpRel)
        event.predVal |= 4;
    event.nextPc = dyn.nextPc;
    return event;
}

RecordedTrace
recordTrace(Emulator &emu, std::uint64_t max_insts)
{
    RecordedTrace trace;
    trace.prog = emu.program();

    DynInst dyn;
    for (std::uint64_t i = 0; i < max_insts && emu.step(dyn); ++i)
        trace.events.push_back(packDynInst(dyn));
    return trace;
}

void
packInstRecord(const Inst &inst, unsigned char *out)
{
    EncodedInst enc = encode(inst);
    std::memcpy(out, &enc.word0, 8);
    std::memcpy(out + 8, &enc.word1, 8);
    // regionId travels as a sidecar (not architectural encoding).
    std::memcpy(out + 16, &inst.regionId, 4);
}

bool
unpackInstRecord(const unsigned char *p, Inst &inst)
{
    EncodedInst enc;
    std::memcpy(&enc.word0, p, 8);
    std::memcpy(&enc.word1, p + 8, 8);
    auto decoded = tryDecode(enc);
    if (!decoded)
        return false;
    inst = *decoded;
    std::memcpy(&inst.regionId, p + 16, 4);
    return true;
}

} // namespace pabp
