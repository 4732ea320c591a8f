#include "sim/emulator.hh"

#include <limits>

#include "util/logging.hh"

namespace pabp {

Emulator::Emulator(const Program &program, EmuConfig config)
    : prog(program), cfg(config), archState(config.memWords)
{
    pabp_assert(!prog.insts.empty());
}

void
Emulator::recordPredWrite(DynInst &out, unsigned reg, bool value)
{
    archState.writePred(reg, value);
    if (reg == 0)
        return; // architecturally discarded; invisible to consumers
    pabp_assert(out.numPredWrites < 2);
    out.predWrites[out.numPredWrites++] =
        DynInst::PredWrite{static_cast<std::uint8_t>(reg), value};
}

void
Emulator::executeCmp(const Inst &inst, bool guard, DynInst &out)
{
    std::int64_t a = archState.readGpr(inst.src1);
    std::int64_t b = inst.hasImm ? inst.imm : archState.readGpr(inst.src2);
    bool rel = evalRel(inst.crel, a, b);
    out.cmpRel = rel;

    switch (inst.ctype) {
      case CmpType::Normal:
        if (guard) {
            recordPredWrite(out, inst.pdst1, rel);
            recordPredWrite(out, inst.pdst2, !rel);
        }
        break;
      case CmpType::Unc:
        if (guard) {
            recordPredWrite(out, inst.pdst1, rel);
            recordPredWrite(out, inst.pdst2, !rel);
        } else {
            recordPredWrite(out, inst.pdst1, false);
            recordPredWrite(out, inst.pdst2, false);
        }
        break;
      case CmpType::And:
        if (guard && !rel) {
            recordPredWrite(out, inst.pdst1, false);
            recordPredWrite(out, inst.pdst2, false);
        }
        break;
      case CmpType::Or:
        if (guard && rel) {
            recordPredWrite(out, inst.pdst1, true);
            recordPredWrite(out, inst.pdst2, true);
        }
        break;
      case CmpType::OrAndcm:
        if (guard && rel) {
            recordPredWrite(out, inst.pdst1, true);
            recordPredWrite(out, inst.pdst2, false);
        }
        break;
      case CmpType::AndOrcm:
        if (guard && !rel) {
            recordPredWrite(out, inst.pdst1, false);
            recordPredWrite(out, inst.pdst2, true);
        }
        break;
    }
}

bool
Emulator::step(DynInst &out)
{
    if (halted())
        return false;
    if (cfg.maxInsts && executed >= cfg.maxInsts) {
        fuse = true;
        return false;
    }

    pabp_assert(archState.pc < prog.insts.size());
    const Inst &inst = prog.insts[archState.pc];

    out = DynInst{};
    out.seq = executed;
    out.pc = archState.pc;
    out.inst = &inst;
    out.nextPc = archState.pc + 1;

    bool guard = archState.readPred(inst.qp);
    out.guard = guard;

    switch (inst.op) {
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        archState.halted = true;
        out.nextPc = archState.pc;
        break;

      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Mov: {
        if (!guard)
            break;
        std::int64_t a = archState.readGpr(inst.src1);
        std::int64_t b =
            inst.hasImm ? inst.imm : archState.readGpr(inst.src2);
        std::int64_t result = 0;
        // Guest integer arithmetic wraps (two's complement); compute
        // in unsigned to keep host-side signed overflow out of it.
        auto ua = static_cast<std::uint64_t>(a);
        auto ub = static_cast<std::uint64_t>(b);
        switch (inst.op) {
          case Opcode::Add:
            result = static_cast<std::int64_t>(ua + ub);
            break;
          case Opcode::Sub:
            result = static_cast<std::int64_t>(ua - ub);
            break;
          case Opcode::Mul:
            result = static_cast<std::int64_t>(ua * ub);
            break;
          case Opcode::Div:
            // INT64_MIN / -1 also traps on real hardware; define it
            // as wrapping to INT64_MIN like the other ops.
            if (b == 0)
                result = 0;
            else if (a == std::numeric_limits<std::int64_t>::min() &&
                     b == -1)
                result = a;
            else
                result = a / b;
            break;
          case Opcode::And: result = a & b; break;
          case Opcode::Or: result = a | b; break;
          case Opcode::Xor: result = a ^ b; break;
          case Opcode::Shl:
            result = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(a) << (b & 63));
            break;
          case Opcode::Shr:
            result = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(a) >> (b & 63));
            break;
          case Opcode::Mov: result = inst.hasImm ? inst.imm : a; break;
          default: pabp_panic("unreachable");
        }
        archState.writeGpr(inst.dst, result);
        break;
      }

      case Opcode::Cmp:
        executeCmp(inst, guard, out);
        break;

      case Opcode::PSet:
        if (guard)
            recordPredWrite(out, inst.pdst1, (inst.imm & 1) != 0);
        break;

      case Opcode::Load:
        out.isMem = true;
        out.effAddr = archState.readGpr(inst.src1) + inst.imm;
        if (guard)
            archState.writeGpr(inst.dst, archState.readMem(out.effAddr));
        break;

      case Opcode::Store:
        out.isMem = true;
        out.effAddr = archState.readGpr(inst.src1) + inst.imm;
        if (guard)
            archState.writeMem(out.effAddr, archState.readGpr(inst.src2));
        break;

      case Opcode::Br:
        out.isControl = true;
        out.taken = guard;
        if (guard)
            out.nextPc = inst.target;
        break;

      case Opcode::Call:
        out.isControl = true;
        out.taken = guard;
        if (guard) {
            archState.callStack.push_back(archState.pc + 1);
            out.nextPc = inst.target;
        }
        break;

      case Opcode::Ret:
        out.isControl = true;
        out.taken = guard;
        if (guard) {
            if (archState.callStack.empty()) {
                archState.halted = true;
                out.taken = false;
                out.nextPc = archState.pc;
            } else {
                out.nextPc = archState.callStack.back();
                archState.callStack.pop_back();
            }
        }
        break;

      default:
        pabp_panic("bad opcode in emulator");
    }

    archState.pc = out.nextPc;
    ++executed;
    return true;
}

void
Emulator::run(std::uint64_t max_insts)
{
    DynInst record;
    for (std::uint64_t i = 0; i < max_insts; ++i) {
        if (!step(record))
            return;
    }
}

} // namespace pabp
