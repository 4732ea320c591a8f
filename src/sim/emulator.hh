/**
 * @file
 * Functional emulator for the predicated ISA. Executes a Program and
 * produces a stream of DynInst records - the dynamic trace consumed by
 * the branch-prediction harnesses and the cycle-level pipeline.
 */

#ifndef PABP_SIM_EMULATOR_HH
#define PABP_SIM_EMULATOR_HH

#include <cstdint>

#include "isa/program.hh"
#include "sim/arch_state.hh"

namespace pabp {

/**
 * One dynamically executed instruction. Everything a timing model or
 * predictor harness needs: the static instruction, its guard value at
 * execute, control-flow resolution and predicate writes.
 */
struct DynInst
{
    std::uint64_t seq = 0;          ///< dynamic sequence number
    std::uint32_t pc = 0;
    const Inst *inst = nullptr;

    bool guard = true;              ///< qp value at execute

    bool isControl = false;         ///< Br/Call/Ret
    bool taken = false;             ///< control transfer happened
    std::uint32_t nextPc = 0;

    /** Relation result of a Cmp (valid only for Cmp ops). */
    bool cmpRel = false;

    /** Predicate register writes that architecturally happened
     *  (excludes discarded writes to p0). */
    struct PredWrite
    {
        std::uint8_t reg;
        bool value;
    };
    std::uint8_t numPredWrites = 0;
    PredWrite predWrites[2];

    bool isMem = false;
    std::int64_t effAddr = 0;
};

/** Emulator configuration. */
struct EmuConfig
{
    std::size_t memWords = 1u << 20;
    /** Safety net against runaway programs; 0 disables. */
    std::uint64_t maxInsts = 0;
};

/**
 * Straightforward interpret-one-instruction-at-a-time emulator. This
 * is the repo's golden model: the pipeline and the predictors are both
 * driven by (and checked against) its trace.
 */
class Emulator
{
  public:
    Emulator(const Program &program, EmuConfig config = EmuConfig{});

    /**
     * Execute one instruction and fill @p out. Returns false without
     * executing when the machine has halted (or the maxInsts fuse
     * blew; see fuseBlown()).
     */
    bool step(DynInst &out);

    /** Run up to @p max_insts instructions, discarding the records. */
    void run(std::uint64_t max_insts);

    bool halted() const { return archState.halted || fuse; }
    bool fuseBlown() const { return fuse; }
    std::uint64_t instsExecuted() const { return executed; }

    ArchState &state() { return archState; }
    const ArchState &state() const { return archState; }
    const Program &program() const { return prog; }

  private:
    const Program &prog;
    EmuConfig cfg;
    ArchState archState;
    std::uint64_t executed = 0;
    bool fuse = false;

    void recordPredWrite(DynInst &out, unsigned reg, bool value);
    void executeCmp(const Inst &inst, bool guard, DynInst &out);
};

} // namespace pabp

#endif // PABP_SIM_EMULATOR_HH
