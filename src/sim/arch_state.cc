#include "sim/arch_state.hh"

namespace pabp {

namespace {

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // anonymous namespace

ArchState::ArchState(std::size_t mem_words)
    : mem(roundUpPow2(mem_words ? mem_words : 1), 0)
{
    pred[0] = true;
}

void
ArchState::resetRegs()
{
    gpr.fill(0);
    pred.fill(false);
    pred[0] = true;
    pc = 0;
    halted = false;
    callStack.clear();
}

bool
ArchState::sameArchOutcome(const ArchState &other) const
{
    return gpr == other.gpr && pred[0] == other.pred[0] &&
        mem == other.mem;
}

} // namespace pabp
