#include "bpred/btb.hh"

#include "util/logging.hh"

namespace pabp {

Btb::Btb(unsigned sets_log2, unsigned ways)
    : entries((std::size_t{1} << sets_log2) * ways), setsLog2(sets_log2),
      numWays(ways)
{
    pabp_assert(ways >= 1);
}

Btb::Entry *
Btb::setBase(std::uint32_t pc)
{
    std::size_t set = pc & ((std::size_t{1} << setsLog2) - 1);
    return &entries[set * numWays];
}

std::optional<std::uint32_t>
Btb::lookup(std::uint32_t pc)
{
    Entry *set = setBase(pc);
    for (unsigned w = 0; w < numWays; ++w) {
        if (set[w].valid && set[w].tag == pc) {
            set[w].lastUse = ++useClock;
            ++hitCount;
            return set[w].target;
        }
    }
    ++missCount;
    return std::nullopt;
}

void
Btb::update(std::uint32_t pc, std::uint32_t target)
{
    Entry *set = setBase(pc);
    Entry *victim = &set[0];
    for (unsigned w = 0; w < numWays; ++w) {
        if (set[w].valid && set[w].tag == pc) {
            victim = &set[w];
            break;
        }
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    victim->valid = true;
    victim->tag = pc;
    victim->target = target;
    victim->lastUse = ++useClock;
}

void
Btb::reset()
{
    for (auto &e : entries)
        e = Entry{};
    useClock = 0;
    hitCount = 0;
    missCount = 0;
}

void
Btb::registerStats(StatGroup &group, const std::string &prefix)
{
    group.gauge(prefix + "hits", [this] { return hitCount; });
    group.gauge(prefix + "misses", [this] { return missCount; });
    group.onReset([this] { resetStats(); });
}

ReturnAddressStack::ReturnAddressStack(unsigned depth) : stack(depth, 0)
{
    pabp_assert(depth >= 1);
}

void
ReturnAddressStack::push(std::uint32_t return_pc)
{
    if (count == stack.size())
        ++overflowCount;
    top = (top + 1) % stack.size();
    stack[top] = return_pc;
    if (count < stack.size())
        ++count;
    ++pushCount;
}

std::optional<std::uint32_t>
ReturnAddressStack::pop()
{
    if (count == 0) {
        ++underflowCount;
        return std::nullopt;
    }
    std::uint32_t value = stack[top];
    top = (top + stack.size() - 1) % stack.size();
    --count;
    ++popCount;
    return value;
}

void
ReturnAddressStack::reset()
{
    top = 0;
    count = 0;
    pushCount = 0;
    popCount = 0;
    overflowCount = 0;
    underflowCount = 0;
}

void
ReturnAddressStack::registerStats(StatGroup &group,
                                  const std::string &prefix)
{
    group.gauge(prefix + "pushes", [this] { return pushCount; });
    group.gauge(prefix + "pops", [this] { return popCount; });
    group.gauge(prefix + "overflows", [this] { return overflowCount; });
    group.gauge(prefix + "underflows", [this] { return underflowCount; });
    group.onReset([this] { resetStats(); });
}

} // namespace pabp
