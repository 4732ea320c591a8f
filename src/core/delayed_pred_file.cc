#include "core/delayed_pred_file.hh"

#include "util/logging.hh"

namespace pabp {

DelayedPredicateFile::DelayedPredicateFile(unsigned delay)
    : visDelay(delay), visible(numPredRegs, false),
      inFlight(numPredRegs, 0)
{
    visible[0] = true;
}

void
DelayedPredicateFile::reset()
{
    std::fill(visible.begin(), visible.end(), false);
    visible[0] = true;
    std::fill(inFlight.begin(), inFlight.end(), 0u);
    queue.clear();
}

} // namespace pabp
