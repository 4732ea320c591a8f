#include "core/pgu.hh"

namespace pabp {

void
PredicateGlobalUpdate::reset()
{
    queue.clear();
    inserted = 0;
}

} // namespace pabp
