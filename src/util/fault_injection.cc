#include "util/fault_injection.hh"

namespace pabp {

std::string
applyFault(std::string bytes, const FaultSpec &spec)
{
    switch (spec.kind) {
      case FaultSpec::Kind::None:
        break;
      case FaultSpec::Kind::BitFlip:
        if (spec.offset < bytes.size())
            bytes[spec.offset] ^=
                static_cast<char>(1u << (spec.bit & 7));
        break;
      case FaultSpec::Kind::Truncate:
        if (spec.offset < bytes.size())
            bytes.resize(spec.offset);
        break;
    }
    return bytes;
}

} // namespace pabp
