/**
 * @file
 * Deterministic fault injection for exercising the library's degraded
 * paths. A FaultSpec names one fault - flip a bit at a byte offset or
 * truncate at an offset - and applyFault() applies it to an in-memory
 * artifact image. tests/test_fault_injection sweeps these over the
 * PABPDTF1 trace reader to prove every injected fault surfaces as a
 * typed Status, never as a process abort.
 */

#ifndef PABP_UTIL_FAULT_INJECTION_HH
#define PABP_UTIL_FAULT_INJECTION_HH

#include <cstdint>
#include <string>

namespace pabp {

/** One injected fault. */
struct FaultSpec
{
    enum class Kind : std::uint8_t
    {
        None,     ///< pass-through
        BitFlip,  ///< invert bit @c bit of the byte at @c offset
        Truncate, ///< drop every byte at and after @c offset
    };

    Kind kind = Kind::None;
    std::uint64_t offset = 0;
    unsigned bit = 0; ///< BitFlip only, 0..7

    static FaultSpec
    bitFlip(std::uint64_t offset, unsigned bit = 0)
    {
        return FaultSpec{Kind::BitFlip, offset, bit};
    }

    static FaultSpec
    truncate(std::uint64_t offset)
    {
        return FaultSpec{Kind::Truncate, offset, 0};
    }
};

/** Apply a fault to a byte image. Offsets at or past the end leave
 *  the image unchanged. */
std::string applyFault(std::string bytes, const FaultSpec &spec);

} // namespace pabp

#endif // PABP_UTIL_FAULT_INJECTION_HH
