/**
 * @file
 * Deterministic fault injection for exercising the library's degraded
 * paths. A FaultSpec names one fault - flip a bit at a byte offset,
 * truncate at an offset, or fail the underlying stream at an offset -
 * and the helpers apply it to an in-memory artifact image or wrap the
 * image in a stream that misbehaves on cue. tests/test_fault_injection
 * sweeps these over the trace and journal readers to prove every
 * injected fault surfaces as a typed Status (or a successful salvage),
 * never as a process abort.
 */

#ifndef PABP_UTIL_FAULT_INJECTION_HH
#define PABP_UTIL_FAULT_INJECTION_HH

#include <cstdint>
#include <istream>
#include <streambuf>
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
        FailRead, ///< the stream hard-fails (badbit) at @c offset
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

    static FaultSpec
    failRead(std::uint64_t offset)
    {
        return FaultSpec{Kind::FailRead, offset, 0};
    }
};

/**
 * Apply a BitFlip or Truncate fault to a byte image. FailRead cannot
 * be represented in a plain buffer; use FaultyStream for it. Offsets
 * at or past the end leave the image unchanged.
 */
std::string applyFault(std::string bytes, const FaultSpec &spec);

/**
 * A streambuf over a byte image that serves data normally up to the
 * fault point and then, for FailRead, throws from underflow() - which
 * istream converts into badbit, exactly how a real I/O error (EIO,
 * yanked disk, dropped NFS mount) reaches a reader.
 */
class FaultyStreambuf : public std::streambuf
{
  public:
    FaultyStreambuf(std::string bytes, FaultSpec spec);

  protected:
    int_type underflow() override;

  private:
    std::string data;
    bool failAtEnd;
};

/** Owning convenience wrapper: an istream over a faulty image. */
class FaultyStream
{
  public:
    FaultyStream(std::string bytes, FaultSpec spec)
        : buf(std::move(bytes), spec), in(&buf)
    {}

    std::istream &stream() { return in; }

  private:
    FaultyStreambuf buf;
    std::istream in;
};

} // namespace pabp

#endif // PABP_UTIL_FAULT_INJECTION_HH
