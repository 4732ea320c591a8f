/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320) - the integrity check
 * used by the PABPDTF1 trace format and the results journal. Plain
 * table-driven byte-at-a-time implementation; the streams it protects
 * are read once sequentially, so throughput is not the bottleneck.
 */

#ifndef PABP_UTIL_CRC32_HH
#define PABP_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace pabp {

/** Incremental CRC-32 over a byte stream. */
class Crc32
{
  public:
    /** Fold @p len bytes at @p data into the running checksum. */
    void update(const void *data, std::size_t len);

    /** Finalised checksum of everything updated so far. */
    std::uint32_t value() const { return state ^ 0xffffffffu; }

    void reset() { state = 0xffffffffu; }

  private:
    std::uint32_t state = 0xffffffffu;
};

/** One-shot convenience. */
std::uint32_t crc32(const void *data, std::size_t len);

} // namespace pabp

#endif // PABP_UTIL_CRC32_HH
