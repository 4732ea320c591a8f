/**
 * @file
 * Byte-level state serialisation used by the results journal and the
 * predictor state snapshots. A StateSink writes PODs to a stream while
 * folding every byte into a running CRC-32; a StateSource reads them
 * back, returning typed Status errors (Truncated on a short read,
 * IoError when the underlying stream itself failed) instead of
 * panicking. Multi-byte values travel in host byte order; like the
 * trace format, the on-disk artifacts are declared little-endian.
 */

#ifndef PABP_UTIL_SERIALIZE_HH
#define PABP_UTIL_SERIALIZE_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/crc32.hh"
#include "util/sat_counter.hh"
#include "util/status.hh"

namespace pabp {

/** CRC-accumulating POD writer over an ostream. */
class StateSink
{
  public:
    explicit StateSink(std::ostream &os) : out(os) {}

    void
    writeBytes(const void *data, std::size_t len)
    {
        out.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(len));
        crc.update(data, len);
        total += len;
    }

    template <typename T>
    void
    writePod(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writeBytes(&value, sizeof(T));
    }

    void writeU8(std::uint8_t v) { writePod(v); }
    void writeU32(std::uint32_t v) { writePod(v); }
    void writeU64(std::uint64_t v) { writePod(v); }
    void writeI64(std::int64_t v) { writePod(v); }
    void writeBool(bool v) { writeU8(v ? 1 : 0); }

    void
    writeString(const std::string &s)
    {
        writeU64(s.size());
        writeBytes(s.data(), s.size());
    }

    template <typename T>
    void
    writePodVector(const std::vector<T> &vec)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writeU64(vec.size());
        writeBytes(vec.data(), vec.size() * sizeof(T));
    }

    /** vector<bool> has no contiguous storage; one byte per element. */
    void
    writeBoolVector(const std::vector<bool> &vec)
    {
        writeU64(vec.size());
        for (bool b : vec)
            writeBool(b);
    }

    /** Counter *values* only; widths are configuration, not state. */
    void
    writeCounters(const std::vector<SatCounter> &counters)
    {
        writeU64(counters.size());
        for (const SatCounter &c : counters)
            writeU8(c.raw());
    }

    /** Finalised CRC of everything written so far. */
    std::uint32_t crc32() const { return crc.value(); }
    void resetCrc() { crc.reset(); }

    std::uint64_t bytesWritten() const { return total; }
    bool good() const { return static_cast<bool>(out); }

  private:
    std::ostream &out;
    Crc32 crc;
    std::uint64_t total = 0;
};

/** CRC-accumulating POD reader with typed short-read errors. */
class StateSource
{
  public:
    explicit StateSource(std::istream &is) : in(is) {}

    Status
    readBytes(void *data, std::size_t len)
    {
        in.read(static_cast<char *>(data),
                static_cast<std::streamsize>(len));
        if (static_cast<std::size_t>(in.gcount()) != len || in.bad()) {
            if (in.bad())
                return Status(StatusCode::IoError,
                              "read failure on input stream");
            return Status(StatusCode::Truncated,
                          "stream ended " + std::to_string(len) +
                              " byte(s) short");
        }
        crc.update(data, len);
        total += len;
        return Status();
    }

    template <typename T>
    Status
    readPod(T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        return readBytes(&value, sizeof(T));
    }

    /** @param max_len Sanity bound so a corrupt length cannot trigger
     *         a multi-gigabyte allocation before the CRC check. */
    Status
    readString(std::string &s, std::uint64_t max_len = 1u << 20)
    {
        std::uint64_t len = 0;
        PABP_TRY(readPod(len));
        if (len > max_len)
            return Status(StatusCode::Corrupt,
                          "string length " + std::to_string(len) +
                              " exceeds bound");
        s.resize(len);
        return readBytes(s.data(), len);
    }

    std::uint32_t crc32() const { return crc.value(); }
    void resetCrc() { crc.reset(); }

    std::uint64_t bytesRead() const { return total; }

  private:
    std::istream &in;
    Crc32 crc;
    std::uint64_t total = 0;
};

} // namespace pabp

#endif // PABP_UTIL_SERIALIZE_HH
