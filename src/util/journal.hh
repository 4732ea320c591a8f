/**
 * @file
 * Append-only, CRC-framed results journal - the durable sink of the
 * crash-safe sweep service (bench/sweep_service.hh). One journal file
 * holds one shard's results: a fixed header followed by a sequence of
 * independently CRC-32-protected record frames, each keyed by a spec
 * fingerprint. The design goals, in order:
 *
 *  - A crash (SIGKILL, power loss) at ANY byte position costs at most
 *    the record being appended: opening the file for writing scans it
 *    and TRUNCATES a torn or corrupt tail back to the last fully
 *    valid frame (salvage: keep the longest valid prefix).
 *  - Appends never rewrite existing bytes, so two processes of the
 *    same campaign interrupted at different points converge to the
 *    same byte sequence once both have drained.
 *  - Compaction (dropping superseded records for re-run cells) goes
 *    through write-then-rename: at every instant the on-disk artifact
 *    is either the complete old journal or the complete new one,
 *    never a mix.
 *
 * On-disk layout (little-endian):
 *
 *   | magic[8] "PABPJRN1" | u32 version = 1
 *   | u32 shardIndex | u32 shardCount
 *   | u32 headerCrc        - CRC-32 of the 20 bytes above
 *   | record frames...
 *
 * Record frame:
 *
 *   | u32 payloadLen | u32 payloadCrc | payload bytes
 *
 * Record payload (via util/serialize.hh):
 *
 *   | u8 kind | u64 fingerprint | u32 attempts | u8 statusCode
 *   | u32 numColumns | u64 column values
 *   | string blob (u64 length + bytes)
 *
 * The journal layer is deliberately generic: a record is a kind, a
 * fingerprint, a small vector of u64 columns and an opaque blob. The
 * sweep layer defines the column order (bench/sweep_service.hh) and
 * stores the cell's byte-stable metrics JSON in the blob, which is
 * what lets tools/pabp-stats query and diff cells straight out of a
 * journal without per-cell loose files. See docs/ROBUSTNESS.md.
 */

#ifndef PABP_UTIL_JOURNAL_HH
#define PABP_UTIL_JOURNAL_HH

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/status.hh"

namespace pabp {

inline constexpr char kJournalMagic[9] = "PABPJRN1";
inline constexpr std::uint32_t kJournalVersion = 1;

/** Sanity bounds so corrupt lengths cannot trigger huge allocations
 *  before a CRC check. */
inline constexpr std::uint32_t kJournalMaxFrameBytes = 64u << 20;
inline constexpr std::uint32_t kJournalMaxColumns = 1024;

/** Journal identity: which shard of which partitioning wrote it. */
struct JournalHeader
{
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 1;

    bool operator==(const JournalHeader &) const = default;
};

/** One appended record. */
struct JournalRecord
{
    enum class Kind : std::uint8_t
    {
        Result = 1,     ///< cell completed; blob = metrics JSON
        Quarantine = 2, ///< cell failed terminally; blob = error text
    };

    Kind kind = Kind::Result;
    std::uint64_t fingerprint = 0;
    std::uint32_t attempts = 1;    ///< tries the cell consumed
    std::uint8_t statusCode = 0;   ///< pabp::StatusCode, 0 = Ok
    std::vector<std::uint64_t> columns; ///< writer-defined column order
    std::string blob;              ///< metrics JSON / error message

    bool operator==(const JournalRecord &) const = default;
};

/** Reader knobs. */
struct JournalReadOptions
{
    /**
     * Best-effort recovery: when a frame is torn (file ends inside
     * it) or fails its CRC, return the longest prefix of fully valid
     * records instead of an error. The header must still verify - a
     * journal whose identity is damaged cannot be trusted at all.
     */
    bool salvage = false;
};

/** What the reader learned. */
struct JournalReadInfo
{
    bool salvaged = false;         ///< a damaged tail was dropped
    std::uint64_t validBytes = 0;  ///< length of the valid prefix
    std::uint64_t tailBytesDropped = 0; ///< bytes past the valid prefix
};

/** Serialise the header (magic, version, identity, CRC). */
void writeJournalHeader(std::ostream &os, const JournalHeader &header);

/** Serialise one record frame. Returns bytes written. */
std::uint64_t appendJournalRecord(std::ostream &os,
                                  const JournalRecord &record);

/**
 * Parse a complete journal image. All malformed-input paths return a
 * typed Status (BadMagic, VersionMismatch, ChecksumMismatch,
 * Truncated, Corrupt); nothing aborts. With @ref
 * JournalReadOptions::salvage, damage after the header yields the
 * valid record prefix and sets @p info->salvaged.
 */
Expected<std::vector<JournalRecord>>
readJournalImage(const std::string &bytes,
                 const JournalReadOptions &opts = {},
                 JournalHeader *header = nullptr,
                 JournalReadInfo *info = nullptr);

/** File wrapper over readJournalImage(). */
Expected<std::vector<JournalRecord>>
readJournalFile(const std::string &path,
                const JournalReadOptions &opts = {},
                JournalHeader *header = nullptr,
                JournalReadInfo *info = nullptr);

/**
 * Append handle on a journal file. open() creates the file (writing
 * the header) or adopts an existing one: the existing image is
 * scanned, a torn/corrupt tail is physically truncated away, a stale
 * compaction temp file is removed, and the surviving records are
 * handed back so the caller can skip completed work. A header whose
 * identity does not match @p header is refused (InvalidArgument) -
 * a shard must not append into another shard's journal.
 */
class JournalWriter
{
  public:
    static Expected<JournalWriter>
    open(const std::string &path, const JournalHeader &header,
         std::vector<JournalRecord> *existing = nullptr,
         JournalReadInfo *info = nullptr);

    /** Append one frame and flush it to the OS. */
    Status append(const JournalRecord &record);

    /** Flush + close; further appends are invalid. Called by the
     *  destructor; explicit close lets the caller rename/compact. */
    void close();

    const std::string &path() const { return filePath; }
    std::uint64_t recordsAppended() const { return appended; }

  private:
    JournalWriter() = default;

    std::string filePath;
    std::ofstream out;
    std::uint64_t appended = 0;
};

/**
 * Rewrite @p path keeping only the LAST record for each fingerprint,
 * ordered by @p order (fingerprints listed there first, in that
 * order; any remaining records follow in first-appearance order).
 * The new image is written to "<path>.tmp" and renamed into place:
 * a crash leaves either the old journal or the new one, never a mix.
 */
Status compactJournal(const std::string &path,
                      const std::vector<std::uint64_t> &order = {});

/** Write @p bytes to @p path via write-then-rename. */
Status atomicWriteFile(const std::string &path, const std::string &bytes);

} // namespace pabp

#endif // PABP_UTIL_JOURNAL_HH
