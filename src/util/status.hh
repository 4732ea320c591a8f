/**
 * @file
 * Recoverable error handling: pabp::Status and pabp::Expected<T>.
 *
 * The gem5-style pabp_panic / pabp_fatal discipline (util/logging.hh)
 * terminates the process, which is the right answer for violated
 * internal invariants but makes the library unusable as an embedded
 * component when the error is *environmental*: a truncated trace file,
 * a corrupt journal, a bad predictor name from a config file.
 * Recoverable surfaces return Status / Expected<T> instead; pabp_fatal
 * survives only as a thin shim at CLI entry points (examples/, bench/)
 * that converts a Status into an exit(1). See docs/ROBUSTNESS.md.
 */

#ifndef PABP_UTIL_STATUS_HH
#define PABP_UTIL_STATUS_HH

#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "util/logging.hh"

namespace pabp {

/** Coarse error taxonomy shared by all recoverable surfaces. */
enum class StatusCode : std::uint8_t
{
    Ok,
    BadMagic,         ///< file/stream is not the expected artifact
    VersionMismatch,  ///< recognised artifact, unsupported version
    ChecksumMismatch, ///< CRC-protected section failed verification
    Truncated,        ///< stream ended before the artifact did
    IoError,          ///< the underlying stream itself failed
    Corrupt,          ///< structurally invalid content (in-range CRC)
    ParseError,       ///< malformed textual input (assembler, options)
    InvalidArgument,  ///< caller-supplied value out of contract
    NotFound,         ///< named entity does not exist
    Unsupported,      ///< valid request this build cannot honour
    DeadlineExceeded, ///< watchdog reaped a run that overran its budget
};

/** Stable name for a status code ("Truncated", ...). */
inline const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok: return "Ok";
      case StatusCode::BadMagic: return "BadMagic";
      case StatusCode::VersionMismatch: return "VersionMismatch";
      case StatusCode::ChecksumMismatch: return "ChecksumMismatch";
      case StatusCode::Truncated: return "Truncated";
      case StatusCode::IoError: return "IoError";
      case StatusCode::Corrupt: return "Corrupt";
      case StatusCode::ParseError: return "ParseError";
      case StatusCode::InvalidArgument: return "InvalidArgument";
      case StatusCode::NotFound: return "NotFound";
      case StatusCode::Unsupported: return "Unsupported";
      case StatusCode::DeadlineExceeded: return "DeadlineExceeded";
    }
    return "Unknown";
}

/** A recoverable error (or success). Cheap to copy on the Ok path. */
class [[nodiscard]] Status
{
  public:
    /** Default-constructed status is success. */
    Status() = default;

    Status(StatusCode code, std::string message)
        : statusCode(code), messageText(std::move(message))
    {
        pabp_assert(code != StatusCode::Ok);
    }

    bool ok() const { return statusCode == StatusCode::Ok; }
    StatusCode code() const { return statusCode; }
    const std::string &message() const { return messageText; }

    /** "Truncated: trace ended inside the event section". */
    std::string
    toString() const
    {
        if (ok())
            return "Ok";
        return std::string(statusCodeName(statusCode)) + ": " +
            messageText;
    }

    bool operator==(const Status &other) const = default;

  private:
    StatusCode statusCode = StatusCode::Ok;
    std::string messageText;
};

/** Shorthand constructors so call sites stay one line. */
inline Status
statusError(StatusCode code, std::string message)
{
    return Status(code, std::move(message));
}

/**
 * A value or a Status. The accessor contract is assert-checked:
 * reading value() of an error (or status() of a success) is a
 * programming bug, not a recoverable condition.
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    /** Forwarding value constructor, so a derived-class
     *  unique_ptr (say) converts in one step. */
    template <typename U = T,
              typename = std::enable_if_t<
                  std::is_constructible_v<T, U &&> &&
                  !std::is_same_v<std::decay_t<U>, Expected> &&
                  !std::is_same_v<std::decay_t<U>, Status>>>
    Expected(U &&value) : payload(std::in_place_index<0>,
                                  std::forward<U>(value))
    {}

    Expected(Status error) : payload(std::move(error))
    {
        pabp_assert(!std::get<Status>(payload).ok());
    }

    bool ok() const { return std::holds_alternative<T>(payload); }
    explicit operator bool() const { return ok(); }

    T &
    value()
    {
        pabp_assert(ok());
        return std::get<T>(payload);
    }

    const T &
    value() const
    {
        pabp_assert(ok());
        return std::get<T>(payload);
    }

    const Status &
    status() const
    {
        static const Status okStatus;
        if (ok())
            return okStatus;
        return std::get<Status>(payload);
    }

  private:
    std::variant<T, Status> payload;
};

} // namespace pabp

/** Propagate a non-Ok Status to the caller. */
#define PABP_TRY(expr)                                                      \
    do {                                                                    \
        ::pabp::Status pabp_try_status_ = (expr);                           \
        if (!pabp_try_status_.ok())                                         \
            return pabp_try_status_;                                        \
    } while (0)

#endif // PABP_UTIL_STATUS_HH
