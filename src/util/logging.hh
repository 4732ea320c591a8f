/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  - internal invariant violated; aborts.
 * fatal()  - user/configuration error; exits with status 1.
 * warn()   - non-fatal diagnostic on stderr.
 * warn_once() - warn() deduplicated per distinct message per process;
 *            repeats are counted and reported in one line at exit.
 */

#ifndef PABP_UTIL_LOGGING_HH
#define PABP_UTIL_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace pabp {

/** Print a formatted message with a severity prefix to stderr. */
void logMessage(const char *severity, const std::string &msg,
                const char *file, int line);

/** logMessage("warn", ...) the first time @p msg is seen in this
 *  process; later repeats are only counted. Thread-safe. */
void warnOnce(const std::string &msg, const char *file, int line);

/** Repeats warnOnce() has suppressed so far in this process. */
std::uint64_t suppressedWarnings();

/** Abort with a message; use for violated internal invariants. */
[[noreturn]] void panicImpl(const std::string &msg, const char *file,
                            int line);

/** Exit(1) with a message; use for user/config errors. */
[[noreturn]] void fatalImpl(const std::string &msg, const char *file,
                            int line);

} // namespace pabp

#define pabp_panic(msg) ::pabp::panicImpl((msg), __FILE__, __LINE__)
#define pabp_fatal(msg) ::pabp::fatalImpl((msg), __FILE__, __LINE__)
#define pabp_warn(msg) ::pabp::logMessage("warn", (msg), __FILE__, __LINE__)
#define pabp_warn_once(msg) ::pabp::warnOnce((msg), __FILE__, __LINE__)

/**
 * Force-inline for the replay hot path's per-event helpers. The
 * inliner treats them as ordinary out-of-line candidates, but a call
 * frame (spilling the loop's live registers) costs as much as the
 * helper's own handful of ALU ops when it runs once per dynamic
 * event; see docs/PERF.md.
 */
#if defined(__GNUC__) || defined(__clang__)
#define PABP_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define PABP_ALWAYS_INLINE inline
#endif

/**
 * Invariant check that stays on in release builds. Simulator results
 * silently corrupted by a skipped assert are worse than the cost of
 * the branch.
 */
#define pabp_assert(cond)                                                   \
    do {                                                                    \
        if (!(cond))                                                        \
            pabp_panic("assertion failed: " #cond);                        \
    } while (0)

#endif // PABP_UTIL_LOGGING_HH
