#include "util/logging.hh"

#include <atomic>
#include <mutex>
#include <set>

namespace pabp {

namespace {

std::mutex warnOnceMtx;
std::set<std::string> warnedMessages; ///< guarded by warnOnceMtx
std::atomic<std::uint64_t> suppressedCount{0};

/** atexit hook: one summary line instead of every repeat. Reads only
 *  the atomic, so a worker still inside warnOnce() cannot block it. */
void
reportSuppressedWarnings()
{
    const std::uint64_t n = suppressedCount.load();
    std::fprintf(stderr, "warn: %llu repeated warning(s) suppressed\n",
                 static_cast<unsigned long long>(n));
}

} // anonymous namespace

void
logMessage(const char *severity, const std::string &msg, const char *file,
           int line)
{
    std::fprintf(stderr, "%s: %s (%s:%d)\n", severity, msg.c_str(), file,
                 line);
}

void
warnOnce(const std::string &msg, const char *file, int line)
{
    {
        std::lock_guard<std::mutex> lock(warnOnceMtx);
        if (!warnedMessages.insert(msg).second) {
            if (suppressedCount.fetch_add(1) == 0)
                std::atexit(reportSuppressedWarnings);
            return;
        }
    }
    logMessage("warn", msg, file, line);
}

std::uint64_t
suppressedWarnings()
{
    return suppressedCount.load();
}

void
panicImpl(const std::string &msg, const char *file, int line)
{
    logMessage("panic", msg, file, line);
    std::abort();
}

void
fatalImpl(const std::string &msg, const char *file, int line)
{
    logMessage("fatal", msg, file, line);
    std::exit(1);
}

} // namespace pabp
