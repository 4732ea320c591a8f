/**
 * @file
 * The `.pabp` fuzz-case format: a self-contained text reproducer.
 *
 * A case pins everything a failure needs to replay - generator seed +
 * knobs, predictor spec, engine configuration, oracle selection, and
 * (for the trace-corruption oracle) the corruption schedule. Because
 * program generation is deterministic in (seed, knobs), the case file
 * does not carry the program itself; the shrinker minimises over the
 * knobs and the replay regenerates the program from them.
 *
 * Format: `key=value` lines, `#` comments, unknown keys rejected (a
 * typo must not silently weaken a regression case). Canonical output
 * of formatCase() round-trips through parseCase() field-for-field.
 */

#ifndef PABP_FUZZ_FUZZ_CASE_HH
#define PABP_FUZZ_FUZZ_CASE_HH

#include <cstdint>
#include <string>

#include "core/engine.hh"
#include "fuzz/fuzz_gen.hh"
#include "sim/context_schedule.hh"
#include "util/status.hh"

namespace pabp::fuzz {

/** The differential oracles, as bitmask positions. */
enum class Oracle : unsigned
{
    IfConvert = 1u << 0,  ///< branchy vs if-converted arch state
    Pipeline = 1u << 1,   ///< trace-driven vs pipeline-driven engine
    Replay = 1u << 2,     ///< reference replay vs fast batch replay
    Split = 1u << 3,      ///< replay split at halfway vs straight-through
    Trace = 1u << 4,      ///< corrupt PABPTRC2: typed error or salvage
    Sweep = 1u << 5,      ///< SweepRunner cell fast vs reference
    Journal = 1u << 6,    ///< corrupt PABPJRN1: typed error or salvage
    MultiCtx = 1u << 7,   ///< interleaved contexts: fast vs reference,
                          ///< and N=1 identical to single-stream
};

constexpr unsigned allOracles = 0xff;

/** Stable lower-case oracle name ("ifconvert", "replay", ...). */
const char *oracleName(Oracle oracle);

/** Parse "all" or a comma list of oracle names into a mask. */
Expected<unsigned> parseOracleMask(const std::string &text);

/** Canonical text for a mask ("all" or a comma list). */
std::string formatOracleMask(unsigned mask);

/**
 * Engine-flag spec string: "base" or '+'-joined tokens from
 * {sfpf, pgu, spec, jrs, train, consdef}. "jrs" implies "spec"
 * with the JRS confidence gate. availDelay travels separately
 * (it is numeric, not a flag).
 */
std::string engineSpecString(const EngineConfig &cfg);
Expected<EngineConfig> parseEngineSpec(const std::string &spec);

/** One self-contained fuzz case. */
struct FuzzCase
{
    std::string name = "unnamed";
    std::uint64_t seed = 1;
    std::string predictor = "gshare";
    unsigned sizeLog2 = 12;
    EngineConfig engine;
    unsigned oracles = allOracles;
    std::uint64_t maxInsts = 20'000;
    FuzzProgramConfig gen;

    /** @name Trace-corruption schedule (Oracle::Trace)
     *  @{ */
    unsigned corruptFlips = 0;     ///< single-bit flips applied
    std::uint64_t corruptSeed = 0; ///< rng stream picking positions
    unsigned corruptTruncate = 0;  ///< bytes chopped off the end
    /** @} */

    /** @name Multi-context interleaving (Oracle::MultiCtx)
     *  With contexts == 1 the oracle pins the N=1 identity (a
     *  1-context replay is byte-identical to the single-stream loop);
     *  with contexts > 1 it pins fast vs reference multi-context
     *  replay. Context c replays the same program from input seed
     *  seed + c.
     *  @{ */
    unsigned contexts = 1;
    ScheduleKind ctxSchedule = ScheduleKind::RoundRobin;
    std::uint64_t ctxQuantum = 256;
    std::uint64_t ctxSeed = 1;    ///< bursty schedule draw seed
    bool ctxShared = true;        ///< shared vs per-context history
    unsigned ctxTagBits = 0;      ///< context bits mixed into indices
    /** @} */
};

/** Parse a case from its text form. Unknown keys are ParseErrors. */
Expected<FuzzCase> parseCase(const std::string &text);

/** Canonical text form (round-trips through parseCase()). */
std::string formatCase(const FuzzCase &fuzz_case);

/** Read + parse a case file. */
Expected<FuzzCase> readCaseFile(const std::string &path);

/** Write a case file (canonical form). */
Status writeCaseFile(const std::string &path, const FuzzCase &fuzz_case);

} // namespace pabp::fuzz

#endif // PABP_FUZZ_FUZZ_CASE_HH
