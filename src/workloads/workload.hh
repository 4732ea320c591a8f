/**
 * @file
 * The synthetic benchmark suite standing in for the paper's SPEC
 * workloads (see DESIGN.md, substitutions). Each workload is a CFG
 * program plus a deterministic memory-image initialiser; together
 * they fix the dynamic branch/predicate statistics the predictors
 * are evaluated on.
 *
 * The suite deliberately mixes the behaviours the paper's techniques
 * target: hot data-dependent diamonds (become hyperblocks), rare
 * side conditions (become region-based branches), conditions
 * correlated with earlier conditions (what PGU recovers), and plain
 * loop control (the easy bulk).
 */

#ifndef PABP_WORKLOADS_WORKLOAD_HH
#define PABP_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/compile.hh"
#include "compiler/ir.hh"

namespace pabp {

/** A benchmark: program + input generator + run length. */
struct Workload
{
    std::string name;
    IrFunction fn;
    StateInit init;                   ///< memory-image initialiser
    std::uint64_t defaultSteps = 2'000'000;
};

/**
 * @name Named suite
 * @{
 */
Workload makeBsort(std::uint64_t seed);      ///< bubble sort, swap diamond
Workload makeBsearch(std::uint64_t seed);    ///< binary search, 50/50 cmp
Workload makeHistogram(std::uint64_t seed);  ///< correlated range chain
Workload makeInterp(std::uint64_t seed);     ///< bytecode dispatch chain
Workload makeDchain(std::uint64_t seed);     ///< correlated diamond chain
Workload makeMatrix(std::uint64_t seed);     ///< sparse-guard matmul
Workload makeRle(std::uint64_t seed);        ///< run-length encoder
Workload makeFilter(std::uint64_t seed);     ///< range filter + rare tag
Workload makeListwalk(std::uint64_t seed);   ///< pointer chase + tests
Workload makeFsm(std::uint64_t seed);        ///< table-driven automaton
/** @} */

/** The whole suite, in canonical order. */
std::vector<Workload> allWorkloads(std::uint64_t seed);

/** One suite member by name; fatal when unknown. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** Names in canonical order (for option parsing / tables). */
std::vector<std::string> workloadNames();

/**
 * @name Parameterised generators for sensitivity sweeps
 * @{
 */

/**
 * A loop whose central branch is taken with the given probability;
 * the branch guards a small diamond so if-conversion applies.
 */
Workload makeBiasWorkload(double taken_probability, std::uint64_t seed);

/**
 * A loop computing a condition, then @p distance filler instructions,
 * then a *branch with the same outcome* as the condition. After
 * if-conversion the condition is a predicate define at distance
 * @p distance from the region-based branch, making the workload a
 * direct probe of the availability-delay parameter (experiment E9).
 */
Workload makeCorrWorkload(unsigned distance, std::uint64_t seed);

/** Region heuristics that give makeCorrWorkload() its intended shape
 *  (the handler block must stay outside the region). */
HyperblockHeuristics corrWorkloadHeuristics();
/** @} */

/** Compile + instantiate helper used by benches: returns the lowered
 *  program for this workload under the given options. */
CompiledProgram compileWorkload(Workload &wl, const CompileOptions &opts);

} // namespace pabp

#endif // PABP_WORKLOADS_WORKLOAD_HH
