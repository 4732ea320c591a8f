/**
 * @file
 * Parameterised workload generators for sensitivity sweeps, the suite
 * registry, and the compile helper.
 */

#include "workloads/workload.hh"

#include "sim/arch_state.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace pabp {

// ---------------------------------------------------------------------
// bias sweep: one central diamond whose branch is taken with a fixed
// probability, drawn from pre-generated coin flips in memory.
//
// regs: r1=i r3=N r4=coin r6,r7=path temps r12=pass counter
// mem:  coins at 0
// ---------------------------------------------------------------------
Workload
makeBiasWorkload(double taken_probability, std::uint64_t seed)
{
    constexpr std::int64_t n = 16384;
    constexpr std::int64_t passes = 12;

    Workload wl;
    wl.name = "bias";
    wl.fn.name = "bias";
    IrBuilder b(wl.fn);

    BlockId entry = b.newBlock();
    BlockId pass_head = b.newBlock();
    BlockId pass_init = b.newBlock();
    BlockId head = b.newBlock();
    BlockId test = b.newBlock();
    BlockId then_b = b.newBlock();
    BlockId else_b = b.newBlock();
    BlockId latch = b.newBlock();
    BlockId pass_latch = b.newBlock();
    BlockId done = b.newBlock();

    b.setBlock(entry);
    b.append(makeMovImm(3, n));
    b.append(makeMovImm(12, passes));
    b.jump(pass_head);

    b.setBlock(pass_head);
    b.condBrImm(CmpRel::Gt, 12, 0, pass_init, done);

    b.setBlock(pass_init);
    b.append(makeMovImm(1, 0));
    b.jump(head);

    b.setBlock(head);
    b.condBr(CmpRel::Lt, 1, 3, test, pass_latch);

    b.setBlock(test);
    b.append(makeLoad(4, 1, 0));
    b.condBrImm(CmpRel::Eq, 4, 1, then_b, else_b);

    // Arms carry real work (8 ops each) so predication pays a
    // visible both-paths tax - that is what creates the classic
    // bias crossover in E15.
    b.setBlock(then_b);
    b.append(makeAluImm(Opcode::Add, 6, 6, 3));
    b.append(makeAluImm(Opcode::Mul, 8, 6, 5));
    b.append(makeAluImm(Opcode::Xor, 8, 8, 0x1f));
    b.append(makeAluImm(Opcode::Shl, 9, 8, 2));
    b.append(makeAluImm(Opcode::Add, 9, 9, 7));
    b.append(makeAluImm(Opcode::And, 9, 9, 4095));
    b.append(makeAluImm(Opcode::Sub, 6, 9, 11));
    b.append(makeAluImm(Opcode::Or, 6, 6, 1));
    b.jump(latch);

    b.setBlock(else_b);
    b.append(makeAluImm(Opcode::Sub, 7, 7, 1));
    b.append(makeAluImm(Opcode::Mul, 8, 7, 3));
    b.append(makeAluImm(Opcode::Xor, 8, 8, 0x2e));
    b.append(makeAluImm(Opcode::Shr, 9, 8, 1));
    b.append(makeAluImm(Opcode::Add, 9, 9, 13));
    b.append(makeAluImm(Opcode::And, 9, 9, 2047));
    b.append(makeAluImm(Opcode::Add, 7, 9, 5));
    b.append(makeAluImm(Opcode::Xor, 7, 7, 2));
    b.jump(latch);

    b.setBlock(latch);
    b.append(makeAluImm(Opcode::Add, 1, 1, 1));
    b.jump(head);

    b.setBlock(pass_latch);
    b.append(makeAluImm(Opcode::Sub, 12, 12, 1));
    b.jump(pass_head);

    b.setBlock(done);
    b.halt();

    wl.init = [seed, taken_probability](ArchState &state) {
        Rng rng(seed ^ 0xb1a5u);
        for (std::int64_t i = 0; i < n; ++i)
            state.writeMem(i, rng.chance(taken_probability) ? 1 : 0);
    };
    wl.defaultSteps = 4'000'000;
    return wl;
}

// ---------------------------------------------------------------------
// correlation-distance sweep: the diamond "rare : main" splits on
// v < 32 (25% rare). The rare arm jumps to an out-of-region handler,
// so after if-conversion it becomes a region-based branch guarded by
// the rare arm's block predicate. That predicate (and the correlated
// history bit) is defined by the single compare in cond_block, and
// the main arm carries `distance` filler instructions between define
// and (sunk) branch - a direct probe of availability delay for BOTH
// techniques. Compile with maxBlocks=4 so the handler stays outside.
//
// regs: r1=i r3=N r4=v r5=acc r6=filler sink r12=pass counter
// mem:  data at 0, counter at 60000
// ---------------------------------------------------------------------
Workload
makeCorrWorkload(unsigned distance, std::uint64_t seed)
{
    constexpr std::int64_t n = 8192;
    constexpr std::int64_t counter_addr = 60000;
    constexpr std::int64_t passes = 12;

    Workload wl;
    wl.name = "corr-" + std::to_string(distance);
    wl.fn.name = wl.name;
    IrBuilder b(wl.fn);

    BlockId entry = b.newBlock();
    BlockId pass_head = b.newBlock();
    BlockId pass_init = b.newBlock();
    BlockId head = b.newBlock();
    BlockId cond_block = b.newBlock();
    BlockId rare = b.newBlock();
    BlockId main_arm = b.newBlock();
    BlockId handler = b.newBlock();
    BlockId latch = b.newBlock();
    BlockId pass_latch = b.newBlock();
    BlockId done = b.newBlock();

    b.setBlock(entry);
    b.append(makeMovImm(3, n));
    b.append(makeMovImm(12, passes));
    b.append(makeMovImm(10, counter_addr));
    b.jump(pass_head);

    b.setBlock(pass_head);
    b.condBrImm(CmpRel::Gt, 12, 0, pass_init, done);

    b.setBlock(pass_init);
    b.append(makeMovImm(1, 0));
    b.jump(head);

    b.setBlock(head);
    b.condBr(CmpRel::Lt, 1, 3, cond_block, pass_latch);

    // The define: v < 32 (25% taken on uniform 0..127 data).
    b.setBlock(cond_block);
    b.append(makeLoad(4, 1, 0));
    b.condBrImm(CmpRel::Lt, 4, 32, rare, main_arm);

    b.setBlock(rare);
    b.append(makeAluImm(Opcode::Add, 5, 5, 2));
    b.jump(handler); // jump exit -> region-based branch on p_rare

    b.setBlock(main_arm);
    for (unsigned k = 0; k < distance; ++k)
        b.append(makeAluImm(Opcode::Xor, 6, 6, 0x2f));
    b.jump(latch);

    b.setBlock(handler);
    b.append(makeLoad(11, 10, 0));
    b.append(makeAluImm(Opcode::Add, 11, 11, 1));
    b.append(makeStore(10, 0, 11));
    b.jump(latch);

    b.setBlock(latch);
    b.append(makeAluImm(Opcode::Add, 1, 1, 1));
    b.jump(head);

    b.setBlock(pass_latch);
    b.append(makeAluImm(Opcode::Sub, 12, 12, 1));
    b.jump(pass_head);

    b.setBlock(done);
    b.halt();

    wl.init = [seed](ArchState &state) {
        Rng rng(seed ^ 0xc0bbu);
        for (std::int64_t i = 0; i < n; ++i)
            state.writeMem(i, static_cast<std::int64_t>(rng.below(128)));
    };
    wl.defaultSteps = 4'000'000;
    return wl;
}

HyperblockHeuristics
corrWorkloadHeuristics()
{
    HyperblockHeuristics h;
    h.maxBlocks = 4; // head, cond_block, rare, main - handler stays out
    return h;
}

std::vector<std::string>
workloadNames()
{
    return {"bsort", "bsearch", "histogram", "interp", "dchain",
            "matrix", "rle", "filter", "listwalk", "fsm"};
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "bsort")
        return makeBsort(seed);
    if (name == "bsearch")
        return makeBsearch(seed);
    if (name == "histogram")
        return makeHistogram(seed);
    if (name == "interp")
        return makeInterp(seed);
    if (name == "dchain")
        return makeDchain(seed);
    if (name == "matrix")
        return makeMatrix(seed);
    if (name == "rle")
        return makeRle(seed);
    if (name == "filter")
        return makeFilter(seed);
    if (name == "listwalk")
        return makeListwalk(seed);
    if (name == "fsm")
        return makeFsm(seed);
    pabp_fatal("unknown workload: " + name);
}

std::vector<Workload>
allWorkloads(std::uint64_t seed)
{
    std::vector<Workload> suite;
    for (const std::string &name : workloadNames())
        suite.push_back(makeWorkload(name, seed));
    return suite;
}

CompiledProgram
compileWorkload(Workload &wl, const CompileOptions &opts)
{
    std::string problem = verifyFunction(wl.fn);
    if (!problem.empty())
        pabp_panic("workload " + wl.name + " invalid: " + problem);
    return compileFunction(wl.fn, wl.init, opts);
}

} // namespace pabp
