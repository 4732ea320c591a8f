/**
 * @file
 * The predicate global update (PGU) mechanism - the paper's second
 * technique.
 *
 * Conventional global history only records branch outcomes; after
 * if-conversion the branches that carried the correlation have become
 * predicate defines and vanish from the history, so region-based
 * branches lose their correlated context. PGU restores it by shifting
 * the outcome of each predicate define into the predictor's global
 * history register when the define resolves.
 *
 * Because defines resolve in the backend, their bits reach the history
 * a few instructions after the define is fetched; this delay is
 * modelled the same way as in the delayed predicate file.
 */

#ifndef PABP_CORE_PGU_HH
#define PABP_CORE_PGU_HH

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "bpred/predictor.hh"
#include "isa/inst.hh"
#include "sim/emulator.hh"
#include "util/logging.hh"
#include "util/ring_queue.hh"
#include "util/stats.hh"

namespace pabp {

/** Which predicate defines contribute history bits. */
enum class PguSource : std::uint8_t
{
    AllCmps,     ///< every compare instruction
    RegionCmps,  ///< only compares inside predicated regions (models a
                 ///< compiler hint bit on the define)
};

/** Which value of a define is inserted. */
enum class PguValue : std::uint8_t
{
    Rel,        ///< the comparison outcome, when the guard was true
    FirstWrite, ///< the first predicate value actually written
    BothWrites, ///< both written predicate values (2 bits for unc)
};

/** PGU configuration. */
struct PguConfig
{
    PguSource source = PguSource::AllCmps;
    PguValue value = PguValue::Rel;
    /** Also insert pset pseudo-define outcomes. */
    bool includePSet = false;
    /** Instructions from define to history visibility. */
    unsigned delay = 8;
};

/**
 * Collects predicate-define outcomes from the dynamic stream and
 * injects them into a base predictor's global history with the
 * configured delay.
 */
class PredicateGlobalUpdate
{
  public:
    PredicateGlobalUpdate(BranchPredictor &base, PguConfig config)
        : pred(base), cfg(config)
    {}

    /** Observe one executed instruction; queue its history bits.
     *  Inline: both replay loops call it for every predicate define,
     *  which is a fifth to a third of an if-converted stream. */
    void
    observe(const DynInst &dyn)
    {
        const Inst &inst = *dyn.inst;
        bool is_cmp = inst.op == Opcode::Cmp;
        bool is_pset = inst.op == Opcode::PSet;
        if (!is_cmp && !(is_pset && cfg.includePSet))
            return;
        if (cfg.source == PguSource::RegionCmps && inst.regionId < 0)
            return;

        switch (cfg.value) {
          case PguValue::Rel:
            // Insert the comparison outcome for guarded-true
            // compares; a guard-false compare computed nothing worth
            // recording.
            if (is_cmp && dyn.guard)
                queue.push_back(Pending{dyn.seq, dyn.cmpRel});
            else if (is_pset && dyn.guard)
                queue.push_back(Pending{dyn.seq, (inst.imm & 1) != 0});
            break;
          case PguValue::FirstWrite:
            if (dyn.numPredWrites > 0)
                queue.push_back(
                    Pending{dyn.seq, dyn.predWrites[0].value});
            break;
          case PguValue::BothWrites:
            for (unsigned i = 0; i < dyn.numPredWrites; ++i)
                queue.push_back(
                    Pending{dyn.seq, dyn.predWrites[i].value});
            break;
        }
    }

    /** Inject all bits that have resolved by @p seq. Call before the
     *  prediction of the branch at @p seq. Returns how many bits
     *  were injected (the engine uses this to attribute
     *  PGU-influenced predictions per branch). Inline: the replay
     *  loops call it per instruction, and with defines a fifth to a
     *  third of the stream a bit ripens on a sizeable fraction of
     *  those calls. */
    unsigned
    drainTo(std::uint64_t seq)
    {
        unsigned drained = 0;
        while (!queue.empty() && queue.front().seq + cfg.delay <= seq) {
            pred.injectHistoryBit(queue.front().bit);
            ++inserted;
            ++drained;
            queue.pop_front();
        }
        return drained;
    }

    /**
     * drainTo() with the base predictor supplied by its concrete
     * static type, so injectHistoryBit binds without a virtual
     * dispatch per bit - the batched replay loop's variant. @p p MUST
     * be the very predictor this PGU was constructed over (asserted);
     * the qualified call then lands on exactly the override the
     * virtual call would have picked.
     */
    template <typename P>
    unsigned
    drainToAs(P &p, std::uint64_t seq)
    {
        pabp_assert(static_cast<BranchPredictor *>(&p) == &pred);
        unsigned drained = 0;
        while (!queue.empty() && queue.front().seq + cfg.delay <= seq) {
            p.P::injectHistoryBit(queue.front().bit);
            ++inserted;
            ++drained;
            queue.pop_front();
        }
        return drained;
    }

    std::uint64_t bitsInserted() const { return inserted; }
    std::uint64_t pendingBits() const { return queue.size(); }
    const PguConfig &config() const { return cfg; }
    void reset();

    /** @name Replay-schedule state exchange (core/engine.cc)
     * The batched replay loop keys its per-trace schedule cache on
     * the exact pending queue (packed seq << 1 | bit, the schedule's
     * stream encoding) and, on a hit, commits the un-drained stream
     * suffix straight back as the queue - the same bytes the batch
     * view's commit() would have produced.
     * @{ */
    void
    exportQueuePacked(std::vector<std::uint64_t> &out) const
    {
        out.clear();
        queue.forEach([&](const Pending &p) {
            out.push_back((p.seq << 1) |
                          static_cast<std::uint64_t>(p.bit ? 1 : 0));
        });
    }

    void
    commitCachedBatch(const std::uint64_t *packedLeft, std::size_t n,
                      std::uint64_t injected)
    {
        queue.clear();
        for (std::size_t i = 0; i < n; ++i)
            queue.push_back(
                Pending{packedLeft[i] >> 1, (packedLeft[i] & 1) != 0});
        inserted += injected;
    }
    /** @} */

    /** Zero the insertion counter; the pending queue (state, not a
     *  statistic) survives. Engine resetStats() delegates here - it
     *  used to forget to, so a reused engine carried the previous
     *  cell's bit count into the next one. */
    void resetStats() { inserted = 0; }

    void
    registerStats(StatGroup &group, const std::string &prefix)
    {
        group.gauge(prefix + "bits_inserted",
                    [this] { return inserted; });
        group.gauge(prefix + "pending_bits",
                    [this] { return queue.size(); });
    }

    /** One queued history bit (public so PguBatchView's scratch
     *  buffer can name it; the queue itself stays private). */
    struct Pending
    {
        std::uint64_t seq;
        bool bit;
    };

  private:
    BranchPredictor &pred;
    PguConfig cfg;
    RingQueue<Pending> queue;
    std::uint64_t inserted = 0;

    friend class PguBatchView;
};

/**
 * Flat-buffer overlay over a PGU for one batch of the replay loop.
 *
 * The reference path pays a RingQueue push per observed define and a
 * pop per injected bit, plus a DynInst materialisation just to call
 * observe(). Within a batch the queue is pure FIFO traffic whose
 * ordering is only observable at the drain points (immediately before
 * each branch prediction) and in the queue contents left behind at
 * commit; a flat vector with a drain cursor reproduces both exactly. begin() snapshots the
 * PGU's pending queue into the caller's scratch vector; observe()
 * appends from the decoded-trace lanes without building a DynInst;
 * drainTo() walks the cursor forward, injecting ripened bits with a
 * devirtualised call; commit() writes the surviving suffix back as
 * the PGU's queue and settles the insertion counter - byte-for-byte
 * the state the reference call sequence would have left.
 */
class PguBatchView
{
  public:
    using Pending = PredicateGlobalUpdate::Pending;

    /**
     * Start a batch over @p p, spilling into caller-owned @p storage
     * (grown here to the carried queue plus @p batchExtra entries, an
     * upper bound on the batch's own bits, and reused across batches
     * so the allocation amortises away). Pre-sizing is what lets
     * observe() append with a plain store plus a flag-add instead of
     * a capacity-checked push: the define kernel's appends are
     * data-dependent (guard-false compares contribute nothing), and a
     * conditional ADD is invisible to the host branch predictor where
     * a conditional push is a mispredict per irregular define.
     */
    void
    begin(PredicateGlobalUpdate &p, std::unique_ptr<Pending[]> &storage,
          std::size_t &capacity, std::size_t batchExtra)
    {
        const std::size_t need = p.queue.size() + batchExtra;
        if (capacity < need) {
            storage = std::make_unique_for_overwrite<Pending[]>(need);
            capacity = need;
        }
        pgu = &p;
        q = storage.get();
        n = 0;
        cursor = 0;
        injected = 0;
        p.queue.forEach([this](const Pending &pend) { q[n++] = pend; });
    }

    /**
     * Pre-resolve, per static instruction, everything observe() needs
     * from the Inst under this PGU configuration: 0 = contributes no
     * history bit (wrong opcode, or outside a region under
     * RegionCmps), 1 = compare, 2|immBit = pset (the pset's inserted
     * value is its immediate's low bit, baked into the kind). The
     * define kernel then indexes one byte per dynamic define instead
     * of loading and re-classifying the instruction every time.
     */
    void
    buildKinds(const std::vector<Inst> &insts,
               std::vector<std::uint8_t> &kinds) const
    {
        const PguConfig &cfg = pgu->cfg;
        kinds.resize(insts.size());
        for (std::size_t pc = 0; pc < insts.size(); ++pc) {
            const Inst &inst = insts[pc];
            const bool is_cmp = inst.op == Opcode::Cmp;
            const bool is_pset = inst.op == Opcode::PSet;
            std::uint8_t k = 0;
            if ((is_cmp || (is_pset && cfg.includePSet)) &&
                !(cfg.source == PguSource::RegionCmps &&
                  inst.regionId < 0))
                k = is_cmp ? 1
                           : static_cast<std::uint8_t>(
                                 2 | (inst.imm & 1));
            kinds[pc] = k;
        }
    }

    /**
     * PredicateGlobalUpdate::observe() fed straight from the trace
     * lanes: @p kind is the instruction's buildKinds() byte, @p flags
     * and @p predVal use the RecordedTrace::Event packing (bit0 guard
     * / bits2-3 numPredWrites; predVal bit0/1 write values, bit2
     * cmpRel). The single-bit configurations append branchlessly
     * (unconditional store into the pre-sized buffer, conditional
     * length bump); only the rarely-used BothWrites keeps a loop.
     */
    PABP_ALWAYS_INLINE void
    observe(std::uint64_t seq, std::uint8_t kind, std::uint8_t flags,
            std::uint8_t predVal)
    {
        switch (pgu->cfg.value) {
          case PguValue::Rel: {
            // Guarded cmp inserts the comparison outcome; guarded
            // pset inserts its immediate bit (pre-baked in the kind).
            const bool push = kind != 0 && (flags & 1);
            q[n] = Pending{seq, kind == 1 ? ((predVal >> 2) & 1) != 0
                                          : (kind & 1) != 0};
            n += push;
            break;
          }
          case PguValue::FirstWrite: {
            const bool push = kind != 0 && ((flags >> 2) & 3) > 0;
            q[n] = Pending{seq, (predVal & 1) != 0};
            n += push;
            break;
          }
          case PguValue::BothWrites: {
            if (kind == 0)
                break;
            const unsigned numWrites = (flags >> 2) & 3;
            for (unsigned i = 0; i < numWrites; ++i)
                q[n++] = Pending{seq, ((predVal >> i) & 1) != 0};
            break;
          }
        }
    }

    /**
     * drainToAs() over the snapshot: inject every bit resolved by
     * @p seq into @p p, which MUST be the PGU's own base predictor
     * (asserted). With a concrete P the inject binds statically;
     * P = BranchPredictor falls back to the virtual call.
     */
    template <typename P>
    PABP_ALWAYS_INLINE unsigned
    drainTo(P &p, std::uint64_t seq)
    {
        pabp_assert(static_cast<BranchPredictor *>(&p) == &pgu->pred);
        const std::uint64_t delay = pgu->cfg.delay;
        unsigned drained = 0;
        while (cursor < n && q[cursor].seq + delay <= seq) {
            if constexpr (std::is_same_v<P, BranchPredictor>)
                p.injectHistoryBit(q[cursor].bit);
            else
                p.P::injectHistoryBit(q[cursor].bit);
            ++cursor;
            ++drained;
        }
        injected += drained;
        return drained;
    }

    /** @name The batch's full drain stream (carried queue + appended
     *  bits) - what a replay schedule captures before commit().
     *  @{ */
    const Pending *streamData() const { return q; }
    std::size_t streamSize() const { return n; }
    /** @} */

    /** Write the un-drained suffix back as the PGU queue and settle
     *  the bits-inserted statistic. */
    void
    commit()
    {
        pgu->queue.clear();
        for (std::size_t i = cursor; i < n; ++i)
            pgu->queue.push_back(q[i]);
        pgu->inserted += injected;
        pgu = nullptr;
        q = nullptr;
    }

  private:
    PredicateGlobalUpdate *pgu = nullptr;
    Pending *q = nullptr;
    std::size_t n = 0;
    std::size_t cursor = 0;
    std::uint64_t injected = 0;
};

} // namespace pabp

#endif // PABP_CORE_PGU_HH
