#include "engine/warp_engine.hh"

#include "common/contract.hh"
#include "common/logging.hh"

namespace mmgpu::engine
{

WarpEngine::WarpEngine(const mem::MemConfig &config,
                       unsigned warp_slots_per_sm,
                       std::vector<sm::SmCore> &sms,
                       Calendar &calendar, MemPipeline &pipeline,
                       const CtaPolicy &policy, unsigned gpm_count)
    : cfg_(config), warpSlotsPerSm_(warp_slots_per_sm), sms_(sms),
      calendar_(calendar), pipeline_(pipeline), policy_(policy),
      gpmCount_(gpm_count)
{
}

void
WarpEngine::resetRun()
{
    instrs_.fill(0);
    profile_ = nullptr;
    program_.reset();
}

std::string
WarpEngine::auditDrained() const
{
    for (const WarpSlot &slot : slots_) {
        if (slot.live)
            return "warp slot live after calendar drain";
        if (slot.outstanding != 0) {
            return "warp slot retains " +
                   std::to_string(slot.outstanding) +
                   " outstanding accesses";
        }
    }
    for (unsigned left : ctaWarpsLeft_) {
        if (left != 0)
            return "undrained CTA";
    }
    return {};
}

void
WarpEngine::pushWarp(noc::Tick when, std::uint32_t slot)
{
    calendar_.schedule(when, slot, /*is_mem=*/false);
}

void
WarpEngine::beginLaunch(const trace::KernelProfile &profile,
                        const trace::SegmentLayout &layout,
                        unsigned launch, noc::Tick start)
{
    unsigned total_sms = static_cast<unsigned>(sms_.size());
    unsigned total_slots = total_sms * warpSlotsPerSm_;
    program_.emplace(profile, layout, launch);
    lanesPerWarp_ = program_->lanesPerWarp();
    lanes_.resize(std::size_t{total_slots} * lanesPerWarp_);
    slots_.resize(total_slots);
    calendar_.reserve(total_slots);
    freeSlotsPerSm_.resize(total_sms);
    for (unsigned s = 0; s < total_sms; ++s) {
        freeSlotsPerSm_[s].clear();
        for (unsigned k = 0; k < warpSlotsPerSm_; ++k)
            freeSlotsPerSm_[s].push_back(s * warpSlotsPerSm_ + k);
    }

    ctaQueues_.clear();
    for (auto &list : policy_.assign(profile.ctaCount, gpmCount_))
        ctaQueues_.emplace_back(std::move(list));
    ctaWarpsLeft_.assign(profile.ctaCount, 0);

    profile_ = &profile;

    for (unsigned s = 0; s < total_sms; ++s)
        fillSm(s, start);
}

void
WarpEngine::endLaunch()
{
    profile_ = nullptr;
    program_.reset();
}

void
WarpEngine::fillSm(unsigned sm_id, noc::Tick t)
{
    const trace::KernelProfile &profile = *profile_;
    sm::SmCore &core = sms_[sm_id];
    unsigned gpm = core.gpm();
    while (core.freeSlots() >= profile.warpsPerCta &&
           ctaQueues_[gpm].hasWork()) {
        unsigned cta = ctaQueues_[gpm].pop();
        core.reserveSlots(profile.warpsPerCta);
        ctaWarpsLeft_[cta] = profile.warpsPerCta;
        // One calendar batch per CTA: every warp's first event lands
        // at the same tick t, in slot order — scheduleBatch() places
        // them exactly as warp-by-warp schedule() calls would.
        batchScratch_.clear();
        for (unsigned w = 0; w < profile.warpsPerCta; ++w) {
            mmgpu_assert(!freeSlotsPerSm_[sm_id].empty(),
                         "free-slot list disagrees with SmCore");
            unsigned slot_id = freeSlotsPerSm_[sm_id].back();
            freeSlotsPerSm_[sm_id].pop_back();
            WarpSlot &slot = slots_[slot_id];
            program_->bind(slot.trace, lanesOf(slot_id), cta, w);
            slot.sm = sm_id;
            slot.cta = cta;
            slot.outstanding = 0;
            slot.blocked = WarpBlock::None;
            slot.replay.reset();
            slot.live = true;
            batchScratch_.push_back({t, slot_id, /*isMem=*/false});
        }
        calendar_.scheduleBatch(batchScratch_.data(),
                                batchScratch_.size());
    }
}

void
WarpEngine::loadDone(std::uint32_t warp_slot, noc::Tick t)
{
    WarpSlot &slot = slots_[warp_slot];
    mmgpu_assert(slot.outstanding > 0, "warp outstanding underflow");
    slot.outstanding -= 1;

    if (slot.blocked == WarpBlock::Window) {
        slot.blocked = WarpBlock::None;
        hooks_.warpWakes->add();
        pushWarp(t, warp_slot);
    } else if (slot.blocked == WarpBlock::Drain &&
               slot.outstanding == 0) {
        slot.blocked = WarpBlock::None;
        hooks_.warpWakes->add();
        pushWarp(t, warp_slot);
    }
}

void
WarpEngine::step(std::uint32_t slot_index, noc::Tick t)
{
    const trace::KernelProfile &profile = *profile_;
    WarpSlot &slot = slots_[slot_index];
    mmgpu_assert(slot.live, "event for dead warp slot");
    sm::SmCore &core = sms_[slot.sm];
    unsigned gpm = core.gpm();

    isa::TraceOp op;
    if (slot.replay) {
        op = *slot.replay;
        slot.replay.reset();
    } else {
        op = program_->next(slot.trace, lanesOf(slot_index));
    }

    switch (op.kind) {
      case isa::TraceOpKind::Compute: {
        instrs_[static_cast<std::size_t>(op.op)] += 1;
        noteInstr(t, op.op);
        noc::Tick issued = core.acquireIssue(t, isa::issueCost(op.op));
        pushWarp(issued +
                     static_cast<double>(isa::defaultLatency(op.op)),
                 slot_index);
        break;
      }
      case isa::TraceOpKind::ComputeBlock: {
        for (const auto &mix : profile.compute) {
            instrs_[static_cast<std::size_t>(mix.op)] +=
                mix.perIteration;
            noteInstr(t, mix.op,
                      static_cast<double>(mix.perIteration));
        }
        noc::Tick issued = core.acquireIssue(t, op.blockSlots());
        pushWarp(issued + static_cast<double>(op.blockLatency()),
                 slot_index);
        break;
      }
      case isa::TraceOpKind::Load: {
        if (op.op == isa::Opcode::LD_SHARED) {
            instrs_[static_cast<std::size_t>(op.op)] += 1;
            pipeline_.counters().txns[static_cast<std::size_t>(
                isa::TxnLevel::SharedToReg)] += 1;
            noteInstr(t, op.op);
            if (hooks_.txn) {
                hooks_.txn->addAt(
                    t,
                    static_cast<std::size_t>(
                        isa::TxnLevel::SharedToReg),
                    1.0);
            }
            noc::Tick issued = core.acquireIssue(t, 1);
            pushWarp(issued +
                         static_cast<double>(cfg_.sharedLatency),
                     slot_index);
            break;
        }
        // Enforce the memory-level-parallelism window: if full, park
        // the warp; a load completion wakes it and the op replays.
        if (slot.outstanding >= profile.mlp) {
            slot.replay = op;
            slot.blocked = WarpBlock::Window;
            core.noteActive(t);
            hooks_.blockWindow->add();
            break;
        }
        MMGPU_INVARIANT(slot.outstanding < profile.mlp,
                        "MLP window bound violated");
        instrs_[static_cast<std::size_t>(op.op)] += 1;
        noteInstr(t, op.op);
        noc::Tick issued = core.acquireIssue(t, 1);
        slot.outstanding += 1;
        pipeline_.startGlobalAccess(issued, slot_index, slot.sm, gpm,
                                    op.addr, op.sectors, false);
        pushWarp(issued, slot_index);
        break;
      }
      case isa::TraceOpKind::Store: {
        instrs_[static_cast<std::size_t>(op.op)] += 1;
        noteInstr(t, op.op);
        noc::Tick issued = core.acquireIssue(t, 1);
        pipeline_.startGlobalAccess(issued, invalidIndex, slot.sm,
                                    gpm, op.addr, op.sectors, true);
        pushWarp(issued, slot_index);
        break;
      }
      case isa::TraceOpKind::Sync: {
        if (slot.outstanding > 0) {
            slot.blocked = WarpBlock::Drain;
            core.noteActive(t);
            hooks_.blockDrain->add();
        } else {
            pushWarp(t, slot_index);
        }
        break;
      }
      case isa::TraceOpKind::Exit: {
        slot.live = false;
        core.releaseSlot(t);
        freeSlotsPerSm_[slot.sm].push_back(slot_index);
        mmgpu_assert(ctaWarpsLeft_[slot.cta] > 0, "CTA underflow");
        if (--ctaWarpsLeft_[slot.cta] == 0) {
            // CTA complete: backfill this SM.
            fillSm(slot.sm, t);
        }
        break;
      }
      default:
        mmgpu_panic("bad trace op kind");
    }
}

} // namespace mmgpu::engine
