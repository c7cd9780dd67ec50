/**
 * @file
 * The warp-scheduling half of the simulation engine.
 *
 * WarpEngine owns the resident warp contexts (slots), dispatches
 * CTAs to SMs through a pluggable CtaPolicy, replays each warp's
 * trace operation by operation against SM issue bandwidth, and
 * enforces the memory-level-parallelism window. Global loads and
 * stores are handed to the MemPipeline; completions come back
 * through the WarpWaker interface, which wakes parked warps.
 *
 * Each launch builds one trace::WarpProgram that all its warps
 * share. A slot holds its warp's stream state by value, and the
 * warp's access lanes sit in one slot-major vector, so stepping a
 * warp touches its slot, its run of lanes and the shared program.
 * The slot and lane vectors persist across launches and runs (the SM
 * geometry is fixed at construction; the lanes are resized to each
 * launch's program), and fillSm() rebinds them in place on every
 * dispatch. The free-slot lists are rebuilt in slot order each
 * launch so dispatch order never depends on the previous launch's
 * completion order — a prerequisite for bit-identical machine
 * reuse.
 */

#ifndef MMGPU_ENGINE_WARP_ENGINE_HH
#define MMGPU_ENGINE_WARP_ENGINE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hh"
#include "engine/calendar.hh"
#include "engine/component.hh"
#include "engine/cta_policy.hh"
#include "engine/mem_pipeline.hh"
#include "sm/sm_core.hh"
#include "telemetry/telemetry.hh"
#include "trace/kernel_profile.hh"
#include "trace/warp_trace.hh"

namespace mmgpu::engine
{

/** The warp-scheduling engine of one machine. */
class WarpEngine : public Component, public WarpWaker
{
  public:
    /** Index value meaning "no warp slot". */
    static constexpr std::uint32_t invalidIndex =
        MemPipeline::invalidIndex;

    /**
     * Telemetry hooks, null while detached. Counter hooks are
     * branch-free in the hot path: setTelemetryHooks() redirects a
     * null Counter to a per-engine discard sink, so step()/loadDone()
     * always add unconditionally. Sampler hooks stay branch-on-null —
     * addAt() does real binning work that a sink could not absorb.
     */
    struct TelemetryHooks
    {
        telemetry::Counter *blockWindow = nullptr;
        telemetry::Counter *blockDrain = nullptr;
        telemetry::Counter *warpWakes = nullptr;
        telemetry::ActivitySampler *instr = nullptr;
        telemetry::ActivitySampler *txn = nullptr;
    };

    /**
     * @param config Latency slice of the machine config (shared-
     *        memory latency).
     * @param warp_slots_per_sm Resident warp contexts per SM.
     * @param sms The machine's SM cores (not owned; geometry fixed).
     * @param calendar The machine's event calendar (not owned).
     * @param pipeline Memory pipeline global accesses issue into.
     * @param policy CTA-to-GPM scheduling policy (not owned).
     * @param gpm_count Number of GPU modules.
     */
    WarpEngine(const mem::MemConfig &config,
               unsigned warp_slots_per_sm,
               std::vector<sm::SmCore> &sms, Calendar &calendar,
               MemPipeline &pipeline, const CtaPolicy &policy,
               unsigned gpm_count);

    /**
     * Prepare launch @p launch of @p profile starting at @p start:
     * build the launch's warp program, rebuild the free-slot lists,
     * fill the per-GPM CTA queues via the policy, and dispatch the
     * initial CTAs (pushing each resident warp's first event at
     * @p start). @p profile must stay alive until endLaunch().
     */
    void beginLaunch(const trace::KernelProfile &profile,
                     const trace::SegmentLayout &layout,
                     unsigned launch, noc::Tick start);

    /** Drop the launch-scoped profile and warp program. */
    void endLaunch();

    /** Process one warp continuation for @p slot_index at @p t. */
    void step(std::uint32_t slot_index, noc::Tick t);

    // WarpWaker: a warp's load completed; wake it if parked.
    void loadDone(std::uint32_t warp_slot, noc::Tick t) override;

    /** Per-opcode warp instruction counts accumulated this run. */
    const std::array<Count, isa::numOpcodes> &
    instrs() const
    {
        return instrs_;
    }

    /** Refresh the telemetry hooks (default-constructed detaches). */
    void setTelemetryHooks(const TelemetryHooks &hooks)
    {
        hooks_ = hooks;
        if (!hooks_.blockWindow)
            hooks_.blockWindow = &nullCounter_;
        if (!hooks_.blockDrain)
            hooks_.blockDrain = &nullCounter_;
        if (!hooks_.warpWakes)
            hooks_.warpWakes = &nullCounter_;
    }

    // Component protocol.
    const char *componentName() const override { return "warp-engine"; }
    void resetRun() override;
    std::string auditDrained() const override;

  private:
    /** Why a warp is not schedulable right now. */
    enum class WarpBlock : std::uint8_t
    {
        None,   //!< runnable (an event is pending for it)
        Window, //!< MLP window full; woken by a load completion
        Drain,  //!< waiting for all outstanding loads (final sync)
    };

    /** A resident warp context bound to an SM warp slot. */
    struct WarpSlot
    {
        trace::WarpState trace; //!< lanes: see lanesOf()
        unsigned sm = 0; //!< flat SM id
        unsigned cta = 0;
        unsigned outstanding = 0; //!< loads in flight
        WarpBlock blocked = WarpBlock::None;
        std::optional<isa::TraceOp> replay;
        bool live = false;
    };

    void pushWarp(noc::Tick when, std::uint32_t slot);

    /** The access lanes of @p slot's warp. */
    trace::AccessLane *
    lanesOf(std::uint32_t slot)
    {
        return lanes_.data() + std::size_t{slot} * lanesPerWarp_;
    }

    /** Dispatch CTAs to @p sm while it has room; pushes warp events. */
    void fillSm(unsigned sm_id, noc::Tick t);

    /** Record one warp instruction of @p op at time @p t (hook). */
    void
    noteInstr(noc::Tick t, isa::Opcode op, double amount = 1.0)
    {
        if (hooks_.instr)
            hooks_.instr->addAt(t, static_cast<std::size_t>(op),
                                amount);
    }

    const mem::MemConfig &cfg_;
    unsigned warpSlotsPerSm_;
    std::vector<sm::SmCore> &sms_;
    Calendar &calendar_;
    MemPipeline &pipeline_;
    const CtaPolicy &policy_;
    unsigned gpmCount_;

    // Per-launch transient state. The containers persist across
    // launches and runs so their backing storage is allocated once
    // and reused; beginLaunch() re-initializes the *contents* each
    // launch.
    std::vector<WarpSlot> slots_;
    std::vector<trace::AccessLane> lanes_; //!< slot-major
    std::size_t lanesPerWarp_ = 0;
    std::vector<std::vector<unsigned>> freeSlotsPerSm_;
    std::vector<sm::GpmCtaQueue> ctaQueues_;
    std::vector<unsigned> ctaWarpsLeft_;
    std::vector<Event> batchScratch_; //!< fillSm's per-CTA batch

    /** Launch-scoped context for CTA backfill from step(). */
    const trace::KernelProfile *profile_ = nullptr;
    std::optional<trace::WarpProgram> program_;

    std::array<Count, isa::numOpcodes> instrs_{};

    /** Discard sink the Counter hooks point at while detached —
     *  per-engine, never shared, so parallel machines can't race. */
    telemetry::Counter nullCounter_;

    TelemetryHooks hooks_{&nullCounter_, &nullCounter_, &nullCounter_,
                          nullptr, nullptr};
};

} // namespace mmgpu::engine

#endif // MMGPU_ENGINE_WARP_ENGINE_HH
