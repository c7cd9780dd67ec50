#include "trace/warp_trace.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mmgpu::trace
{

namespace
{

/** Round @p v up to a multiple of @p align. */
std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) / align * align;
}

} // namespace

SegmentLayout::SegmentLayout(const KernelProfile &profile)
{
    // Start at one page so that address 0 is never a valid address.
    std::uint64_t cursor = pageBytes;
    for (const auto &segment : profile.segments) {
        bases.push_back(cursor);
        Bytes size = alignUp(segment.bytes, pageBytes);
        sizes.push_back(size);
        cursor += size;
    }
    end_ = cursor;
}

std::uint64_t
SegmentLayout::base(unsigned index) const
{
    mmgpu_assert(index < bases.size(), "segment index out of range");
    return bases[index];
}

Bytes
SegmentLayout::size(unsigned index) const
{
    mmgpu_assert(index < sizes.size(), "segment index out of range");
    return sizes[index];
}

unsigned
chunkOwnerCta(const KernelProfile &profile, const SegmentLayout &layout,
              unsigned seg, std::uint64_t addr)
{
    std::uint64_t base = layout.base(seg);
    Bytes size = layout.size(seg);
    mmgpu_assert(addr >= base && addr < base + size,
                 "address outside segment");
    Bytes chunk = alignUp(
        std::max<Bytes>(size / profile.ctaCount, isa::cacheLineBytes),
        isa::cacheLineBytes);
    std::uint64_t cta = (addr - base) / chunk;
    return static_cast<unsigned>(
        std::min<std::uint64_t>(cta, profile.ctaCount - 1));
}

WarpProgram::WarpProgram(const KernelProfile &prof,
                         const SegmentLayout &layout, unsigned launch)
    : launchRng(Rng(prof.seed).fork(0x1000003ull * launch + 1)),
      iterations(prof.iterations), ctaCount(prof.ctaCount),
      warpsPerCta(prof.warpsPerCta)
{
    // Each access's geometry: the segment, its CTA-partitioned
    // chunks (line aligned) and a warp's slice of a chunk.
    auto push_access = [&](const SegmentAccess &access, bool is_store) {
        std::uint64_t seg_base = layout.base(access.segment);
        Bytes seg_size = layout.size(access.segment);
        Bytes chunk = alignUp(
            std::max<Bytes>(seg_size / prof.ctaCount,
                            isa::cacheLineBytes),
            isa::cacheLineBytes);
        Bytes slice = alignUp(
            std::max<Bytes>(chunk / prof.warpsPerCta,
                            isa::cacheLineBytes),
            isa::cacheLineBytes);
        accesses.push_back({seg_base, seg_size,
                            seg_size / isa::cacheLineBytes, chunk, slice,
                            slice / isa::cacheLineBytes, access.irregular,
                            access.divergence, access.haloFraction,
                            std::max(1u, access.haloStride),
                            access.pattern, is_store});
    };
    for (const auto &access : prof.loads)
        push_access(access, false);
    for (const auto &access : prof.stores)
        push_access(access, true);

    // Build the per-iteration schedule: global loads (memory-level
    // parallelism is enforced by the simulator's per-warp outstanding
    // window, not by explicit syncs), shared loads, one aggregated
    // compute block, stores.
    for (std::uint32_t i = 0; i < prof.loads.size(); ++i) {
        for (unsigned n = 0; n < prof.loads[i].perIteration; ++n)
            schedule.push_back({StepKind::Access, i});
    }

    for (unsigned n = 0; n < prof.sharedLoadsPerIter; ++n)
        schedule.push_back({StepKind::SharedLoad, 0});

    // Aggregate the compute mix into one dependent-chain block: the
    // block charges the SM issue pipeline for every instruction and
    // delays the warp by the serial chain latency.
    std::uint32_t block_slots = 0;
    std::uint32_t block_latency = 0;
    for (const auto &mix : prof.compute) {
        block_slots += mix.perIteration * isa::issueCost(mix.op);
        block_latency += mix.perIteration * isa::defaultLatency(mix.op);
    }
    if (block_slots > 0) {
        schedule.push_back({StepKind::ComputeBlock, 0});
        blockOp = isa::TraceOp::computeBlock(block_slots, block_latency);
    }

    const auto first_store = static_cast<std::uint32_t>(prof.loads.size());
    for (std::uint32_t i = 0; i < prof.stores.size(); ++i)
        for (unsigned n = 0; n < prof.stores[i].perIteration; ++n)
            schedule.push_back({StepKind::Access, first_store + i});

    mmgpu_assert(!schedule.empty(),
                 "profile '", prof.name, "' generates empty warps");
}

void
WarpProgram::bind(WarpState &state, AccessLane *lanes, unsigned cta,
                  unsigned warp) const
{
    mmgpu_assert(cta < ctaCount && warp < warpsPerCta,
                 "warp identifiers out of range");
    state = WarpState{launchRng.fork(0x9E370001ull * cta + 3)
                          .fork(0x85EBCA77ull * warp + 7)};
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        const AccessGeometry &access = accesses[i];
        auto chunk_base = [&](unsigned owner) {
            return access.segBase +
                   (static_cast<std::uint64_t>(owner) * access.chunk) %
                       access.segSize; // wrap tiny segments
        };
        unsigned up = (cta + access.haloStride) % ctaCount;
        unsigned down =
            (cta + ctaCount - access.haloStride % ctaCount) % ctaCount;
        // Iterative apps: every launch re-walks the same bytes, so
        // position restarts at 0 for all launches by construction.
        lanes[i] = {chunk_base(cta) +
                        static_cast<std::uint64_t>(warp) * access.slice,
                    0, chunk_base(up), chunk_base(down)};
    }
}

namespace
{

/**
 * (pos + step) % limit for the streaming walks, where pos < limit
 * and step <= limit always hold — so the modulo is a single
 * compare-and-subtract instead of a hardware 64-bit division.
 */
inline std::uint64_t
wrapAdvance(std::uint64_t pos, std::uint64_t step, std::uint64_t limit)
{
    pos += step;
    return pos >= limit ? pos - limit : pos;
}

} // namespace

isa::TraceOp
WarpProgram::makeAccess(const AccessGeometry &access, AccessLane &lane,
                        Rng &rng)
{
    std::uint64_t addr = 0;
    std::uint8_t sectors = 4; // fully coalesced 128 B line

    const Bytes line = isa::cacheLineBytes;
    AccessPattern pattern = access.pattern;
    if (access.irregular > 0.0 && rng.chance(access.irregular))
        pattern = AccessPattern::Random;
    switch (pattern) {
      case AccessPattern::BlockStream:
        addr = lane.sliceBase + lane.position;
        lane.position = wrapAdvance(lane.position, line, access.slice);
        break;
      case AccessPattern::Stencil:
        if (rng.chance(access.haloFraction)) {
            std::uint64_t base =
                rng.chance(0.5) ? lane.haloUpBase : lane.haloDownBase;
            addr = base + rng.below(access.sliceLines) * line;
        } else {
            addr = lane.sliceBase + lane.position;
            lane.position =
                wrapAdvance(lane.position, line, access.slice);
        }
        break;
      case AccessPattern::Random:
      case AccessPattern::Chase:
        addr = access.segBase + rng.below(access.segLines) * line;
        break;
      case AccessPattern::Broadcast:
        addr = access.segBase + lane.position;
        lane.position = wrapAdvance(lane.position, line, access.segSize);
        break;
      default:
        mmgpu_panic("bad access pattern");
    }

    if (access.divergence > 0.0 && rng.chance(access.divergence))
        sectors = 8;

    // Keep divergent footprints inside the segment.
    std::uint64_t span_end = access.segBase + access.segSize;
    if (addr + sectors * isa::sectorBytes > span_end)
        addr = span_end - sectors * isa::sectorBytes;

    if (access.isStore)
        return isa::TraceOp::storeGlobal(addr, sectors);
    return isa::TraceOp::loadGlobal(addr, sectors);
}

isa::TraceOp
WarpProgram::materialize(WarpState &state, AccessLane *lanes,
                         Step step) const
{
    switch (step.kind) {
      case StepKind::ComputeBlock:
        return blockOp;
      case StepKind::SharedLoad:
        return isa::TraceOp::loadShared();
      case StepKind::Access:
        return makeAccess(accesses[step.access], lanes[step.access],
                          state.rng);
      default:
        mmgpu_panic("bad schedule step");
    }
}

WarpTrace::WarpTrace(const KernelProfile &profile,
                     const SegmentLayout &layout, unsigned launch,
                     unsigned cta, unsigned warp)
    : program(profile, layout, launch), lanes(program.lanesPerWarp())
{
    program.bind(state, lanes.data(), cta, warp);
}

} // namespace mmgpu::trace
