/**
 * @file
 * On-the-fly, deterministic warp trace generation.
 *
 * A WarpProgram turns a KernelProfile into the concrete TraceOp
 * stream of each warp of one launch. The stream for (profile, launch,
 * cta, warp) depends only on those identifiers — never on simulation
 * interleaving — so every GPM-count/bandwidth/topology configuration
 * of an experiment replays the *same* application, which is what
 * makes the scaling comparisons meaningful.
 */

#ifndef MMGPU_TRACE_WARP_TRACE_HH
#define MMGPU_TRACE_WARP_TRACE_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "isa/instruction.hh"
#include "trace/kernel_profile.hh"

namespace mmgpu::trace
{

/**
 * Byte layout of a profile's segments in the simulated global address
 * space. Segments are laid out contiguously, each aligned to a page,
 * starting at a non-zero base so that address 0 stays invalid.
 */
class SegmentLayout
{
  public:
    /** Page size used for alignment and first-touch placement. */
    static constexpr Bytes pageBytes = 4096;

    /** Compute the layout for @p profile. */
    explicit SegmentLayout(const KernelProfile &profile);

    /** Base byte address of segment @p index. */
    std::uint64_t base(unsigned index) const;

    /** Size of segment @p index in bytes (page aligned up). */
    Bytes size(unsigned index) const;

    /** One past the highest mapped address. */
    std::uint64_t end() const { return end_; }

  private:
    std::vector<std::uint64_t> bases;
    std::vector<Bytes> sizes;
    std::uint64_t end_ = 0;
};

/**
 * The CTA that owns the chunk containing @p addr of segment @p seg
 * under the CTA-partitioned layout WarpProgram uses. Owner-CTA page
 * placement (= idealized first touch) and locality tests build on
 * this.
 */
unsigned chunkOwnerCta(const KernelProfile &profile,
                       const SegmentLayout &layout, unsigned seg,
                       std::uint64_t addr);

/**
 * One warp's stream state against one load or store of its program:
 * where the warp's slice of its CTA's chunk starts, how far it has
 * streamed, and its two halo neighbours' chunks.
 */
struct AccessLane
{
    std::uint64_t sliceBase = 0;    //!< the warp's slice of its chunk
    std::uint64_t position = 0;     //!< offset of the next streamed line
    std::uint64_t haloUpBase = 0;   //!< the +stride CTA's chunk
    std::uint64_t haloDownBase = 0; //!< the -stride CTA's chunk
};

/**
 * The rest of one warp's stream state: its random stream and where it
 * stands in the program. Together with its lanes this is all that
 * differs between the warps of a launch.
 */
struct WarpState
{
    Rng rng;
    std::uint32_t cursor = 0; //!< next step of the iteration
    unsigned iteration = 0;
    bool drained = false;  //!< the final sync has been produced
    bool finished = false; //!< Exit has been produced
};

/**
 * What the warps of one launch share: the per-iteration schedule, the
 * aggregated compute block and each access's segment geometry, built
 * once per launch. A warp is bound to it as a WarpState plus
 * lanesPerWarp() AccessLane records that the caller owns, so a
 * machine keeps every warp's stream state inline instead of one
 * trace object per warp.
 */
class WarpProgram
{
  public:
    /**
     * @param profile Kernel description (copied from; need not
     *                outlive the program).
     * @param layout Segment layout of @p profile.
     * @param launch Kernel launch index (affects nothing but the
     *               random streams of Random/Chase patterns, so
     *               iterative apps re-touch the same pages).
     */
    WarpProgram(const KernelProfile &profile, const SegmentLayout &layout,
                unsigned launch);

    /** Lanes one bound warp needs: one per load and store. */
    std::size_t lanesPerWarp() const { return accesses.size(); }

    /**
     * Start warp @p warp of thread block @p cta: reset @p state and
     * fill @p lanes, lanesPerWarp() of them.
     */
    void bind(WarpState &state, AccessLane *lanes, unsigned cta,
              unsigned warp) const;

    /**
     * Produce the next trace operation of the warp bound to @p state
     * and @p lanes.
     * @return the op; TraceOpKind::Exit once the warp is finished
     *         (and forever after).
     *
     * Inline: the bookkeeping half (finish/drain checks, cursor
     * walk) folds into the warp engine's step loop; only the
     * per-kind materialization stays out of line.
     */
    isa::TraceOp
    next(WarpState &state, AccessLane *lanes) const
    {
        if (state.finished)
            return isa::TraceOp::exit();
        if (state.iteration >= iterations) {
            if (!state.drained) {
                // Wait for all in-flight loads before retiring.
                state.drained = true;
                return isa::TraceOp::sync();
            }
            state.finished = true;
            return isa::TraceOp::exit();
        }
        isa::TraceOp op = materialize(state, lanes, schedule[state.cursor]);
        if (++state.cursor >= schedule.size()) {
            state.cursor = 0;
            ++state.iteration;
        }
        return op;
    }

  private:
    /** Kind of one step of the per-iteration schedule. */
    enum class StepKind : std::uint8_t
    {
        ComputeBlock,
        SharedLoad,
        Access, //!< a global load or store
    };

    struct Step
    {
        StepKind kind;
        std::uint32_t access; //!< index into accesses (Access only)
    };

    /** One load's or store's stream, the part every warp shares. */
    struct AccessGeometry
    {
        std::uint64_t segBase;    //!< whole-segment base
        Bytes segSize;            //!< whole-segment size
        std::uint64_t segLines;   //!< segSize in cache lines
        Bytes chunk;              //!< one CTA's chunk of the segment
        Bytes slice;              //!< one warp's slice of a chunk
        std::uint64_t sliceLines; //!< slice in cache lines
        double irregular;
        double divergence;
        double haloFraction;
        unsigned haloStride; //!< at least 1
        AccessPattern pattern;
        bool isStore;
    };

    isa::TraceOp materialize(WarpState &state, AccessLane *lanes,
                             Step step) const;
    static isa::TraceOp makeAccess(const AccessGeometry &access,
                                   AccessLane &lane, Rng &rng);

    std::vector<Step> schedule;
    std::vector<AccessGeometry> accesses; //!< loads, then stores
    isa::TraceOp blockOp; //!< the shared per-iteration compute block
    Rng launchRng;        //!< the launch's fork of the profile seed
    unsigned iterations;
    unsigned ctaCount;
    unsigned warpsPerCta;
};

/**
 * The TraceOp stream of a single warp, standalone: a private
 * WarpProgram with one warp bound to it. For tests and tools that
 * look at one warp; the simulator binds its warps to one shared
 * program per launch instead.
 */
class WarpTrace
{
  public:
    /**
     * @param profile Kernel description.
     * @param layout Segment layout of @p profile.
     * @param launch Kernel launch index.
     * @param cta Thread block id within the launch.
     * @param warp Warp id within the block.
     */
    WarpTrace(const KernelProfile &profile, const SegmentLayout &layout,
              unsigned launch, unsigned cta, unsigned warp);

    /** Produce the next trace operation (see WarpProgram::next). */
    isa::TraceOp next() { return program.next(state, lanes.data()); }

    /** @return true once Exit has been produced. */
    bool finished() const { return state.finished; }

  private:
    WarpProgram program;
    WarpState state;
    std::vector<AccessLane> lanes;
};

} // namespace mmgpu::trace

#endif // MMGPU_TRACE_WARP_TRACE_HH
