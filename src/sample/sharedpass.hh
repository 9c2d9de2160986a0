/**
 * @file
 * The functional pass: the one loop that lays out SMARTS windows and
 * serves them to one or many machine configurations.
 *
 * The pass runs the program's functional stream once. At every window
 * boundary it fast-forwards the gap (with the pass's phase offset on
 * the first one), checks the stop flag, builds the warm image, buffers
 * the W+M window records once through WarmingTraceSource, and hands
 * (warm image, span) to one runWindow() per member. A dedicated
 * sampled run (Sampler::run) is a one-member pass; a sweep group is a
 * many-member pass. With one job the windows run in place as their
 * spans are buffered; with more (and one cache class), spans collect
 * into rounds of a fixed size that run on a thread pool, so memory
 * stays bounded whatever the program length. On request the pass also
 * takes a live point (executor image) at each boundary for a live-point
 * library, resumes from a checkpoint, and writes a final one.
 *
 * Two kinds of member set are eligible:
 *
 *  - a single cache class (members differ only in timing knobs such as
 *    memory latency or MSHR count): the executor already runs under
 *    every member's own geometry, so the buffered records are fed to
 *    each member unchanged — any program qualifies, informing modes
 *    included, because the Phase-A trace does not depend on timing;
 *  - several cache classes over a stream-invariant program (no
 *    cache-outcome-dependent operations, see sharedPassEligible()): the
 *    executor's raw reference stream feeds a memory::MultiCacheSim that
 *    classifies every access for every class simultaneously, and each
 *    data reference's service level is patched to the member's
 *    classification before its replay.
 *
 * Byte-identity argument, piece by piece:
 *  - the architectural stream (instructions, addresses, branch
 *    outcomes, traps, halt point) is the same for every member — by
 *    construction with one cache class, by stream invariance with
 *    several — so fast-forward gaps and window boundaries land on the
 *    same instructions as any dedicated run;
 *  - the warm accumulator only ever consumes conditional-branch
 *    outcomes, which are part of that stream, and all members share
 *    one predictor geometry, so the per-boundary warm images are the
 *    very bytes a dedicated pass would build;
 *  - a window's timing model consumes TraceRecords, whose only
 *    geometry-dependent field is `level`; with several classes the
 *    engine reproduces FunctionalHierarchy::access exactly (property-
 *    tested and IMO_PARANOID_XCHECK-replayed), so the patched records
 *    equal the records the member's own executor would have produced;
 *  - each window is a pure function of its warm image and span, and
 *    the pool writes each result into its span's slot, so the job
 *    count cannot change a sample or its order.
 *
 * Sampler::runFromWindowSamples() folds the per-member samples into
 * estimates indistinguishable from Sampler::run().
 */

#ifndef IMO_SAMPLE_SHAREDPASS_HH
#define IMO_SAMPLE_SHAREDPASS_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "memory/multicache.hh"
#include "pipeline/config.hh"
#include "pipeline/simulate.hh"
#include "sample/sample.hh"

namespace imo::sample
{

/** What a functional pass does besides producing window samples. */
struct PassRequest
{
    std::uint32_t pass = 0; //!< phase offset: first gap U + U*pass/maxPasses
    /** >1, with one cache class and no fault injector: windows run
     *  on a pool. */
    unsigned jobs = 1;
    bool capture = false;   //!< take a live point at every boundary
    /** Honoured as Sampler::run() documents: the stop flag, the resume
     *  image or checkpoint file, and (pass 0 only) checkpoint-out. */
    pipeline::SimulateOptions options;
};

/** Output of a functional pass: per-member window samples and exact
 *  totals, plus stream provenance for manifests. */
struct SharedPassResult
{
    /** samples[m] holds member m's windows in schedule order. */
    std::vector<std::vector<WindowSample>> samples;
    /** totals[m]: exact functional totals under member m's geometry. */
    std::vector<CaptureTotals> totals;
    std::uint64_t configs = 0;      //!< distinct (L1, L2) classes served
    std::uint64_t streamLength = 0; //!< demand references classified
    std::uint64_t prefetches = 0;   //!< prefetches observed

    std::vector<LivePoint> points; //!< one per boundary, with capture
    std::uint64_t resumedInstructions = 0; //!< resume image position
    /** The stop flag ended the pass: samples hold the windows that ran
     *  and totals are not set. */
    bool interrupted = false;
};

/** The distinct (L1, L2) cache geometries among a shared pass's
 *  members: one classification config per class, in first-appearance
 *  order. Members that differ only in latency or MSHR knobs share a
 *  class. */
struct CacheClasses
{
    std::vector<memory::MultiCacheConfig> configs;
    std::vector<std::size_t> classOf; //!< per member: index into configs
};

/** Derive the cache classes of @p members (the same classes, in the
 *  same order, that runSharedGeometryPass() classifies). */
CacheClasses cacheClasses(const std::vector<pipeline::MachineConfig> &members);

/**
 * Is @p program's reference stream geometry-invariant? True iff no
 * instruction's architectural effect can depend on a cache outcome:
 * the program must contain no BRMISS/BRMISS2 (branch on the miss
 * condition code) and no SETMHAR/SETMHARR/SETMHARPC (a nonzero MHAR
 * arms miss traps, which redirect control flow). Informing-mode
 * instrumented programs fail this; mode-None programs pass. Only a
 * shared pass over several cache classes needs it.
 */
bool sharedPassEligible(const isa::Program &program);

/**
 * Run one functional pass serving @p members: a sweep group's shared
 * pass, or with one member and a @p request, Sampler::run()'s own. All
 * members must share the machine kind, predictor geometry and
 * instruction budget (they are grid points differing in cache geometry
 * and timing knobs only), and either fall in one cacheClasses() class
 * or run a sharedPassEligible() @p program; throws
 * SimException(BadConfig) otherwise. Live points, the resume image and
 * the checkpoint hold the executor under members[0]'s geometry.
 * Deterministic: a pure function of the arguments, whatever
 * @p request.jobs.
 */
SharedPassResult
runSharedGeometryPass(const isa::Program &program,
                      const std::vector<pipeline::MachineConfig> &members,
                      const SampleParams &params,
                      const PassRequest &request = {});

} // namespace imo::sample

#endif // IMO_SAMPLE_SHAREDPASS_HH
