/**
 * @file
 * The benchmark's three workloads, their seeded inputs, the reference
 * path their outputs are checked against, and one timed repetition of
 * each.
 *
 *  - paper-figures: the Figure 2/3 grid on sweep::runSweep plus the
 *    Figure 4 cells on coherence::CoherentMachine::run;
 *  - sampled-sweep: a SMARTS-sampled geometry grid on runSweep with
 *    live-point library sharing and multi-cache groups;
 *  - farm-store: the Figure 2/3 grid on farm::runFarm with local
 *    forked workers and a result store seeded with half the points.
 *
 * The seed reaches the simulator only as SweepPoint::seed and
 * coherence::KernelParams::seed.
 */

#ifndef IMO_PERFBENCH_WORKLOADS_HH
#define IMO_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/kernels.hh"
#include "farm/farm.hh"
#include "spans.hh"
#include "sweep/sweep.hh"

namespace imo::perfbench
{

enum class Workload : std::uint8_t { PaperFigures, SampledSweep, FarmStore };

/** Throws SimException(BadConfig) for an unknown name. */
Workload parseWorkload(const std::string &name);
const char *workloadName(Workload w);

/** Default workload scale: sized so a repetition takes about a second
 *  on a 4-core host and the sampled grid stays well under 1 GB. */
double defaultScale(Workload w);

/** Everything the simulator is given, generated from the seed. */
struct Inputs
{
    Workload workload = Workload::PaperFigures;
    sweep::SweepGrid grid;
    bool fig4 = false; //!< run the Figure 4 cells too
    coherence::KernelParams kernels;
};

Inputs makeInputs(Workload w, std::uint64_t seed, double scale);

/** The Figure 4 cells: every kernel under every access method. */
std::vector<coherence::AccessMethod> fig4Methods();
const char *methodName(coherence::AccessMethod m);

/** Deterministic text of one Figure 4 result (the cell's report). */
std::string fig4Row(const coherence::CoherenceResult &r);

/**
 * Reference outputs for one set of inputs, from the reference path:
 * in-process runSweep, one dedicated run per point, no library
 * sharing, no multi-cache, no farm; Figure 4 cells run sequentially.
 */
struct Reference
{
    std::vector<std::string> points;        //!< writePointJson bytes
    std::vector<std::uint64_t> instructions; //!< functional totals
    std::vector<std::string> cells;         //!< fig4Row per cell
};

Reference computeReference(const Inputs &in, unsigned jobs);
void writeReference(const std::string &path, const Reference &ref);
Reference readReference(const std::string &path);

/** Report bytes of one outcome (writePointJson). */
std::string pointJson(const sweep::SweepOutcome &o);

/** Whether an outcome reports ok. */
bool outcomeOk(const sweep::SweepOutcome &o);

/** What one repetition measured. */
struct RepResult
{
    double wallS = 0.0;  //!< first layer call -> verified report
    double setupS = 0.0; //!< farm-store: first layer call -> first grant
    std::vector<double> pointMs; //!< per-point host latency
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; //!< not ok, or bytes differ from reference

    // Raw material for per-layer metrics.
    std::int64_t poolStartNs = 0; //!< the call running the points
    std::int64_t poolEndNs = 0;
    std::vector<sweep::PointTiming> timings; //!< runSweep's records
    std::uint64_t libReused = 0;
    std::vector<sweep::SweepOutcome> outcomes; //!< sweep workloads
    std::vector<coherence::CoherenceResult> cells;
    farm::FarmStats farmStats;
    std::vector<farm::SlotRecord> slots;
    std::uint64_t farmElapsedMs = 0;
    std::uint64_t simulateMsSum = 0; //!< worker-reported, leased slots
};

struct RepContext
{
    const Inputs &in;
    const Reference &ref;
    unsigned jobs = 4;
    Tracer &tracer;
    std::string workDir; //!< scratch space for result stores
    /** paper-figures only: run each point as build -> instrument ->
     *  simulate calls from the benchmark (one span each) instead of
     *  one runSweep call. Same work, same bytes. */
    bool decomposed = false;
};

RepResult runRep(const RepContext &ctx, std::uint32_t rep);

/**
 * Set-up time of a runSweep workload: a repetition's set-up followed
 * by runSweep() with every point cancelled, which returns where the
 * first point would have started (planning, pool spawn). Timed to the
 * ns, unlike the library's whole-ms per-point records. Not for
 * farm-store, whose repetitions time their set-up to the first lease
 * grant.
 */
double measureSetup(const RepContext &ctx);

} // namespace imo::perfbench

#endif // IMO_PERFBENCH_WORKLOADS_HH
