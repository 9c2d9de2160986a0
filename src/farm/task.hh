/**
 * @file
 * The farm's units of work.
 *
 * A Task is one content-addressed unit the coordinator leases: a whole
 * sweep point, a multi-cache point group run in one shared pass, or one
 * measurement window of a sampled point. This module is the only farm
 * code that knows the three kinds apart:
 *
 *   kind    store key       lease body             worker fragment
 *   Point   keyForPoint()   (none)                 report-JSON fragment
 *   Group   keyForGroup()   the other members      fragment bundle
 *   Window  keyForWindow()  the window's images    WindowSample encoding
 *
 * A Point task also serves its lead point's twins (points whose
 * simulation is the same): each twin keeps its own store key, and its
 * fragment is the lead's with the report head swapped.
 *
 * A planner turns a request into tasks plus the post-run assembly that
 * turns their fragments into report fragments: planPoints() splits
 * every group bundle back into member fragments and re-heads twins'
 * fragments, planWindows() folds the window samples into the point's
 * estimate. The coordinator and the worker session only move tasks,
 * leases, fragments and store records; neither branches on the kind.
 */

#ifndef IMO_FARM_TASK_HH
#define IMO_FARM_TASK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "farm/farm.hh"
#include "farm/proto.hh"
#include "farm/store.hh"
#include "sample/livepoint.hh"
#include "sweep/sweep.hh"

namespace imo::pipeline
{
class InOrderCpu;
class OooCpu;
} // namespace imo::pipeline

namespace imo::farm
{

using Fragment = std::vector<std::uint8_t>;

/** One content-addressed unit of farm work, as the coordinator holds
 *  it. Built only by the planners below. */
struct Task
{
    TaskKind kind = TaskKind::Point;
    PointKey key;
    std::string desc; //!< for logs, errors and the manifest

    /** The points the task simulates: a point and its twins (equal
     *  sweep::simulationKey(), in request order), a group's members in
     *  plan order, or the sampled point a window belongs to. The first
     *  is the lease's lead point. */
    std::vector<sweep::SweepPoint> points;

    /** Point: the store keys of the lead's twins, points[1..]. */
    std::vector<PointKey> twinKeys;

    /** Manifest provenance of a group: members and distinct (L1, L2)
     *  cache classes; zero for the other kinds. */
    std::uint64_t groupMembers = 0;
    std::uint64_t groupConfigs = 0;

    /** Window: the shared capture and the window's index in it. The
     *  lease body is built from it at grant time, so slot state never
     *  copies a window's images. */
    std::shared_ptr<const sample::LivePointLibrary> library;
    std::uint64_t window = 0;

    /** The lease that runs this task in slot @p slot. */
    LeaseMsg lease(std::uint64_t slot) const;

    /**
     * Serve the task from @p store: true, with the lead's fragment in
     * @p lead, when a valid record lies under any of its keys. A
     * Point record must open with its own point's report head
     * (sweep::writePointHead()); it is re-headed for the lead. A
     * record whose head does not match serves nothing, so the task is
     * leased instead.
     */
    bool fromStore(ResultStore &store, Fragment *lead) const;

    /** The (key, fragment) records a finished task leaves in the
     *  store: @p lead under its key and, for a Point task, each twin's
     *  re-headed fragment under the twin's key. */
    std::vector<std::pair<PointKey, Fragment>>
    records(const Fragment &lead) const;
};

/** A farm run's work: the unique tasks to lease, in slot order, and how
 *  their fragments become the report's point fragments. */
struct TaskPlan
{
    std::vector<Task> tasks;

    /** The request-side counters: points, multiCacheGroups and
     *  pointsGrouped. */
    FarmStats stats;

    /** Report fragments, in request order, from the tasks' fragments,
     *  in task order. Throws SimException on a malformed fragment. */
    std::function<std::vector<Fragment>(const std::vector<Fragment> &)>
        assemble;
};

/**
 * Plan @p points: with @p multiCache every multi-cache group (sweep::
 * planMultiCacheGroups()) becomes one Group task, and every other
 * point joins the one Point task of its sweep::simulationKey(), so
 * identical points and twins run once. The store keys are computed on
 * @p jobs threads. A pure function of the arguments, so a resumed farm
 * derives identical tasks and keys.
 */
TaskPlan planPoints(const std::vector<sweep::SweepPoint> &points,
                    bool multiCache, unsigned jobs);

/**
 * Plan one Window task per measurement window of @p library. Throws
 * SimException(BadConfig) when @p point is not sampled or the library
 * does not match it (sweep::libraryMatchesPoint()).
 */
TaskPlan
planWindows(const sweep::SweepPoint &point,
            const std::shared_ptr<const sample::LivePointLibrary> &library);

/** One line describing @p lease, for worker session logs. */
std::string describeLease(const LeaseMsg &lease);

/**
 * Runs leases on a worker. Each run() is a pure function of the lease
 * bytes. Consecutive window leases of one sweep point reuse the
 * instrumented program, the machine config and the window runner's
 * executor: the coordinator shards one capture's windows across
 * workers, so a session typically sees a long run of window leases
 * whose point is identical, and rebuilding the workload per window
 * would rival the window itself. restoreExecImage() overwrites all
 * executor state and rejects an image whose program fingerprint
 * disagrees with the rebuilt program (a deterministic BadCheckpoint).
 */
class TaskRunner
{
  public:
    TaskRunner() = default;
    TaskRunner(const TaskRunner &) = delete;
    TaskRunner &operator=(const TaskRunner &) = delete;

    /**
     * Run @p lease (as decodeLease() returned it) and return its
     * fragment. Fills @p stats' simulate/serialize timings and its
     * compact stats JSON. Throws SimException when the simulator
     * rejects the work.
     */
    Fragment run(const LeaseMsg &lease, StatsMsg &stats);

  private:
    sample::WindowSample runWindow(const sweep::SweepPoint &point,
                                   const sample::LivePoint &live);

    // The window-runner cache: valid for _windowPoint when set.
    std::optional<sweep::SweepPoint> _windowPoint;
    pipeline::MachineConfig _cfg; //!< the runners keep a reference
    sample::SampleParams _params;
    std::optional<sample::WindowRunner<pipeline::OooCpu>> _ooo;
    std::optional<sample::WindowRunner<pipeline::InOrderCpu>> _inorder;
};

} // namespace imo::farm

#endif // IMO_FARM_TASK_HH
