/**
 * @file
 * Farm run telemetry: the observational side-channel of a coordinator
 * run.
 *
 * FarmTelemetry turns the coordinator's scheduling decisions (lease
 * grants, retries, straggler duplicates, store traffic, admission
 * events) into three artifacts:
 *
 *  - a lease timeline on an obs::TraceSink (categories farm/store/net,
 *    one Chrome-trace track per worker seat) loadable in Perfetto next
 *    to per-cycle simulation traces;
 *  - aggregated farm-level registry stats (lease-latency histogram,
 *    queue-wait/simulate/serialize averages, per-worker throughput,
 *    store hit rate) rendered through the common text/JSON dumpers;
 *  - rate-limited live progress: a stderr line and/or a machine-
 *    readable heartbeat JSON file for daemon-mode monitoring.
 *
 * The standing contract: telemetry observes, never steers. No code
 * path in here may influence scheduling, fragments, or the merged
 * report — reports stay byte-identical with telemetry on or off.
 * Orchestration trace timestamps are wall-clock milliseconds since
 * the run started (1 trace tick = 1 ms).
 */

#ifndef IMO_FARM_TELEMETRY_HH
#define IMO_FARM_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "farm/farm.hh"
#include "farm/proto.hh"

namespace imo::obs
{
class TraceSink;
} // namespace imo::obs

namespace imo::farm
{

class FarmTelemetry
{
  public:
    /** @p start_ms anchors the run's trace/progress time base. */
    FarmTelemetry(const FarmOptions &opt, std::uint64_t start_ms);

    // --- Slot lifecycle ---------------------------------------------
    void describeSlot(std::size_t slot, std::string key_hex,
                      std::string desc,
                      std::uint64_t group_members = 0,
                      std::uint64_t group_configs = 0);
    void noteStoreHit(std::size_t slot, std::uint64_t now);
    void noteEnqueue(std::size_t slot, std::uint64_t now);
    void noteRetry(std::size_t slot, unsigned attempts,
                   std::uint64_t now);
    void noteGrant(std::size_t slot, unsigned seat, bool straggler,
                   unsigned attempts, std::uint64_t now);
    void noteWorkerStats(std::size_t slot, const StatsMsg &msg,
                         std::uint64_t now);
    void noteResult(std::size_t slot, unsigned seat, bool duplicate,
                    std::uint64_t fragment_bytes, std::uint64_t now);
    void noteStorePut(std::size_t slot, std::uint64_t dur_ms,
                      std::uint64_t now);

    // --- Peer lifecycle ---------------------------------------------
    void noteSpawn(unsigned seat, bool remote, std::uint64_t now);
    void noteAdmit(unsigned seat, bool remote, std::uint64_t now);
    void noteAuthReject(unsigned seat, std::uint64_t now);
    void noteHeartbeat(unsigned seat, std::size_t slot,
                       std::uint64_t now);
    void noteLeaseExpired(unsigned seat, std::size_t slot,
                          std::uint64_t now);
    void notePeerLost(unsigned seat, std::uint64_t now);

    // --- Live progress ----------------------------------------------
    /** Rate-limited: emits at most once per progressIntervalMs. */
    void tick(std::size_t done, std::size_t total, unsigned active,
              std::uint64_t retries, std::uint64_t now);

    /** Final progress emission (unconditional) with a terminal
     *  status: "ok", "failed", or "interrupted". */
    void finish(const std::string &status, std::size_t done,
                std::size_t total, std::uint64_t retries,
                std::uint64_t now);

    // --- Run extraction ---------------------------------------------
    std::vector<SlotRecord> takeSlotRecords();

    /** Render the aggregated farm registry (counters from @p totals
     *  plus the accumulated histograms/averages/per-seat throughput)
     *  through the common dumpers. */
    void dumpStats(const FarmStats &totals, std::uint64_t elapsed_ms,
                   std::string *text, std::string *json);

  private:
    struct SeatState
    {
        bool seen = false;
        bool remote = false;
        long slot = -1;              //!< open lease, -1 when idle
        bool straggler = false;
        std::uint64_t grantMs = 0;   //!< open lease grant time (abs)
        std::uint64_t points = 0;    //!< results delivered
        std::uint64_t busyMs = 0;    //!< total leased wall time
    };

    struct SlotState
    {
        SlotRecord rec;
        std::uint64_t enqueueMs = 0; //!< latest enqueue (abs)
        bool started = false;        //!< first lease granted
        bool finished = false;
    };

    /** Worker seat N renders on Chrome-trace track N+2 (track 1 is
     *  the coordinator's). */
    static std::uint32_t seatTid(unsigned seat) { return seat + 2; }

    std::uint64_t
    rel(std::uint64_t now) const
    {
        return now >= _t0 ? now - _t0 : 0;
    }

    void emit(std::uint32_t cat_bit, const char *name, std::uint64_t ts,
              std::uint64_t dur, std::uint64_t a0, std::uint64_t a1,
              std::uint32_t tid);
    void closeLease(unsigned seat, const char *name, std::uint64_t now);
    SeatState &seatState(unsigned seat);
    SlotState &slotState(std::size_t slot);
    void writeProgressJson(const std::string &status, std::size_t done,
                           std::size_t total, unsigned active,
                           std::uint64_t retries, std::uint64_t eta_ms,
                           std::uint64_t now);
    std::uint64_t etaMs(std::size_t done, std::size_t total,
                        std::uint64_t now) const;

    obs::TraceSink *_trace = nullptr;
    bool _progress = false;
    std::uint64_t _progressIntervalMs = 500;
    std::string _progressJsonPath;
    std::string _runId;
    std::uint64_t _t0 = 0;
    std::uint64_t _lastProgressMs = 0;
    std::size_t _doneAtStart = 0; //!< store prefill, excluded from rate

    std::vector<SlotState> _slots;
    std::vector<SeatState> _seats;

    // Accumulated distributions (parentless; adopted into the
    // transient dump root).
    stats::Histogram _leaseLatency;
    stats::Average _queueWait;
    stats::Average _simulateWall;
    stats::Average _serializeWall;
    stats::Average _storePut;
    std::uint64_t _workerCycles = 0;
    std::uint64_t _workerInstructions = 0;
};

} // namespace imo::farm

#endif // IMO_FARM_TELEMETRY_HH
