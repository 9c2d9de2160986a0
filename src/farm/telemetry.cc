#include "farm/telemetry.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/trace.hh"

namespace imo::farm
{

namespace
{

// Queue-to-grant latency distribution: 64 buckets x 16 ms covers one
// second at fine grain; anything slower lands in the overflow bucket.
constexpr std::size_t kLatencyBuckets = 64;
constexpr std::uint64_t kLatencyBucketMs = 16;

} // anonymous namespace

FarmTelemetry::FarmTelemetry(const FarmOptions &opt,
                             std::uint64_t start_ms)
    : _trace(opt.trace), _progress(opt.progress),
      _progressIntervalMs(opt.progressIntervalMs),
      _progressJsonPath(opt.progressJsonPath), _runId(opt.runId),
      _t0(start_ms),
      _leaseLatency("lease_latency_ms",
                    "queue-to-grant lease latency (ms)", kLatencyBuckets,
                    kLatencyBucketMs),
      _queueWait("queue_wait_ms", "enqueue-to-grant wait per lease (ms)"),
      _simulateWall("simulate_ms", "worker simulate wall time per point"),
      _serializeWall("serialize_ms",
                     "worker fragment serialize time per point"),
      _storePut("store_put_ms", "result-store put time per record")
{
}

void
FarmTelemetry::emit(std::uint32_t cat_bit, const char *name,
                    std::uint64_t ts, std::uint64_t dur, std::uint64_t a0,
                    std::uint64_t a1, std::uint32_t tid)
{
    if (_trace)
        _trace->record(ts, static_cast<obs::Cat>(cat_bit), name, 0, a0,
                       a1, dur, tid);
}

FarmTelemetry::SeatState &
FarmTelemetry::seatState(unsigned seat)
{
    if (_seats.size() <= seat)
        _seats.resize(seat + 1);
    return _seats[seat];
}

FarmTelemetry::SlotState &
FarmTelemetry::slotState(std::size_t slot)
{
    if (_slots.size() <= slot)
        _slots.resize(slot + 1);
    return _slots[slot];
}

void
FarmTelemetry::describeSlot(std::size_t slot, std::string key_hex,
                            std::string desc,
                            std::uint64_t group_members,
                            std::uint64_t group_configs)
{
    SlotState &s = slotState(slot);
    s.rec.keyHex = std::move(key_hex);
    s.rec.desc = std::move(desc);
    s.rec.groupMembers = group_members;
    s.rec.groupConfigs = group_configs;
}

void
FarmTelemetry::noteStoreHit(std::size_t slot, std::uint64_t now)
{
    SlotState &s = slotState(slot);
    s.rec.storeHit = true;
    s.rec.done = true;
    s.finished = true;
    s.rec.endMs = rel(now);
    ++_doneAtStart;
    emit(static_cast<std::uint32_t>(obs::Cat::Store), "store-hit",
         rel(now), 0, slot, 0, 0);
}

void
FarmTelemetry::noteEnqueue(std::size_t slot, std::uint64_t now)
{
    slotState(slot).enqueueMs = now;
}

void
FarmTelemetry::noteRetry(std::size_t slot, unsigned attempts,
                         std::uint64_t now)
{
    emit(static_cast<std::uint32_t>(obs::Cat::Farm), "retry", rel(now),
         0, slot, attempts, 0);
}

void
FarmTelemetry::noteGrant(std::size_t slot, unsigned seat, bool straggler,
                         unsigned attempts, std::uint64_t now)
{
    SlotState &s = slotState(slot);
    SeatState &w = seatState(seat);
    w.seen = true;
    w.slot = static_cast<long>(slot);
    w.straggler = straggler;
    w.grantMs = now;
    if (!straggler) {
        const std::uint64_t wait =
            now >= s.enqueueMs ? now - s.enqueueMs : 0;
        _queueWait.sample(static_cast<double>(wait));
        _leaseLatency.sample(wait);
        s.rec.attempts = attempts;
        if (!s.started) {
            s.started = true;
            s.rec.startMs = rel(now);
            s.rec.queueWaitMs = wait;
        }
    } else {
        emit(static_cast<std::uint32_t>(obs::Cat::Farm),
             "straggler-grant", rel(now), 0, slot, attempts,
             seatTid(seat));
    }
}

void
FarmTelemetry::noteWorkerStats(std::size_t slot, const StatsMsg &msg,
                               std::uint64_t now)
{
    (void)now;
    SlotState &s = slotState(slot);
    if (s.finished)
        return; // straggler duplicate: first result's telemetry wins
    s.rec.simulateMs = msg.simulateMs;
    s.rec.serializeMs = msg.serializeMs;
    _simulateWall.sample(static_cast<double>(msg.simulateMs));
    _serializeWall.sample(static_cast<double>(msg.serializeMs));
    _workerCycles += msg.cycles;
    _workerInstructions += msg.instructions;
}

void
FarmTelemetry::closeLease(unsigned seat, const char *name,
                          std::uint64_t now)
{
    SeatState &w = seatState(seat);
    if (w.slot < 0)
        return;
    const std::uint64_t dur =
        now >= w.grantMs ? now - w.grantMs : 0;
    w.busyMs += dur;
    emit(static_cast<std::uint32_t>(obs::Cat::Farm), name,
         rel(w.grantMs), dur ? dur : 1,
         static_cast<std::uint64_t>(w.slot),
         slotState(static_cast<std::size_t>(w.slot)).rec.attempts,
         seatTid(seat));
    w.slot = -1;
    w.straggler = false;
}

void
FarmTelemetry::noteResult(std::size_t slot, unsigned seat, bool duplicate,
                          std::uint64_t fragment_bytes, std::uint64_t now)
{
    SeatState &w = seatState(seat);
    ++w.points;
    closeLease(seat, w.straggler ? "lease-straggler" : "lease", now);
    SlotState &s = slotState(slot);
    if (duplicate || s.finished)
        return;
    s.finished = true;
    s.rec.done = true;
    s.rec.endMs = rel(now);
    s.rec.fragmentBytes = fragment_bytes;
}

void
FarmTelemetry::noteStorePut(std::size_t slot, std::uint64_t dur_ms,
                            std::uint64_t now)
{
    slotState(slot).rec.storePutMs = dur_ms;
    _storePut.sample(static_cast<double>(dur_ms));
    const std::uint64_t end = rel(now);
    emit(static_cast<std::uint32_t>(obs::Cat::Store), "store-put",
         end >= dur_ms ? end - dur_ms : 0, dur_ms ? dur_ms : 1, slot, 0,
         0);
}

void
FarmTelemetry::noteSpawn(unsigned seat, bool remote, std::uint64_t now)
{
    SeatState &w = seatState(seat);
    w.seen = true;
    w.remote = remote;
    emit(static_cast<std::uint32_t>(obs::Cat::Net),
         remote ? "connect" : "spawn", rel(now), 0, 0, 0,
         seatTid(seat));
}

void
FarmTelemetry::noteAdmit(unsigned seat, bool remote, std::uint64_t now)
{
    seatState(seat).remote = remote;
    emit(static_cast<std::uint32_t>(obs::Cat::Net), "admit", rel(now), 0,
         remote ? 1 : 0, 0, seatTid(seat));
}

void
FarmTelemetry::noteAuthReject(unsigned seat, std::uint64_t now)
{
    emit(static_cast<std::uint32_t>(obs::Cat::Net), "auth-reject",
         rel(now), 0, 0, 0, seatTid(seat));
}

void
FarmTelemetry::noteHeartbeat(unsigned seat, std::size_t slot,
                             std::uint64_t now)
{
    emit(static_cast<std::uint32_t>(obs::Cat::Farm), "heartbeat",
         rel(now), 0, slot, 0, seatTid(seat));
}

void
FarmTelemetry::noteLeaseExpired(unsigned seat, std::size_t slot,
                                std::uint64_t now)
{
    emit(static_cast<std::uint32_t>(obs::Cat::Farm), "lease-expired",
         rel(now), 0, slot, 0, seatTid(seat));
}

void
FarmTelemetry::notePeerLost(unsigned seat, std::uint64_t now)
{
    closeLease(seat, "lease-lost", now);
    emit(static_cast<std::uint32_t>(obs::Cat::Net), "worker-lost",
         rel(now), 0, 0, 0, seatTid(seat));
}

std::uint64_t
FarmTelemetry::etaMs(std::size_t done, std::size_t total,
                     std::uint64_t now) const
{
    // Rate from work done *this run* (store prefill excluded): with
    // nothing finished yet there is no estimate, reported as 0.
    if (done <= _doneAtStart || done >= total)
        return 0;
    const std::uint64_t elapsed = rel(now);
    if (elapsed == 0)
        return 0;
    const double rate =
        static_cast<double>(done - _doneAtStart) / elapsed;
    return static_cast<std::uint64_t>(
        static_cast<double>(total - done) / rate);
}

void
FarmTelemetry::writeProgressJson(const std::string &status,
                                 std::size_t done, std::size_t total,
                                 unsigned active, std::uint64_t retries,
                                 std::uint64_t eta_ms, std::uint64_t now)
{
    if (_progressJsonPath.empty())
        return;
    std::ostringstream os;
    os << "{\"progress_schema_version\":1,\"run_id\":\""
       << stats::jsonEscape(_runId) << "\",\"status\":\""
       << stats::jsonEscape(status) << "\",\"done\":" << done
       << ",\"total\":" << total << ",\"active_workers\":" << active
       << ",\"retries\":" << retries << ",\"elapsed_ms\":" << rel(now)
       << ",\"eta_ms\":" << eta_ms << "}\n";
    // Atomic replace: a monitor never reads a half-written heartbeat.
    const std::string tmp = _progressJsonPath + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return;
        out << os.str();
    }
    std::rename(tmp.c_str(), _progressJsonPath.c_str());
}

void
FarmTelemetry::tick(std::size_t done, std::size_t total, unsigned active,
                    std::uint64_t retries, std::uint64_t now)
{
    if (!_progress && _progressJsonPath.empty())
        return;
    if (_lastProgressMs != 0 &&
        now - _lastProgressMs < _progressIntervalMs)
        return;
    _lastProgressMs = now;
    const std::uint64_t eta = etaMs(done, total, now);
    if (_progress) {
        char eta_buf[32];
        if (eta)
            std::snprintf(eta_buf, sizeof eta_buf, "%.1fs",
                          static_cast<double>(eta) / 1000.0);
        else
            std::snprintf(eta_buf, sizeof eta_buf, "--");
        std::fprintf(stderr,
                     "imo-farm: %zu/%zu points, %u active workers, "
                     "%llu retries, ETA %s\n",
                     done, total, active,
                     static_cast<unsigned long long>(retries), eta_buf);
    }
    writeProgressJson("running", done, total, active, retries, eta, now);
}

void
FarmTelemetry::finish(const std::string &status, std::size_t done,
                      std::size_t total, std::uint64_t retries,
                      std::uint64_t now)
{
    if (_progress) {
        std::fprintf(stderr,
                     "imo-farm: %s — %zu/%zu points in %.1fs, %llu "
                     "retries\n",
                     status.c_str(), done, total,
                     static_cast<double>(rel(now)) / 1000.0,
                     static_cast<unsigned long long>(retries));
    }
    writeProgressJson(status, done, total, 0, retries, 0, now);
}

std::vector<SlotRecord>
FarmTelemetry::takeSlotRecords()
{
    std::vector<SlotRecord> out;
    out.reserve(_slots.size());
    for (SlotState &s : _slots)
        out.push_back(std::move(s.rec));
    return out;
}

void
FarmTelemetry::dumpStats(const FarmStats &totals,
                         std::uint64_t elapsed_ms, std::string *text,
                         std::string *json)
{
    stats::StatGroup root("farm");
    const FarmStats t = totals;
    root.make<stats::Value>("points", "grid points requested",
                            [t] { return t.points; });
    root.make<stats::Value>("unique_slots",
                            "distinct simulations planned",
                            [t] { return t.uniqueSlots; });
    root.make<stats::Value>("store_hits",
                            "slots served from the memoized store",
                            [t] { return t.storeHits; });
    root.make<stats::Value>("simulated", "slots simulated by workers",
                            [t] { return t.simulated; });
    root.make<stats::Value>("retries", "slot re-queues after a failure",
                            [t] { return t.retries; });
    root.make<stats::Value>("workers_lost",
                            "worker deaths (crash or kill)",
                            [t] { return t.workersLost; });
    root.make<stats::Value>("leases_expired", "leases past deadline",
                            [t] { return t.leasesExpired; });
    root.make<stats::Value>("redispatches", "straggler duplicate leases",
                            [t] { return t.redispatches; });
    root.make<stats::Value>("duplicate_results",
                            "results delivered for finished slots",
                            [t] { return t.duplicateResults; });
    root.make<stats::Value>("store_corrupt",
                            "records failing key/CRC checks",
                            [t] { return t.storeCorrupt; });
    root.make<stats::Value>("auth_failures",
                            "peers rejected at admission",
                            [t] { return t.authFailures; });
    root.make<stats::Value>("remotes_admitted",
                            "TCP peers through admission",
                            [t] { return t.remotesAdmitted; });
    root.make<stats::Derived>(
        "store_hit_rate", "fraction of unique slots served memoized",
        [t] {
            return t.uniqueSlots ? static_cast<double>(t.storeHits) /
                                       static_cast<double>(t.uniqueSlots)
                                 : 0.0;
        });
    root.make<stats::Derived>(
        "points_per_sec", "farm-wide simulated-point throughput",
        [t, elapsed_ms] {
            return elapsed_ms ? static_cast<double>(t.simulated) *
                                    1000.0 /
                                    static_cast<double>(elapsed_ms)
                              : 0.0;
        });
    root.make<stats::Value>("worker_cycles",
                            "simulated cycles aggregated from workers",
                            [this] { return _workerCycles; });
    root.make<stats::Value>(
        "worker_instructions",
        "graduated instructions aggregated from workers",
        [this] { return _workerInstructions; });
    root.adopt(_leaseLatency);
    root.adopt(_queueWait);
    root.adopt(_simulateWall);
    root.adopt(_serializeWall);
    root.adopt(_storePut);

    stats::StatGroup &workers = root.childGroup("workers");
    for (std::size_t i = 0; i < _seats.size(); ++i) {
        const SeatState &w = _seats[i];
        if (!w.seen)
            continue;
        stats::StatGroup &g =
            workers.childGroup("worker" + std::to_string(i));
        const std::uint64_t points = w.points;
        const std::uint64_t busy = w.busyMs;
        g.make<stats::Value>("points", "results delivered by this seat",
                             [points] { return points; });
        g.make<stats::Value>("busy_ms", "total leased wall time",
                             [busy] { return busy; });
        g.make<stats::Derived>(
            "points_per_sec", "per-seat delivered throughput",
            [points, elapsed_ms] {
                return elapsed_ms ? static_cast<double>(points) *
                                        1000.0 /
                                        static_cast<double>(elapsed_ms)
                                  : 0.0;
            });
        g.make<stats::Value>("remote",
                             "1 when this seat is a TCP daemon",
                             [r = w.remote] {
                                 return static_cast<std::uint64_t>(r);
                             });
    }

    if (text) {
        std::ostringstream os;
        root.dump(os);
        *text = os.str();
    }
    if (json) {
        std::ostringstream os;
        os << "{\"farm\":";
        root.dumpJson(os);
        os << "}\n";
        *json = os.str();
    }
}

} // namespace imo::farm
