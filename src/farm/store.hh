/**
 * @file
 * Content-addressed, memoized result store for sweep points.
 *
 * Sweep reports are byte-identical by construction (the per-point JSON
 * fragment is a pure function of the SweepPoint), so a finished point
 * can be cached and replayed verbatim. A record is keyed by
 *
 *   (config hash, program fingerprint, report-schema version)
 *
 * where the config hash digests every SweepPoint field that selects
 * machine behavior, the program fingerprint is the instrumented
 * program's order-sensitive digest (isa::Program::fingerprint(), so a
 * workload-generator change invalidates cached results), and the
 * schema version pins the report format. Repeated or overlapping
 * sweeps — the common case for a shared service — become store hits
 * instead of simulations, and an interrupted farm resumes from the
 * records already on disk.
 *
 * Each record is one file, <dir>/<40-hex-key>.imores, holding a
 * checkpoint container (src/common/checkpoint.*) with a "key" section
 * (the three key components, verified on read) and a "fragment"
 * section (the exact report bytes). The container's per-section CRC
 * is the integrity layer: a flipped bit anywhere surfaces as a
 * structured StoreCorrupt condition, the record is quarantined to
 * <name>.bad, and the point is re-simulated — corruption can cost a
 * simulation, never a wrong report.
 */

#ifndef IMO_FARM_STORE_HH
#define IMO_FARM_STORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/sweep.hh"

namespace imo::farm
{

/** The content address of one sweep point's result. */
struct PointKey
{
    std::uint64_t configHash = 0;
    std::uint64_t programHash = 0;
    std::uint32_t schemaVersion = sweep::reportSchemaVersion;

    /** 40-hex-char stable file name stem. */
    std::string hex() const;

    bool operator==(const PointKey &o) const = default;
};

/** Feed every field of @p point, in declaration order, to @p out (a
 *  Fnv1a digest or a checkpoint Serializer): the fields every store key
 *  digests and every lease carries. */
template <typename Out>
void
writePointFields(Out &out, const sweep::SweepPoint &point)
{
    out.str(point.machine);
    out.str(point.workload);
    out.u32(static_cast<std::uint32_t>(point.mode));
    out.u32(point.handlerLen);
    out.f64(point.scale);
    out.u64(point.seed);
    out.u64(point.l1SizeBytes);
    out.u32(point.l1Assoc);
    out.u64(point.l2SizeBytes);
    out.u32(point.l2Assoc);
    out.u64(point.l2Latency);
    out.u64(point.memLatency);
    out.u32(point.mshrs);
    out.str(point.sample);
}

/**
 * Compute the content address of @p point. Builds and instruments the
 * point's program to fingerprint the actual instruction stream; the
 * result depends only on the point (and the binary's workload
 * generators), never on wall clock or host.
 * Throws SimException(BadConfig/BadProgram) for an invalid point.
 */
PointKey keyForPoint(const sweep::SweepPoint &point);

/**
 * Content address of one live-point window shard. The config hash
 * digests the point plus the window index (under a distinct domain
 * tag, so a window record can never alias a whole-point record), and
 * the program-hash component carries the library's content hash — the
 * library image already pins the program fingerprint, the capture
 * digest, and the U:W:M schedule, so shards of different captures
 * land under different keys. Cheap: no program is built.
 */
PointKey keyForWindow(const sweep::SweepPoint &point,
                      std::uint64_t libraryHash,
                      std::uint64_t windowIndex);

/**
 * Content address of one multi-cache group slot. The config hash
 * digests every member point under a distinct domain tag (a group
 * record — a fragment bundle — can never alias a whole-point record);
 * the program hash fingerprints the shared instrumented program, which
 * every member agrees on by the grouping key. Builds the program once.
 */
PointKey keyForGroup(const std::vector<sweep::SweepPoint> &members);

/** Outcome of a store lookup. */
enum class StoreGet : std::uint8_t
{
    Hit,     //!< record present and valid; fragment returned
    Miss,    //!< no record for this key
    Corrupt, //!< record present but failed validation; quarantined
};

/** Directory-backed store of finished point fragments. */
class ResultStore
{
  public:
    /**
     * Open (creating if needed) the store at @p dir. Unless
     * @p allowExisting, a directory that already holds records is
     * rejected with BadConfig — reusing a store (resume / memoized
     * re-run) must be an explicit decision, not an accident.
     */
    ResultStore(std::string dir, bool allowExisting);

    const std::string &dir() const { return _dir; }

    /** Number of records quarantined as corrupt so far. */
    std::uint64_t corruptRecords() const { return _corrupt; }

    /**
     * Look up @p key. On Hit, @p fragment receives the stored report
     * bytes verbatim. A record whose container fails CRC/framing or
     * whose embedded key disagrees with its file name is quarantined
     * (renamed to .bad) and reported as Corrupt.
     */
    StoreGet get(const PointKey &key, std::vector<std::uint8_t> *fragment);

    /**
     * Persist @p fragment under @p key (atomic temp+rename, so a
     * concurrent reader never sees a torn record).
     * Throws SimException(StoreCorrupt) on I/O failure.
     */
    void put(const PointKey &key,
             const std::vector<std::uint8_t> &fragment);

    /**
     * Integrity pass for one record: re-read it from disk and verify
     * container CRCs, the embedded key, and byte-equality with
     * @p expect. A failed record is rewritten from @p expect.
     * @return true if the on-disk record was already valid.
     */
    bool verifyOrRepair(const PointKey &key,
                        const std::vector<std::uint8_t> &expect);

    /** Path of the record file for @p key. */
    std::string recordPath(const PointKey &key) const;

  private:
    std::string _dir;
    std::uint64_t _corrupt = 0;
};

} // namespace imo::farm

#endif // IMO_FARM_STORE_HH
