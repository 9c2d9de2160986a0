#include "farm/store.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <sys/stat.h>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/hash.hh"
#include "common/logging.hh"

namespace imo::farm
{

namespace
{

const char *const kRecordSuffix = ".imores";

} // anonymous namespace

std::string
PointKey::hex() const
{
    return simFormat("%016llx%016llx%08x",
                     static_cast<unsigned long long>(configHash),
                     static_cast<unsigned long long>(programHash),
                     schemaVersion);
}

namespace
{

/** The point fields every key digests, in declaration order. */
void
mixPoint(Fnv1a &cfg, const sweep::SweepPoint &point)
{
    cfg.str(point.machine);
    cfg.str(point.workload);
    cfg.u32(static_cast<std::uint32_t>(point.mode));
    cfg.u32(point.handlerLen);
    cfg.f64(point.scale);
    cfg.u64(point.seed);
    cfg.u64(point.l1SizeBytes);
    cfg.u32(point.l1Assoc);
    cfg.u64(point.l2SizeBytes);
    cfg.u32(point.l2Assoc);
    cfg.u64(point.l2Latency);
    cfg.u64(point.memLatency);
    cfg.u32(point.mshrs);
    cfg.str(point.sample);
}

} // anonymous namespace

PointKey
keyForPoint(const sweep::SweepPoint &point)
{
    PointKey key;

    Fnv1a cfg;
    mixPoint(cfg, point);
    key.configHash = cfg.value();

    // Fingerprint the *instrumented* program: any change to a workload
    // generator, the instrumenter, or the handler library changes the
    // address and invalidates cached results for exactly the affected
    // points.
    key.programHash = point.buildProgram().fingerprint();

    key.schemaVersion = sweep::reportSchemaVersion;
    return key;
}

PointKey
keyForGroup(const std::vector<sweep::SweepPoint> &members)
{
    sim_throw_if(members.empty(), ErrCode::BadConfig,
                 "result store: cannot key an empty point group");
    PointKey key;
    Fnv1a cfg;
    cfg.str("multicache-group"); // domain tag: never aliases a point
    cfg.u64(members.size());
    for (const sweep::SweepPoint &p : members)
        mixPoint(cfg, p);
    key.configHash = cfg.value();

    // Members agree on workload/mode/handlerLen/scale/seed (the
    // multi-cache grouping key), so the shared program fingerprints
    // once for the whole group.
    key.programHash = members.front().buildProgram().fingerprint();

    key.schemaVersion = sweep::reportSchemaVersion;
    return key;
}

PointKey
keyForWindow(const sweep::SweepPoint &point, std::uint64_t libraryHash,
             std::uint64_t windowIndex)
{
    PointKey key;
    Fnv1a cfg;
    cfg.str("window"); // domain tag: never aliases a whole-point key
    mixPoint(cfg, point);
    cfg.u64(windowIndex);
    key.configHash = cfg.value();
    key.programHash = libraryHash;
    key.schemaVersion = sweep::reportSchemaVersion;
    return key;
}

ResultStore::ResultStore(std::string dir, bool allowExisting)
    : _dir(std::move(dir))
{
    sim_throw_if(_dir.empty(), ErrCode::BadConfig,
                 "result store: empty directory path");

    struct stat st;
    if (::stat(_dir.c_str(), &st) == 0) {
        sim_throw_if(!S_ISDIR(st.st_mode), ErrCode::BadConfig,
                     "result store: '%s' exists and is not a directory",
                     _dir.c_str());
        if (!allowExisting) {
            // Count existing records; an empty directory is fine.
            DIR *d = ::opendir(_dir.c_str());
            sim_throw_if(!d, ErrCode::BadConfig,
                         "result store: cannot open '%s': %s",
                         _dir.c_str(), std::strerror(errno));
            bool has_records = false;
            while (const dirent *e = ::readdir(d)) {
                const std::string name = e->d_name;
                if (name.size() > std::strlen(kRecordSuffix) &&
                    name.rfind(kRecordSuffix) ==
                        name.size() - std::strlen(kRecordSuffix)) {
                    has_records = true;
                    break;
                }
            }
            ::closedir(d);
            sim_throw_if(has_records, ErrCode::BadConfig,
                         "result store '%s' already holds records; pass "
                         "--resume to reuse them (memoized re-run or "
                         "resume of an interrupted farm)",
                         _dir.c_str());
        }
    } else {
        sim_throw_if(::mkdir(_dir.c_str(), 0777) != 0 && errno != EEXIST,
                     ErrCode::BadConfig,
                     "result store: cannot create '%s': %s",
                     _dir.c_str(), std::strerror(errno));
    }
}

std::string
ResultStore::recordPath(const PointKey &key) const
{
    return _dir + "/" + key.hex() + kRecordSuffix;
}

StoreGet
ResultStore::get(const PointKey &key, std::vector<std::uint8_t> *fragment)
{
    const std::string path = recordPath(key);
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return StoreGet::Miss;

    try {
        Deserializer d(Deserializer::readFile(path));
        d.openSection("key");
        PointKey stored;
        stored.configHash = d.u64();
        stored.programHash = d.u64();
        stored.schemaVersion = d.u32();
        d.closeSection();
        sim_throw_if(!(stored == key), ErrCode::StoreCorrupt,
                     "store record '%s' embeds key %s", path.c_str(),
                     stored.hex().c_str());
        d.openSection("fragment");
        std::vector<std::uint8_t> bytes = d.vecU8();
        d.closeSection();
        if (fragment)
            *fragment = std::move(bytes);
        return StoreGet::Hit;
    } catch (const SimException &e) {
        // Quarantine the damaged record (keep the evidence) and treat
        // the key as absent: corruption costs a re-simulation, never a
        // wrong report.
        ++_corrupt;
        warn("result store: quarantining corrupt record %s: %s",
             path.c_str(), e.error().message.c_str());
        // Uniquify the quarantine name: repeated corruption of the
        // same key (re-simulated, re-stored, rotted again) must keep
        // every piece of evidence, not overwrite the previous one.
        std::string bad;
        for (unsigned n = 1;; ++n) {
            bad = path + ".bad." + std::to_string(n);
            struct stat bad_st;
            if (::stat(bad.c_str(), &bad_st) != 0)
                break;
        }
        if (std::rename(path.c_str(), bad.c_str()) != 0)
            std::remove(path.c_str());
        return StoreGet::Corrupt;
    }
}

void
ResultStore::put(const PointKey &key,
                 const std::vector<std::uint8_t> &fragment)
{
    Serializer s;
    s.beginSection("key");
    s.u64(key.configHash);
    s.u64(key.programHash);
    s.u32(key.schemaVersion);
    s.endSection();
    s.beginSection("fragment");
    s.vecU8(fragment);
    s.endSection();
    try {
        writeCheckpointFile(recordPath(key), s.finish());
    } catch (const SimException &e) {
        throw SimException(SimError{ErrCode::StoreCorrupt,
                                    simFormat("result store: cannot "
                                              "write record for %s",
                                              key.hex().c_str()),
                                    {e.error().message}});
    }
}

bool
ResultStore::verifyOrRepair(const PointKey &key,
                            const std::vector<std::uint8_t> &expect)
{
    std::vector<std::uint8_t> stored;
    const StoreGet got = get(key, &stored);
    if (got == StoreGet::Hit && stored == expect)
        return true;
    if (got == StoreGet::Hit) {
        // Valid container, wrong bytes: a key collision or a foreign
        // writer. Count it as corruption and restore the truth.
        ++_corrupt;
        warn("result store: record %s holds mismatching bytes; "
             "rewriting", recordPath(key).c_str());
    }
    put(key, expect);
    return false;
}

} // namespace imo::farm
