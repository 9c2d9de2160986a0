#include "sample/livepoint.hh"

#include <cstring>

namespace imo::sample
{

std::uint64_t
captureDigest(const pipeline::MachineConfig &config)
{
    Fnv1a d;
    // Functional cache geometry: decides every reference's outcome and
    // therefore the executor image and the exact window boundaries.
    d.u64(config.l1.sizeBytes);
    d.u64(config.l1.lineBytes);
    d.u64(config.l1.assoc);
    d.u64(config.l2.sizeBytes);
    d.u64(config.l2.lineBytes);
    d.u64(config.l2.assoc);
    // Warm-table shapes: the predictor tables are the warm images.
    d.u64(config.predictorEntries);
    d.u64(config.useGshare ? 1 : 0);
    // The runaway guard is part of the executor configuration.
    d.u64(config.maxInstructions);
    return d.value();
}

std::vector<std::uint8_t>
serializeLibrary(LivePointLibrary &lib)
{
    Serializer s;
    s.beginSection("libmeta");
    s.u32(livePointFormatVersion);
    s.str(lib.kind);
    s.str(lib.workload);
    s.u64(lib.programFingerprint);
    s.u64(lib.digest);
    s.u64(lib.fastForward);
    s.u64(lib.warmup);
    s.u64(lib.measure);
    s.u64(lib.totals.instructions);
    s.u64(lib.totals.dataRefs);
    s.u64(lib.totals.l1Misses);
    s.u64(lib.totals.traps);
    s.u64(lib.points.size());
    s.endSection();

    // The offset table: consecutive image lengths delta-pack well
    // (windows captured under one schedule have near-identical sizes).
    std::vector<std::uint64_t> lens;
    lens.reserve(lib.points.size() * 2);
    std::size_t blob_size = 0;
    for (const LivePoint &p : lib.points) {
        lens.push_back(p.warmImage.size());
        lens.push_back(p.execImage.size());
        blob_size += p.warmImage.size() + p.execImage.size();
    }
    s.beginSection("index");
    s.vecU64Packed(lens);
    s.endSection();

    std::vector<std::uint8_t> blob;
    blob.reserve(blob_size);
    for (const LivePoint &p : lib.points) {
        blob.insert(blob.end(), p.warmImage.begin(), p.warmImage.end());
        blob.insert(blob.end(), p.execImage.begin(), p.execImage.end());
    }
    s.beginSection("windows");
    s.vecU8(blob);
    s.endSection();

    std::vector<std::uint8_t> image = s.finish();
    lib.contentHash = fnv1a64(image.data(), image.size());
    return image;
}

LivePointLibrary
parseLibrary(std::vector<std::uint8_t> image)
{
    LivePointLibrary lib;
    lib.contentHash = fnv1a64(image.data(), image.size());

    Deserializer d(std::move(image));
    d.openSection("libmeta");
    const std::uint32_t version = d.u32();
    sim_throw_if(version != livePointFormatVersion,
                 ErrCode::BadCheckpoint,
                 "live-point library format version %u is not the "
                 "supported version %u", version, livePointFormatVersion);
    lib.kind = d.str();
    lib.workload = d.str();
    lib.programFingerprint = d.u64();
    lib.digest = d.u64();
    lib.fastForward = d.u64();
    lib.warmup = d.u64();
    lib.measure = d.u64();
    lib.totals.instructions = d.u64();
    lib.totals.dataRefs = d.u64();
    lib.totals.l1Misses = d.u64();
    lib.totals.traps = d.u64();
    const std::uint64_t count = d.u64();
    d.closeSection();

    d.openSection("index");
    const std::vector<std::uint64_t> lens = d.vecU64Packed();
    d.closeSection();
    sim_throw_if(lens.size() != count * 2, ErrCode::BadCheckpoint,
                 "live-point index holds %zu lengths for %llu windows",
                 lens.size(), static_cast<unsigned long long>(count));

    d.openSection("windows");
    const std::vector<std::uint8_t> blob = d.vecU8();
    d.closeSection();

    std::uint64_t total = 0;
    for (const std::uint64_t len : lens) {
        total += len;
        // A hostile index cannot drive the slicer past the blob (the
        // sum check below also catches overflow wrap: any wrapped sum
        // mismatches the real blob size).
        sim_throw_if(total > blob.size() || total < len,
                     ErrCode::BadCheckpoint,
                     "live-point index overruns the windows section");
    }
    sim_throw_if(total != blob.size(), ErrCode::BadCheckpoint,
                 "live-point index covers %llu bytes of a %zu-byte "
                 "windows section",
                 static_cast<unsigned long long>(total), blob.size());

    lib.points.resize(count);
    std::size_t off = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        auto slice = [&](std::uint64_t len) {
            std::vector<std::uint8_t> out(blob.begin() + off,
                                          blob.begin() + off + len);
            off += len;
            return out;
        };
        lib.points[i].warmImage = slice(lens[i * 2]);
        lib.points[i].execImage = slice(lens[i * 2 + 1]);
    }
    return lib;
}

void
writeLibraryFile(const std::string &path, LivePointLibrary &lib)
{
    writeCheckpointFile(path, serializeLibrary(lib));
}

LivePointLibrary
loadLibraryFile(const std::string &path)
{
    return parseLibrary(Deserializer::readFile(path));
}

std::string
encodeWindowSample(const WindowSample &ws)
{
    const std::uint64_t fields[5] = {ws.warmed, ws.measured, ws.cycles,
                                     ws.misses, ws.refs};
    std::string s(sizeof(fields), '\0');
    std::memcpy(s.data(), fields, sizeof(fields));
    return s;
}

WindowSample
decodeWindowSample(const std::string &s)
{
    std::uint64_t fields[5];
    sim_throw_if(s.size() != sizeof(fields), ErrCode::BadCheckpoint,
                 "window sample is %zu bytes, expected %zu",
                 s.size(), sizeof(fields));
    std::memcpy(fields, s.data(), sizeof(fields));
    return WindowSample{fields[0], fields[1], fields[2], fields[3],
                        fields[4]};
}

std::vector<std::uint8_t>
makeExecImage(const func::Executor &exec)
{
    Serializer s;
    s.beginSection("executor");
    exec.save(s);
    s.endSection();
    return s.finish();
}

void
restoreExecImage(const std::vector<std::uint8_t> &image,
                 func::Executor &exec)
{
    Deserializer d(image);
    d.openSection("executor");
    exec.restore(d);
    d.closeSection();
}

} // namespace imo::sample
