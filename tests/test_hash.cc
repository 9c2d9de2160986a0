/**
 * @file
 * Digest pins: every 64-bit FNV-1a digest the simulator persists or
 * exchanges, computed on fixed inputs and compared against literal
 * values. Result-store records (.imores) are addressed by these keys,
 * live-point libraries are validated against the program fingerprint
 * and capture digest, and farm peers authenticate with authDigest, so
 * any change to the hashing code that alters a single bit here would
 * orphan existing stores or split a farm. The literals were recorded
 * from the original per-subsystem hash loops.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/machine.hh"
#include "core/informing.hh"
#include "farm/proto.hh"
#include "farm/store.hh"
#include "pipeline/config.hh"
#include "sample/livepoint.hh"
#include "sweep/sweep.hh"
#include "workloads/suite.hh"

using namespace imo;

namespace
{

sweep::SweepPoint
pinnedPoint()
{
    sweep::SweepPoint p;
    p.machine = "inorder";
    p.workload = "compress";
    p.mode = core::InformingMode::TrapSingle;
    p.handlerLen = 10;
    p.scale = 0.05;
    p.seed = 3;
    p.l1SizeBytes = 16 * 1024;
    p.l2Latency = 12;
    p.sample = "997:100:100";
    return p;
}

} // anonymous namespace

TEST(DigestPin, RawFnv1a)
{
    // The published FNV-1a 64 test vectors.
    EXPECT_EQ(sample::fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(sample::fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(sample::fnv1a64("foobar", 6), 0x85944171f73967e8ull);
    // Chaining through the seed equals hashing the concatenation.
    EXPECT_EQ(sample::fnv1a64("bar", 3, sample::fnv1a64("foo", 3)),
              sample::fnv1a64("foobar", 6));
}

TEST(DigestPin, ProgramFingerprint)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.05;
    wp.seed = 3;
    EXPECT_EQ(workloads::build("compress", wp).fingerprint(),
              0xdb33c6f43ad68d5aull);
    EXPECT_EQ(core::instrument(workloads::build("compress", wp),
                               core::InformingMode::TrapSingle,
                               {.length = 10})
                  .fingerprint(),
              0x2d4ad53223962c86ull);
}

TEST(DigestPin, StoreKeys)
{
    const sweep::SweepPoint p = pinnedPoint();
    EXPECT_EQ(farm::keyForPoint(p).hex(),
              "0213ca8317ad2fc02d4ad53223962c8600000002");

    sweep::SweepPoint q = p;
    q.l1SizeBytes = 32 * 1024;
    EXPECT_EQ(farm::keyForGroup({p, q}).hex(),
              "61742879c56b314c2d4ad53223962c8600000002");

    EXPECT_EQ(farm::keyForWindow(p, 0x0123456789abcdefull, 7).hex(),
              "88ec459f2fce5d010123456789abcdef00000002");
}

TEST(DigestPin, CaptureDigest)
{
    EXPECT_EQ(sample::captureDigest(pipeline::makeInOrderConfig()),
              0xb04bfcd28a4df7daull);
    EXPECT_EQ(sample::captureDigest(pipeline::makeOutOfOrderConfig()),
              0xfe103e7ef79c7287ull);
}

TEST(DigestPin, AuthDigest)
{
    EXPECT_EQ(farm::authDigest("", 0), 0x88201fb960ff6465ull);
    EXPECT_EQ(farm::authDigest("s3cret", 0x1122334455667788ull),
              0x1137cf9171783187ull);
}

TEST(DigestPin, CoherenceWorkloadFingerprint)
{
    coherence::ParallelWorkload w;
    w.name = "pin";
    w.streams.resize(2);
    using Kind = coherence::TraceItem::Kind;
    w.streams[0].push_back({Kind::Ref, 0x1000, true, true, 3});
    w.streams[0].push_back({Kind::Barrier, 0, false, false, 0});
    w.streams[1].push_back({Kind::Ref, 0x2040, false, true, 17});
    EXPECT_EQ(coherence::CoherentMachine::fingerprintWorkload(w),
              0xdeee0538d4f728eeull);
}
