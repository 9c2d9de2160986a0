/**
 * @file
 * Host record stamped on every benchmark result.
 *
 * Host time is only comparable between runs on the same kind of host
 * with the same build. The fingerprint digests the fields that decide
 * that (CPU model, hardware threads, compiler, build type); results
 * whose fingerprints differ are reported as not comparable, never as
 * a regression. The calibration loop's time is recorded beside it so
 * a reader can see how fast the host ran at the time.
 */

#ifndef IMO_PERFBENCH_HOST_HH
#define IMO_PERFBENCH_HOST_HH

#include <cstdint>
#include <string>

namespace imo::perfbench
{

struct HostRecord
{
    std::string cpuModel;
    unsigned nproc = 0;
    double calibrationNs = 0.0; //!< median ns of the fixed loop
    std::string compiler;
    std::string buildType;
    std::string commit;      //!< source identity supplied by the runner
    std::string fingerprint; //!< 16 hex digits over the fields above
                             //!< that decide comparability

    std::string json() const;
};

/** Measure and describe this host; @p commit is recorded verbatim. */
HostRecord recordHost(const std::string &commit);

} // namespace imo::perfbench

#endif // IMO_PERFBENCH_HOST_HH
