#include "host.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/stats.hh"
#include "sample/livepoint.hh"
#include "spans.hh"

namespace imo::perfbench
{

namespace
{

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        const auto e = s.find_last_not_of(' ');
        if (b != std::string::npos)
            return s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

/** A fixed dependent integer chain: its time tracks the core's clock
 *  and nothing else the benchmark measures. */
double
calibrationNs()
{
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep) {
        volatile std::uint64_t sink = 0;
        std::uint64_t x = 0x9e3779b97f4a7c15ull + rep;
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < 20'000'000; ++i)
            x = x * 6364136223846793005ull + 1442695040888963407ull;
        sink = x;
        (void)sink;
        times.push_back(static_cast<double>(nowNs() - t0));
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

} // anonymous namespace

HostRecord
recordHost(const std::string &commit)
{
    HostRecord h;
    h.cpuModel = cpuModel();
    h.nproc = std::max(1u, std::thread::hardware_concurrency());
    h.calibrationNs = calibrationNs();
    h.compiler = compilerName();
    h.buildType = PERFBENCH_BUILD_TYPE;
    h.commit = commit;
    const std::string key = h.cpuModel + "|" + std::to_string(h.nproc) +
                            "|" + h.compiler + "|" + h.buildType;
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      sample::fnv1a64(key.data(), key.size())));
    h.fingerprint = hex;
    return h;
}

std::string
HostRecord::json() const
{
    char calib[64];
    std::snprintf(calib, sizeof(calib), "%.0f", calibrationNs);
    return "{\"cpu_model\":\"" + stats::jsonEscape(cpuModel) +
           "\",\"nproc\":" + std::to_string(nproc) +
           ",\"calibration_ns\":" + calib + ",\"compiler\":\"" +
           stats::jsonEscape(compiler) + "\",\"build_type\":\"" +
           stats::jsonEscape(buildType) + "\",\"commit\":\"" +
           stats::jsonEscape(commit) + "\",\"fingerprint\":\"" +
           fingerprint + "\"}";
}

} // namespace imo::perfbench
