/**
 * @file
 * Per-layer probes of the traced run.
 *
 * Each probe calls one layer's public function on the workload's own
 * inputs, inside a span, outside the timed repetitions: functional
 * fast-forward, multi-cache classification, the sampler and its
 * live-point library codec, the multi-cache planner, program
 * fingerprinting, the result store and the farm's frame codec. A
 * probe only runs on the workload whose end-to-end metrics its layer
 * should move; elsewhere its metrics read 0.
 */

#ifndef IMO_PERFBENCH_PROBES_HH
#define IMO_PERFBENCH_PROBES_HH

#include <map>
#include <string>

#include "spans.hh"
#include "workloads.hh"

namespace imo::perfbench
{

/** Layer metric name -> value. */
using Metrics = std::map<std::string, double>;

/** Run the probes that apply to @p in's workload into @p out. */
void runProbes(const Inputs &in, const Reference &ref, Tracer &tracer,
               const std::string &work_dir, Metrics &out);

} // namespace imo::perfbench

#endif // IMO_PERFBENCH_PROBES_HH
