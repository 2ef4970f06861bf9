/**
 * @file
 * Per-operation host cost of the component classes the simulator is
 * built from (the ones bench/micro_components drives), at the maxwell
 * preset's geometry and with seeded inputs. Run in the traced phase;
 * each figure is the median of several repetitions.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>

#include "spans.hh"

namespace perfbench {

struct ComponentCosts
{
    double tlbLookupNs = 0.0;    //!< Tlb::lookup, half hits
    double cacheAccessNs = 0.0;  //!< SetAssocCache lookup + fill on miss
    double walkAddrsNs = 0.0;    //!< PageTable::walkAddrs
    double schedPickNs = 0.0;    //!< Dram::tick, MASK Golden/Silver queues
    double channelTickNs = 0.0;  //!< Dram::tick, FR-FCFS
};

ComponentCosts probeComponents(std::uint64_t seed, SpanRecorder *rec);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
