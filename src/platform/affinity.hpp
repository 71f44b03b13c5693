// CPU-affinity placement helpers.
//
// The paper's evaluation pins workload threads explicitly and sweeps
// placements across the two sockets (§6: same-socket vs cross-socket
// runs change which lock family wins). These helpers compute such a
// CPU list from the Topology model — "compact" fills one domain before
// spilling to the next (the same-socket shape), "spread" round-robins
// domains (the cross-socket shape) — in the form the benchmark's app
// takes it (`--cpus`, thread i pinned to cpus[i % n]).
//
// Placement is modeled over the Topology abstraction, not libnuma
// (which the toolchain image does not carry): CPU ids are taken from
// the process's current affinity mask and partitioned into
// num_domains() contiguous blocks, matching Topology::domain_of's
// block-round-robin pid assignment.
#pragma once

#include <cstddef>
#include <vector>

#include "platform/topology.hpp"

namespace resilock::platform {

// CPUs this process may run on, ascending. Empty only if
// sched_getaffinity fails (then callers skip pinning).
std::vector<int> allowed_cpus();

enum class Placement {
  kCompact,  // fill a domain before spilling into the next
  kSpread,   // round-robin across domains
};

// A CPU id per thread slot, |nthreads| long, drawn from `cpus`
// partitioned into topo.num_domains() blocks. CPUs repeat once
// nthreads exceeds the available set (oversubscription is a valid
// drive mode).
std::vector<int> placement_cpus(const Topology& topo,
                                const std::vector<int>& cpus,
                                std::size_t nthreads, Placement p);

// Pins the calling thread; false if the kernel refused.
bool pin_self_to(int cpu);

}  // namespace resilock::platform
