// Runtime registry of every lock algorithm, by name.
//
// The evaluation harness, the verify matrices and the benchmark
// binaries all select algorithms by string, as LiTL selects the
// interposed lock by name (paper §6). The preload runs one lock and
// never consults the registry (interpose/pthread_shim.hpp).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/any_lock.hpp"
#include "core/resilience.hpp"
#include "platform/topology.hpp"

namespace resilock {

// All registered algorithm names (stable order), including the
// "shield<X>" composites.
const std::vector<std::string>& lock_names();

// Only the base algorithms — lock_names() minus the shield composites.
// Paper-reproduction sweeps (Tables 1/2, Figure 14) iterate these.
const std::vector<std::string>& base_lock_names();

// The six locks of the paper's Table 2 / Figure 14, in table order:
// TAS, Ticket, ABQL, MCS, CLH, HMCS.
const std::vector<std::string>& table2_lock_names();

// True iff `name` is a registered algorithm.
bool is_lock_name(std::string_view name);

// Instantiate `name` in the requested flavor. Topology-aware locks
// (HMCS, HCLH, HBO, cohort family) use `topo`. Throws std::out_of_range
// for unknown names.
std::unique_ptr<AnyLock> make_lock(
    std::string_view name, Resilience r,
    const platform::Topology& topo = platform::Topology::host_default());

// ---------------------------------------------------------------------
// Ownership-shield composites (src/shield/): every base algorithm X is
// also registered as "shield<X>", which wraps the requested flavor of X
// in Shield<X> — the generic ownership layer that intercepts unbalanced
// unlock, double unlock, non-owner unlock, and reentrant relock before
// they reach the protocol.
// ---------------------------------------------------------------------

// "TAS" -> "shield<TAS>".
std::string shielded_name(std::string_view base);

// True iff `name` has the "shield<...>" shape.
bool is_shielded_name(std::string_view name);

// "shield<TAS>" -> "TAS"; empty view when `name` is not a shield name.
std::string_view shield_base_name(std::string_view name);

}  // namespace resilock
