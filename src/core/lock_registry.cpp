#include "core/lock_registry.hpp"

#include <functional>
#include <map>
#include <stdexcept>
#include <type_traits>

#include "core/abql.hpp"
#include "core/ahmcs.hpp"
#include "core/clh.hpp"
#include "core/cohort.hpp"
#include "core/graunke_thakkar.hpp"
#include "core/hbo.hpp"
#include "core/hclh.hpp"
#include "core/hemlock.hpp"
#include "core/hmcs.hpp"
#include "core/mcs.hpp"
#include "core/mcs_k42.hpp"
#include "core/partitioned_ticket.hpp"
#include "core/tas.hpp"
#include "core/ticket.hpp"
#include "shield/shield.hpp"

namespace resilock {
namespace {

using Factory = std::function<std::unique_ptr<AnyLock>(
    Resilience, const platform::Topology&)>;
using Registry = std::map<std::string, Factory, std::less<>>;

template <typename T>
using Identity = T;

// `Wrap<Base>` behind an AnyLock; topology-aware bases get `topo`. A
// registry-made shield carries its registry name as its lockdep class
// label, so order-cycle reports read "shield<MCS>#12 -> shield<MCS>#13"
// instead of bare class numbers.
template <typename Base, template <typename> class Wrap>
std::unique_ptr<AnyLock> make(const char* name,
                              const platform::Topology& topo) {
  using Adapter = AnyLockAdapter<Wrap<Base>>;
  std::unique_ptr<Adapter> a;
  if constexpr (std::is_constructible_v<Base, const platform::Topology&>) {
    a = std::make_unique<Adapter>(name, topo);
  } else {
    a = std::make_unique<Adapter>(name);
  }
  if constexpr (requires { a->underlying().set_lockdep_label(name); }) {
    a->underlying().set_lockdep_label(name);
  }
  return a;
}

// The flavor selects the BASE protocol's instantiation.
template <template <Resilience> class LockT, template <typename> class Wrap>
Factory factory(const char* name) {
  return [name](Resilience r, const platform::Topology& topo) {
    return r == kOriginal ? make<LockT<kOriginal>, Wrap>(name, topo)
                          : make<LockT<kResilient>, Wrap>(name, topo);
  };
}

// Registers `name` and its "shield<name>" composite — the base behind
// the generic misuse shield, whose verdicts come from RESILOCK_POLICY
// rules first, with RESILOCK_SHIELD_POLICY as the fallback. Every base
// algorithm is covered, so locks with no bespoke resilient variant
// still get protection. Labels stay valid for the process: `name` is a
// literal, and map keys never move and are never freed (registry()).
template <template <Resilience> class LockT>
void add(Registry& r, const char* name) {
  r.emplace(name, factory<LockT, Identity>(name));
  auto shielded = r.emplace(shielded_name(name), Factory{}).first;
  shielded->second = factory<LockT, Shield>(shielded->first.c_str());
}

template <Resilience R>
using TasSwap = BasicTasLock<R, TasVariant::kTas>;
template <Resilience R>
using TasTatas = BasicTasLock<R, TasVariant::kTatas>;
template <Resilience R>
using TasBackoff = BasicTasLock<R, TasVariant::kBackoff>;

// Never destroyed: its keys are shield lockdep labels, which exit-time
// reports (lockstat, traces) still read after static destruction.
const Registry& registry() {
  static const Registry& r = *[] {
    auto* r = new Registry;
    add<TasTatas>(*r, "TAS");
    add<TasSwap>(*r, "TAS_SWAP");
    add<TasBackoff>(*r, "TAS_BO");
    add<BasicTicketLock>(*r, "Ticket");
    add<BasicPartitionedTicketLock>(*r, "PTKT");
    add<BasicAndersonLock>(*r, "ABQL");
    add<BasicGraunkeThakkarLock>(*r, "GT");
    add<BasicMcsLock>(*r, "MCS");
    add<BasicClhLock>(*r, "CLH");
    add<BasicMcsK42Lock>(*r, "MCS_K42");
    add<BasicHemlock>(*r, "Hemlock");
    add<BasicHmcsLock>(*r, "HMCS");
    add<BasicAhmcsLock>(*r, "AHMCS");
    add<BasicHclhLock>(*r, "HCLH");
    add<BasicHboLock>(*r, "HBO");
    add<CBoBoLock>(*r, "C-BO-BO");
    add<CTktTktLock>(*r, "C-TKT-TKT");
    add<CMcsMcsLock>(*r, "C-MCS-MCS");
    add<CTktMcsLock>(*r, "C-TKT-MCS");
    add<CPtktTktLock>(*r, "C-PTKT-TKT");
    return r;
  }();
  return r;
}

}  // namespace

const std::vector<std::string>& lock_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& [name, _] : registry()) v.push_back(name);
    return v;
  }();
  return names;
}

const std::vector<std::string>& base_lock_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& name : lock_names()) {
      if (!is_shielded_name(name)) v.push_back(name);
    }
    return v;
  }();
  return names;
}

const std::vector<std::string>& table2_lock_names() {
  static const std::vector<std::string> names = {"TAS",  "Ticket", "ABQL",
                                                 "MCS",  "CLH",    "HMCS"};
  return names;
}

bool is_lock_name(std::string_view name) {
  return registry().find(name) != registry().end();
}

std::unique_ptr<AnyLock> make_lock(std::string_view name, Resilience r,
                                   const platform::Topology& topo) {
  auto it = registry().find(name);
  if (it == registry().end()) {
    throw std::out_of_range("resilock: unknown lock algorithm: " +
                            std::string(name));
  }
  return it->second(r, topo);
}

std::string shielded_name(std::string_view base) {
  std::string s;
  s.reserve(base.size() + 8);
  s += "shield<";
  s += base;
  s += '>';
  return s;
}

bool is_shielded_name(std::string_view name) {
  return !shield_base_name(name).empty();
}

std::string_view shield_base_name(std::string_view name) {
  constexpr std::string_view prefix = "shield<";
  if (name.size() > prefix.size() + 1 && name.substr(0, prefix.size()) == prefix &&
      name.back() == '>') {
    return name.substr(prefix.size(), name.size() - prefix.size() - 1);
  }
  return {};
}

}  // namespace resilock
