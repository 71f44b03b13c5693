#include "core/lock_registry.hpp"

#include <functional>
#include <map>
#include <stdexcept>

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

// One factory per algorithm; the flavor decides which template
// instantiation backs it. `Wrap` optionally interposes an adapter
// around the flavored lock — the identity by default, Shield for the
// "shield<X>" composites (flavor still selects the BASE protocol; the
// shield's verdicts come from RESILOCK_POLICY rules first, with the
// static policy — RESILOCK_SHIELD_POLICY — as the fallback).
template <typename T>
using Identity = T;

// Registry-made shields carry their registry name as the lockdep class
// label, so order-cycle reports read "shield<MCS>#12 -> shield<MCS>#13"
// instead of bare class numbers. `name` is a string literal captured by
// the factory — stable for the process lifetime, as the label requires.
template <typename Adapter>
std::unique_ptr<Adapter> label_for_lockdep(std::unique_ptr<Adapter> a,
                                           const char* name) {
  if constexpr (requires { a->underlying().set_lockdep_label(name); }) {
    a->underlying().set_lockdep_label(name);
  }
  return a;
}

template <template <Resilience> class LockT,
          template <typename> class Wrap = Identity>
Factory simple_factory(const char* name) {
  return [name](Resilience r,
                const platform::Topology&) -> std::unique_ptr<AnyLock> {
    if (r == kOriginal) {
      return label_for_lockdep(
          std::make_unique<AnyLockAdapter<Wrap<LockT<kOriginal>>>>(name),
          name);
    }
    return label_for_lockdep(
        std::make_unique<AnyLockAdapter<Wrap<LockT<kResilient>>>>(name),
        name);
  };
}

template <template <Resilience> class LockT,
          template <typename> class Wrap = Identity>
Factory topo_factory(const char* name) {
  return [name](Resilience r, const platform::Topology& topo)
             -> std::unique_ptr<AnyLock> {
    if (r == kOriginal) {
      return label_for_lockdep(
          std::make_unique<AnyLockAdapter<Wrap<LockT<kOriginal>>>>(name,
                                                                   topo),
          name);
    }
    return label_for_lockdep(
        std::make_unique<AnyLockAdapter<Wrap<LockT<kResilient>>>>(name,
                                                                  topo),
        name);
  };
}

template <Resilience R>
using TasSwap = BasicTasLock<R, TasVariant::kTas>;
template <Resilience R>
using TasTatas = BasicTasLock<R, TasVariant::kTatas>;
template <Resilience R>
using TasBackoff = BasicTasLock<R, TasVariant::kBackoff>;

const std::map<std::string, Factory, std::less<>>& registry() {
  static const std::map<std::string, Factory, std::less<>> r = {
      {"TAS", simple_factory<TasTatas>("TAS")},
      {"TAS_SWAP", simple_factory<TasSwap>("TAS_SWAP")},
      {"TAS_BO", simple_factory<TasBackoff>("TAS_BO")},
      {"Ticket", simple_factory<BasicTicketLock>("Ticket")},
      {"PTKT", simple_factory<BasicPartitionedTicketLock>("PTKT")},
      {"ABQL", simple_factory<BasicAndersonLock>("ABQL")},
      {"GT", simple_factory<BasicGraunkeThakkarLock>("GT")},
      {"MCS", simple_factory<BasicMcsLock>("MCS")},
      {"CLH", simple_factory<BasicClhLock>("CLH")},
      {"MCS_K42", simple_factory<BasicMcsK42Lock>("MCS_K42")},
      {"Hemlock", simple_factory<BasicHemlock>("Hemlock")},
      {"HMCS", topo_factory<BasicHmcsLock>("HMCS")},
      {"AHMCS", topo_factory<BasicAhmcsLock>("AHMCS")},
      {"HCLH", topo_factory<BasicHclhLock>("HCLH")},
      {"HBO", topo_factory<BasicHboLock>("HBO")},
      {"C-BO-BO", topo_factory<CBoBoLock>("C-BO-BO")},
      {"C-TKT-TKT", topo_factory<CTktTktLock>("C-TKT-TKT")},
      {"C-MCS-MCS", topo_factory<CMcsMcsLock>("C-MCS-MCS")},
      {"C-TKT-MCS", topo_factory<CTktMcsLock>("C-TKT-MCS")},
      {"C-PTKT-TKT", topo_factory<CPtktTktLock>("C-PTKT-TKT")},
      // Ownership-shield composites (src/shield/): shield<X> is X behind
      // the generic misuse shield. Every base algorithm is covered so
      // locks with no bespoke resilient variant still get protection.
      {"shield<TAS>", simple_factory<TasTatas, Shield>("shield<TAS>")},
      {"shield<TAS_SWAP>",
       simple_factory<TasSwap, Shield>("shield<TAS_SWAP>")},
      {"shield<TAS_BO>",
       simple_factory<TasBackoff, Shield>("shield<TAS_BO>")},
      {"shield<Ticket>",
       simple_factory<BasicTicketLock, Shield>("shield<Ticket>")},
      {"shield<PTKT>",
       simple_factory<BasicPartitionedTicketLock, Shield>("shield<PTKT>")},
      {"shield<ABQL>",
       simple_factory<BasicAndersonLock, Shield>("shield<ABQL>")},
      {"shield<GT>",
       simple_factory<BasicGraunkeThakkarLock, Shield>("shield<GT>")},
      {"shield<MCS>", simple_factory<BasicMcsLock, Shield>("shield<MCS>")},
      {"shield<CLH>", simple_factory<BasicClhLock, Shield>("shield<CLH>")},
      {"shield<MCS_K42>",
       simple_factory<BasicMcsK42Lock, Shield>("shield<MCS_K42>")},
      {"shield<Hemlock>",
       simple_factory<BasicHemlock, Shield>("shield<Hemlock>")},
      {"shield<HMCS>", topo_factory<BasicHmcsLock, Shield>("shield<HMCS>")},
      {"shield<AHMCS>", topo_factory<BasicAhmcsLock, Shield>("shield<AHMCS>")},
      {"shield<HCLH>", topo_factory<BasicHclhLock, Shield>("shield<HCLH>")},
      {"shield<HBO>", topo_factory<BasicHboLock, Shield>("shield<HBO>")},
      {"shield<C-BO-BO>", topo_factory<CBoBoLock, Shield>("shield<C-BO-BO>")},
      {"shield<C-TKT-TKT>",
       topo_factory<CTktTktLock, Shield>("shield<C-TKT-TKT>")},
      {"shield<C-MCS-MCS>",
       topo_factory<CMcsMcsLock, Shield>("shield<C-MCS-MCS>")},
      {"shield<C-TKT-MCS>",
       topo_factory<CTktMcsLock, Shield>("shield<C-TKT-MCS>")},
      {"shield<C-PTKT-TKT>",
       topo_factory<CPtktTktLock, Shield>("shield<C-PTKT-TKT>")},
  };
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
