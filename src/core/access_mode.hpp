// AccessMode: how a thread holds (or is acquiring) a lock.
//
// The protection stack modeled every acquisition as exclusive through
// PR 3; the reader-writer family (core/rw/) breaks that assumption —
// read acquisitions of the same lock coexist, and read/write holds have
// asymmetric deadlock semantics (R–R dependencies can never wedge,
// Linux-lockdep-style). This tag threads the distinction through every
// layer that records acquisitions: the held record's entries (which
// the Shield, lockdep and lockstat share), the Shield
// record/validate/release path, and the order-graph edge recording.
//
// kExclusive is the mutex case and deliberately distinct from kWrite:
// a mutex acquisition is exclusive by protocol, a write acquisition is
// exclusive by *mode* of a lock that also has a shared mode. Both count
// as "write-involved" for deadlock analysis; only rw locks ever record
// kRead/kWrite.
#pragma once

#include <cstdint>

namespace resilock {

enum class AccessMode : std::uint8_t {
  kExclusive = 0,  // plain mutex acquisition
  kRead = 1,       // shared (reader) side of an rw lock
  kWrite = 2,      // exclusive (writer) side of an rw lock
};

constexpr const char* to_string(AccessMode m) noexcept {
  switch (m) {
    case AccessMode::kExclusive: return "exclusive";
    case AccessMode::kRead: return "read";
    case AccessMode::kWrite: return "write";
  }
  return "?";
}

// True when an acquisition in mode `m` can participate in a deadlock
// cycle against another read-mode hold: readers never block readers, so
// only a write-involved dependency is a deadlock ingredient.
constexpr bool is_write_involved(AccessMode m) noexcept {
  return m != AccessMode::kRead;
}

}  // namespace resilock
