#pragma once

/// \file registry.hpp
/// Content-addressed artifact registry for the serve daemon.
///
/// Jobs arriving over the wire name circuits by file path or gen:<profile>
/// spec; what they actually need is the expensive derived state — the
/// CircuitLab bundling the netlist, collapsed fault universe, full-shift
/// baseline and the shared CircuitArtifacts (EvalGraph / SCOAP /
/// CompactModel).  The registry keys that state by a *canonical structural
/// hash* of the netlist, so:
///
///  * concurrent jobs on the same circuit — even submitted under different
///    names or gate orderings — alias one immutable CircuitLab
///    (shared_ptr identity, checked by tests/serve/registry_test.cpp);
///  * construction is single-flight: the first job builds, the rest block
///    on the same future instead of duplicating minutes of baseline ATPG;
///  * eviction under a capped budget is deterministic LRU by a monotonic
///    access tick — replaying the same request sequence always evicts the
///    same entries (no wall-clock in the policy).
///
/// Construction runs under the ambient (token 0) obs scope regardless of
/// the calling job's task context, so cache misses never pollute a job's
/// scoped counter snapshot — a job's counters stay byte-identical to its
/// standalone CLI run whether it hit or missed the cache.

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "vcomp/core/experiment.hpp"

namespace vcomp::serve {

/// 128-bit structural netlist digest (two independent FNV-1a streams).
struct NetlistHash {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const NetlistHash&, const NetlistHash&) = default;
  friend bool operator<(const NetlistHash& a, const NetlistHash& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
  /// 32 lowercase hex digits.
  std::string hex() const;
};

/// Canonical structural hash: combinational gates are hashed sorted by
/// name (so declaration order is irrelevant), while PI / DFF / PO
/// declaration order is hashed as-is — it is semantically meaningful (it
/// fixes scan-cell indices, vector layouts and chain partitions).  Two
/// netlists with the same hash produce byte-identical stitching results.
NetlistHash canonical_netlist_hash(const netlist::Netlist& nl);

class ArtifactRegistry {
 public:
  using LabRef = std::shared_ptr<const core::CircuitLab>;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  /// \p budget caps the number of cached circuits (0 = unlimited).
  /// Entries still being built are never evicted.
  explicit ArtifactRegistry(std::size_t budget = 0);

  /// Checks a job against the circuit's netlist; throws to reject it.
  using NetlistCheck = std::function<void(const netlist::Netlist&)>;

  /// Resolves a circuit spec through serve::load_circuit (which throws
  /// InputError on a bad circuit).  Spec → hash resolutions are memoized
  /// so a cached gen: circuit is not regenerated just to recompute its
  /// hash.  \p check, when given, sees the netlist before any lab is built
  /// or fetched, so a job it rejects costs no baseline ATPG.
  LabRef lab_for_spec(const std::string& spec, bool full_scale,
                      const NetlistCheck& check = {});

  /// Registers an already-parsed netlist (e.g. from a test).
  LabRef lab_for_netlist(std::string name, netlist::Netlist nl);

  Stats stats() const;
  std::size_t size() const;

 private:
  /// The lab cached under \p h, waiting for an in-flight build; on a miss,
  /// builds it with \p build, or returns nullptr when \p build is empty.
  LabRef get_or_build(const NetlistHash& h,
                      const std::function<LabRef()>& build);
  void evict_for_insert_locked();

  struct Entry {
    std::shared_future<LabRef> fut;
    std::uint64_t last_access = 0;
    bool ready = false;  // set under the mutex once fut has a value
  };

  mutable std::mutex m_;
  std::size_t budget_;
  std::uint64_t tick_ = 0;
  std::map<NetlistHash, Entry> entries_;
  std::map<std::string, NetlistHash> spec_memo_;
  Stats stats_;
};

}  // namespace vcomp::serve
