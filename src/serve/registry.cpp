#include "vcomp/serve/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "vcomp/serve/job.hpp"
#include "vcomp/serve/protocol.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::serve {

namespace {

/// Two independent FNV-1a streams over the same byte feed; 2^-128
/// collision odds are plenty for a cache key.
struct Fnv2 {
  std::uint64_t a = 0xcbf29ce484222325ULL;
  std::uint64_t b = 0x84222325cbf29ce4ULL;

  void feed(std::string_view s) {
    for (const char c : s) {
      a = (a ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
      b = (b ^ static_cast<unsigned char>(c)) * 0x00000100000001b3ULL;
      b ^= b >> 29;
    }
  }
  void feed_sep() { feed(std::string_view("\x1f", 1)); }
  void feed_u64(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
    feed(buf);
    feed_sep();
  }
};

}  // namespace

std::string NetlistHash::hex() const {
  char buf[36];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

NetlistHash canonical_netlist_hash(const netlist::Netlist& nl) {
  VCOMP_REQUIRE(nl.finalized(), "hashing requires a finalized netlist");
  Fnv2 h;
  // Declaration order of PIs / DFFs / POs is semantic: it fixes scan-cell
  // indices and vector layouts, so it participates in the hash as-is.
  h.feed("pi");
  h.feed_sep();
  for (const netlist::GateId id : nl.inputs()) {
    h.feed(nl.gate(id).name);
    h.feed_sep();
  }
  h.feed("dff");
  h.feed_sep();
  for (const netlist::GateId id : nl.dffs()) {
    const netlist::Gate& g = nl.gate(id);
    h.feed(g.name);
    h.feed_sep();
    h.feed(g.fanin.empty() ? std::string_view{} : nl.gate(g.fanin[0]).name);
    h.feed_sep();
  }
  // Combinational gates sorted by (unique) name: declaration order is an
  // artifact of parse order, not circuit structure.
  std::vector<netlist::GateId> comb(nl.topo_order());
  std::sort(comb.begin(), comb.end(),
            [&nl](netlist::GateId x, netlist::GateId y) {
              return nl.gate(x).name < nl.gate(y).name;
            });
  h.feed("gates");
  h.feed_sep();
  for (const netlist::GateId id : comb) {
    const netlist::Gate& g = nl.gate(id);
    h.feed(g.name);
    h.feed_sep();
    h.feed(netlist::to_string(g.type));
    h.feed_sep();
    for (const netlist::GateId f : g.fanin) {
      h.feed(nl.gate(f).name);
      h.feed_sep();
    }
    h.feed_sep();
  }
  h.feed("po");
  h.feed_sep();
  for (const netlist::GateId id : nl.outputs()) {
    h.feed(nl.gate(id).name);
    h.feed_sep();
  }
  return NetlistHash{h.a, h.b};
}

ArtifactRegistry::ArtifactRegistry(std::size_t budget) : budget_(budget) {}

ArtifactRegistry::Stats ArtifactRegistry::stats() const {
  const std::lock_guard<std::mutex> lk(m_);
  return stats_;
}

std::size_t ArtifactRegistry::size() const {
  const std::lock_guard<std::mutex> lk(m_);
  return entries_.size();
}

void ArtifactRegistry::evict_for_insert_locked() {
  if (budget_ == 0) return;
  while (entries_.size() >= budget_) {
    // Deterministic LRU over ready entries; in-flight builds are pinned.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.ready) continue;
      if (victim == entries_.end() ||
          it->second.last_access < victim->second.last_access)
        victim = it;
    }
    if (victim == entries_.end()) return;  // everything is mid-build
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

ArtifactRegistry::LabRef ArtifactRegistry::get_or_build(
    const NetlistHash& h, const std::function<LabRef()>& build) {
  std::shared_future<LabRef> fut;
  std::promise<LabRef> mine;
  bool builder = false;
  {
    const std::lock_guard<std::mutex> lk(m_);
    ++tick_;
    auto it = entries_.find(h);
    if (it != entries_.end()) {
      it->second.last_access = tick_;
      fut = it->second.fut;
      ++stats_.hits;
    } else if (!build) {
      return nullptr;
    } else {
      evict_for_insert_locked();
      Entry e;
      e.fut = mine.get_future().share();
      e.last_access = tick_;
      fut = e.fut;
      entries_.emplace(h, std::move(e));
      ++stats_.misses;
      builder = true;
    }
  }
  if (builder) {
    // Build under the ambient (token 0) scope: artifact construction is a
    // shared, cached cost and must never land in one job's counter
    // snapshot (which would make cache hits observable).
    const util::ScopedTaskContext ambient({});
    try {
      LabRef lab = build();
      mine.set_value(lab);
      const std::lock_guard<std::mutex> lk(m_);
      auto it = entries_.find(h);
      if (it != entries_.end()) it->second.ready = true;
    } catch (...) {
      mine.set_exception(std::current_exception());
      // Drop the poisoned entry so a later request can retry.
      const std::lock_guard<std::mutex> lk(m_);
      entries_.erase(h);
      throw;
    }
  }
  return fut.get();
}

ArtifactRegistry::LabRef ArtifactRegistry::lab_for_spec(
    const std::string& spec, bool full_scale, const NetlistCheck& check) {
  const std::string memo_key = circuit_label(spec, full_scale);

  // Spec → hash memo: a repeat spec goes straight to the cache key, so a
  // *hit* never re-synthesizes the circuit.
  std::optional<NetlistHash> known;
  {
    const std::lock_guard<std::mutex> lk(m_);
    const auto it = spec_memo_.find(memo_key);
    if (it != spec_memo_.end()) known = it->second;
  }
  if (known) {
    if (LabRef lab = get_or_build(*known, {})) {
      if (check) check(lab->netlist());
      return lab;
    }
  }

  // First sighting, or an evicted entry: materialize the netlist to learn
  // its hash and check the job, under the ambient scope so a job's
  // counters never include circuit synthesis.
  const util::ScopedTaskContext ambient({});
  netlist::Netlist nl = load_circuit(spec, full_scale);
  if (check) check(nl);
  const NetlistHash h = canonical_netlist_hash(nl);
  {
    const std::lock_guard<std::mutex> lk(m_);
    spec_memo_[memo_key] = h;
  }
  return get_or_build(h, [&] {
    return std::make_shared<const core::CircuitLab>(memo_key, std::move(nl));
  });
}

ArtifactRegistry::LabRef ArtifactRegistry::lab_for_netlist(
    std::string name, netlist::Netlist nl) {
  const NetlistHash h = canonical_netlist_hash(nl);
  return get_or_build(h, [&] {
    return std::make_shared<const core::CircuitLab>(std::move(name),
                                                    std::move(nl));
  });
}

}  // namespace vcomp::serve
