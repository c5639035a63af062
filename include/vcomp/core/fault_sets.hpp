#pragma once

/// \file fault_sets.hpp
/// The paper's three-way fault partition: f_c (caught), f_h (hidden),
/// f_u (uncaught).
///
/// Every fault is in exactly one state.  A hidden fault mutates the next
/// test vector actually applied on a faulty chip, so it is traced forward
/// through its private scan contents (Section 4 of the paper), stored as
/// its difference from the fault-free fabric (scan::FabricDiff; 1.6-1.8
/// cells on average on the s5378, s13207 and s38417 profiles).  Faults
/// may circulate between uncaught and hidden; caught is absorbing.
///
/// hidden() (f_h) and uncaught() (the tracked faults of f_u) stay in
/// fault-index order as faults move, so no walk scans every fault.

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "vcomp/scan/fabric.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::core {

enum class FaultState : std::uint8_t { Uncaught, Hidden, Caught };

class FaultSets {
 public:
  /// \p tracked marks the faults uncaught() lists (e.g. everything but
  /// proven redundancies); empty means every fault.
  explicit FaultSets(std::size_t num_faults,
                     std::vector<std::uint8_t> tracked = {})
      : state_(num_faults, FaultState::Uncaught),
        catch_cycle_(num_faults, 0),
        tracked_(std::move(tracked)),
        num_uncaught_targetable_(num_faults) {
    if (tracked_.empty()) tracked_.assign(num_faults, 1);
    VCOMP_REQUIRE(tracked_.size() == num_faults, "track mask size mismatch");
    for (std::uint32_t i = 0; i < num_faults; ++i)
      if (tracked_[i]) uncaught_.push_back(i);
  }

  std::size_t size() const { return state_.size(); }
  FaultState state(std::size_t i) const { return state_[i]; }

  /// Restricts the subset counted by num_uncaught_targetable() (default:
  /// every fault).  The stitch engine marks the baseline-detectable faults
  /// here so its per-cycle "work left?" check is O(1) instead of a scan.
  void set_targetable(std::vector<std::uint8_t> targetable) {
    VCOMP_REQUIRE(targetable.size() == state_.size(),
                  "targetable mask size mismatch");
    targetable_ = std::move(targetable);
    num_uncaught_targetable_ = 0;
    for (std::size_t i = 0; i < state_.size(); ++i)
      if (targetable_[i] && state_[i] == FaultState::Uncaught)
        ++num_uncaught_targetable_;
  }

  /// Targetable faults currently in f_u, maintained on state transitions.
  std::size_t num_uncaught_targetable() const {
    return num_uncaught_targetable_;
  }

  /// Moves a fault to f_c; \p cycle records when it was observed.
  void set_caught(std::size_t i, std::size_t cycle) {
    VCOMP_REQUIRE(state_[i] != FaultState::Caught, "fault already caught");
    leave_uncaught(i);
    hidden_.erase(static_cast<std::uint32_t>(i));
    state_[i] = FaultState::Caught;
    catch_cycle_[i] = cycle;
    ++num_caught_;
  }

  /// Moves a fault to f_h, or replaces a hidden fault's difference:
  /// \p diff lists, ascending, the flat positions where its fabric differs
  /// from the fault-free one (never empty: an equal fabric is uncaught).
  void set_hidden(std::size_t i, std::span<const std::uint32_t> diff) {
    VCOMP_REQUIRE(state_[i] != FaultState::Caught,
                  "caught faults never become hidden");
    VCOMP_REQUIRE(!diff.empty(), "a hidden fault's fabric must differ");
    leave_uncaught(i);
    state_[i] = FaultState::Hidden;
    hidden_[static_cast<std::uint32_t>(i)].assign(diff.begin(), diff.end());
  }

  /// Hidden fault whose faulty machine re-converged: back to f_u.
  void set_uncaught(std::size_t i) {
    VCOMP_REQUIRE(state_[i] == FaultState::Hidden,
                  "only hidden faults fall back to uncaught");
    hidden_.erase(static_cast<std::uint32_t>(i));
    state_[i] = FaultState::Uncaught;
    if (targetable(i)) ++num_uncaught_targetable_;
    if (tracked_[i]) returned_.push_back(static_cast<std::uint32_t>(i));
    stale_ = true;
  }

  /// f_h in fault-index order, each fault with its difference.  A shift
  /// may empty a difference (every differing cell shifted out) until the
  /// cycle's advance settles the fault.
  const std::map<std::uint32_t, scan::FabricDiff>& hidden() const {
    return hidden_;
  }
  scan::FabricDiff& mutable_hidden_diff(std::size_t i) {
    return hidden_.at(static_cast<std::uint32_t>(i));
  }

  /// The tracked faults of f_u, ascending.  Transitions only mark the
  /// list stale, and this read settles it in one pass (so it is not safe
  /// to call from two threads at once); a caller may walk the returned
  /// list while its faults move, until the next read.
  const std::vector<std::uint32_t>& uncaught() const {
    if (!stale_) return uncaught_;
    // A fault that left and came back since the last read is listed
    // twice, and one that came back and left again is not uncaught.
    std::sort(returned_.begin(), returned_.end());
    const auto mid =
        uncaught_.insert(uncaught_.end(), returned_.begin(), returned_.end());
    std::inplace_merge(uncaught_.begin(), mid, uncaught_.end());
    uncaught_.erase(std::unique(uncaught_.begin(), uncaught_.end()),
                    uncaught_.end());
    std::erase_if(uncaught_, [this](std::uint32_t i) {
      return state_[i] != FaultState::Uncaught;
    });
    returned_.clear();
    stale_ = false;
    return uncaught_;
  }

  std::size_t catch_cycle(std::size_t i) const {
    VCOMP_REQUIRE(state_[i] == FaultState::Caught, "fault not caught");
    return catch_cycle_[i];
  }

  std::size_t num_caught() const { return num_caught_; }
  std::size_t num_hidden() const { return hidden_.size(); }

 private:
  bool targetable(std::size_t i) const {
    return targetable_.empty() || targetable_[i] != 0;
  }
  void leave_uncaught(std::size_t i) {
    if (state_[i] != FaultState::Uncaught) return;
    if (targetable(i)) --num_uncaught_targetable_;
    stale_ = true;
  }

  std::vector<FaultState> state_;
  std::vector<std::size_t> catch_cycle_;
  std::vector<std::uint8_t> tracked_;
  std::map<std::uint32_t, scan::FabricDiff> hidden_;
  std::size_t num_caught_ = 0;
  std::vector<std::uint8_t> targetable_;
  std::size_t num_uncaught_targetable_ = 0;
  // uncaught() settles these: the list as of its last read, the tracked
  // faults that came back since, and whether any fault moved.
  mutable std::vector<std::uint32_t> uncaught_, returned_;
  mutable bool stale_ = false;
};

}  // namespace vcomp::core
