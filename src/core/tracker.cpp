#include "vcomp/core/tracker.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <iterator>

#include "vcomp/obs/obs.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::core {

using atpg::TestVector;
using sim::Word;

namespace {

// Registry mirrors of the tracker's PhaseProfile fields: process-wide
// totals (exact, thread-count invariant) plus wall-clock timers (reported
// only), fed by the same Spans as the profile.
struct TrackerMetrics {
  obs::Counter cycles = obs::counter("tracker.cycles");
  obs::Counter faults_classified = obs::counter("tracker.faults_classified");
  obs::Counter hidden_advanced = obs::counter("tracker.hidden_advanced");
  obs::Counter caught_at_shift = obs::counter("tracker.caught_at_shift");
  obs::Counter caught_at_po = obs::counter("tracker.caught_at_po");
  obs::Counter new_hidden = obs::counter("tracker.new_hidden");
  obs::Counter hidden_reverted = obs::counter("tracker.hidden_reverted");
  obs::Counter terminal_caught = obs::counter("tracker.terminal_caught");
  obs::Timer shift_seconds = obs::timer("tracker.shift_seconds");
  obs::Timer classify_seconds = obs::timer("tracker.classify_seconds");
  obs::Timer advance_seconds = obs::timer("tracker.advance_seconds");
  obs::Timer terminal_seconds = obs::timer("tracker.terminal_seconds");
};

const TrackerMetrics& tracker_metrics() {
  static const TrackerMetrics m;
  return m;
}

}  // namespace

StitchTracker::StitchTracker(sim::EvalGraph::Ref graph,
                             const fault::CollapsedFaults& faults,
                             scan::CaptureMode capture, scan::Fabric fabric,
                             scan::FabricOut out_model,
                             std::vector<std::uint8_t> track,
                             std::shared_ptr<const fault::CompactModel> model)
    : nl_(&graph->netlist()),
      faults_(&faults),
      capture_(capture),
      fabric_(std::move(fabric)),
      out_model_(std::move(out_model)),
      sets_(faults.size(), std::move(track)),
      state_(fabric_),
      model_(model != nullptr
                 ? std::move(model)
                 : std::make_shared<const fault::CompactModel>(
                       graph, faults.faults(), /*enable=*/true)),
      ssims_(model_->graph()),
      sim0_(&ssims_.at(0)) {
  VCOMP_REQUIRE(model_->num_faults() == faults.size(),
                "shared compact model does not cover the fault list");
  VCOMP_REQUIRE(nl_->num_dffs() > 0, "tracker requires a scan fabric");
  VCOMP_REQUIRE(&fabric_.netlist() == nl_,
                "fabric must partition the tracked netlist");
  VCOMP_REQUIRE(out_model_.chains.size() == fabric_.num_chains(),
                "scan-out model must cover every chain");
  for (std::size_t c = 0; c < fabric_.num_chains(); ++c)
    for (std::uint32_t t : out_model_.chains[c].taps)
      VCOMP_REQUIRE(t < fabric_.chain_length(c),
                    "scan-out tap beyond chain length");
}

StitchTracker::StitchTracker(const netlist::Netlist& nl,
                             const fault::CollapsedFaults& faults,
                             scan::CaptureMode capture, scan::Fabric fabric,
                             scan::FabricOut out_model,
                             std::vector<std::uint8_t> track)
    : StitchTracker(sim::EvalGraph::compile(nl), faults, capture,
                    std::move(fabric), std::move(out_model),
                    std::move(track)) {}

StitchTracker::StitchTracker(sim::EvalGraph::Ref graph,
                             const fault::CollapsedFaults& faults,
                             scan::CaptureMode capture,
                             scan::ScanOutModel out_model,
                             std::vector<std::uint8_t> track)
    : StitchTracker(graph, faults, capture, scan::Fabric(graph->netlist()),
                    scan::FabricOut{{std::move(out_model)}},
                    std::move(track)) {}

StitchTracker::StitchTracker(const netlist::Netlist& nl,
                             const fault::CollapsedFaults& faults,
                             scan::CaptureMode capture,
                             scan::ScanOutModel out_model,
                             std::vector<std::uint8_t> track)
    : StitchTracker(sim::EvalGraph::compile(nl), faults, capture,
                    std::move(out_model), std::move(track)) {}

void StitchTracker::load_stimulus(fault::DiffSim& sim,
                                  const TestVector& v) const {
  for (std::size_t i = 0; i < nl_->num_inputs(); ++i)
    sim.good().set_input(i, v.pi[i] ? ~Word{0} : Word{0});
  for (std::size_t i = 0; i < nl_->num_dffs(); ++i)
    sim.good().set_state(i, v.ppi[i] ? ~Word{0} : Word{0});
}

scan::FabricState StitchTracker::hidden_state(std::size_t i) const {
  std::vector<std::uint8_t> bits;
  state_.flat_bits(bits);
  for (std::uint32_t p : sets_.hidden().at(i)) bits[p] ^= 1;
  scan::FabricState s(fabric_);
  s.load(bits);
  return s;
}

CycleStats StitchTracker::apply_first(const TestVector& v) {
  VCOMP_REQUIRE(cycle_ == 0, "apply_first must be the first application");
  return apply(v, fabric_.plan_for(nl_->num_dffs()), /*first=*/true);
}

CycleStats StitchTracker::apply_stitched(const TestVector& v,
                                         const scan::ShiftPlan& plan) {
  VCOMP_REQUIRE(cycle_ > 0, "apply_first must precede stitched vectors");
  VCOMP_REQUIRE(plan.size() == fabric_.num_chains(), "plan size mismatch");
  const std::size_t total = scan::Fabric::plan_total(plan);
  VCOMP_REQUIRE(total >= 1 && total <= nl_->num_dffs(),
                "shift size out of range");
  // Stitching invariant over the 2-D retained region: on every chain the
  // retained vector bits equal the fabric content.
  for (std::size_t c = 0; c < fabric_.num_chains(); ++c) {
    VCOMP_REQUIRE(plan[c] <= fabric_.chain_length(c),
                  "per-chain shift exceeds chain length");
    for (std::size_t p = plan[c]; p < fabric_.chain_length(c); ++p)
      VCOMP_REQUIRE(v.ppi[fabric_.dff_at(c, p)] ==
                        state_.chain(c).at(p - plan[c]),
                    "vector violates the stitched (retained) scan bits");
  }
  return apply(v, plan, /*first=*/false);
}

CycleStats StitchTracker::apply_stitched(const TestVector& v, std::size_t s) {
  return apply_stitched(v, fabric_.plan_for(std::min(s, nl_->num_dffs())));
}

CycleStats StitchTracker::apply(const TestVector& v,
                                const scan::ShiftPlan& plan, bool first) {
  const std::size_t L = nl_->num_dffs();
  const std::size_t s = scan::Fabric::plan_total(plan);
  const TrackerMetrics& m = tracker_metrics();
  CycleStats st;
  st.shift = s;

  if (first) {
    advance_.clear();  // nothing can be hidden before vector 1
    by_pos_.resize(L);
    for (std::size_t p = 0; p < L; ++p)
      by_pos_[p] = v.ppi[fabric_.dff_at_flat(p)];
    state_.load(by_pos_);
  } else {
    // Shift phase: the ATE compares the scan-out observations of every
    // chain against the fault-free values; a hidden fault emitting any
    // different value on any chain is caught right here.  Both machines
    // take the same scan-in bits, so the catch reads the pre-shift
    // difference, and the survivors slide it and are advanced below.
    const obs::Span span("tracker.shift", m.shift_seconds,
                         profile_.shift_seconds);
    st.caught_at_shift = catch_observed(plan);
    for (std::uint32_t i : advance_)
      scan::slide_difference(sets_.mutable_hidden_diff(i), state_, plan);
    in_bits_.resize(s);
    std::size_t off = 0;
    for (std::size_t c = 0; c < fabric_.num_chains(); ++c) {
      for (std::size_t j = 0; j < plan[c]; ++j)
        in_bits_[off + j] = v.ppi[fabric_.dff_at(c, plan[c] - 1 - j)];
      off += plan[c];
    }
    state_.shift(plan, in_bits_);
  }
  ++cycle_;

  std::size_t classified = 0;
  {
    // The classify span also times the fault-free apply and capture: shard
    // 0 classifies on that same simulation.  Uncaught faults held the same
    // chain content as the fault-free machine, so they saw exactly v.
    const obs::Span span("tracker.classify", m.classify_seconds,
                         profile_.classify_seconds);
    load_stimulus(*sim0_, v);
    sim0_->commit_good();
    ppo_ff_.resize(L);
    for (std::size_t p = 0; p < L; ++p)
      ppo_ff_[p] = static_cast<std::uint8_t>(
          sim0_->good_sim().next_state(fabric_.dff_at_flat(p)) & 1);
    state_.capture(ppo_ff_, capture_);
    const std::vector<std::uint32_t>& uncaught = sets_.uncaught();
    classified = uncaught.size();
    classify_regions(uncaught);
    apply_verdicts(uncaught, st);
  }
  profile_.faults_classified += classified;

  {
    const obs::Span span("tracker.advance", m.advance_seconds,
                         profile_.advance_seconds);
    advance_lanes(v);
    apply_verdicts(advance_, st);
  }
  profile_.hidden_advanced += advance_.size();
  m.cycles.inc();
  m.faults_classified.add(classified);
  m.hidden_advanced.add(advance_.size());
  m.caught_at_shift.add(st.caught_at_shift);
  m.caught_at_po.add(st.caught_at_po);
  m.new_hidden.add(st.new_hidden);
  m.hidden_reverted.add(st.hidden_reverted);

  st.hidden_after = sets_.num_hidden();
  return st;
}

std::size_t StitchTracker::catch_observed(const scan::ShiftPlan& plan) {
  advance_.clear();
  observe_list_.clear();
  for (const auto& [i, diff] : sets_.hidden())
    (scan::observes_difference(diff, state_, plan, out_model_) ? observe_list_
                                                               : advance_)
        .push_back(i);
  for (std::uint32_t i : observe_list_) sets_.set_caught(i, cycle_ + 1);
  return observe_list_.size();
}

void StitchTracker::classify_regions(std::span<const std::uint32_t> work) {
  // One region call over the whole list against sim0_'s committed vector:
  // a broadcast stimulus, so every answer is all lanes or none.
  if (verdicts_.size() < work.size()) verdicts_.resize(work.size());
  sim0_->simulate_regions(
      *model_, work, [&](std::size_t n, const fault::DiffSim::Effect& eff) {
        Verdict& vd = verdicts_[n];
        vd.caught = eff.po_any != 0;
        vd.diff.clear();
        if (vd.caught) return;
        for (const auto& d : eff.ppo_diffs)
          vd.diff.push_back(
              static_cast<std::uint32_t>(fabric_.flat_of(d.dff_index)));
        std::sort(vd.diff.begin(), vd.diff.end());
      });
}

void StitchTracker::advance_lanes(const TestVector& v) {
  // Lanes are fixed 64-fault blocks of the list and shards take whole
  // blocks, so the passes, and with them the diffsim counters, are the
  // same for every thread count.
  const std::span<const std::uint32_t> work = advance_;
  if (verdicts_.size() < work.size()) verdicts_.resize(work.size());
  constexpr std::size_t kLanes = fault::DiffSim::kLanes;
  const std::size_t blocks = (work.size() + kLanes - 1) / kLanes;
  util::parallel_for_shards(
      blocks, ssims_.max_shards(),
      [&](std::size_t shard, std::size_t b, std::size_t e) {
        fault::DiffSim& sim = ssims_.at(shard);
        if (shard != 0) {  // shard 0 is sim0_, already committed
          load_stimulus(sim, v);
          sim.commit_good();
        }
        std::array<const fault::MappedFault*, kLanes> lane_faults;
        std::vector<fault::DiffSim::FlippedCell> flipped;
        for (std::size_t blk = b; blk < e; ++blk) {
          const std::size_t base = blk * kLanes;
          const std::size_t count = std::min(kLanes, work.size() - base);
          flipped.clear();
          for (std::size_t k = 0; k < count; ++k) {
            const std::uint32_t i = work[base + k];
            lane_faults[k] = &model_->mapped(i);
            verdicts_[base + k].diff.clear();
            for (std::uint32_t p : sets_.hidden().at(i))
              flipped.push_back(
                  {fabric_.dff_at_flat(p), static_cast<std::uint32_t>(k)});
          }
          const auto eff = sim.simulate_lanes(
              std::span<const fault::MappedFault* const>(lane_faults.data(),
                                                         count),
              flipped);
          for (const auto& d : eff.ppo_diffs) {
            const auto p =
                static_cast<std::uint32_t>(fabric_.flat_of(d.dff_index));
            for (Word bits = d.diff & ~eff.po_any; bits != 0;
                 bits &= bits - 1)
              verdicts_[base + std::countr_zero(bits)].diff.push_back(p);
          }
          for (std::size_t k = 0; k < count; ++k) {
            Verdict& vd = verdicts_[base + k];
            vd.caught = (eff.po_any >> k) & 1;
            std::sort(vd.diff.begin(), vd.diff.end());
          }
        }
      });
}

void StitchTracker::apply_verdicts(std::span<const std::uint32_t> work,
                                   CycleStats& st) {
  for (std::size_t n = 0; n < work.size(); ++n) {
    const std::uint32_t i = work[n];
    Verdict& vd = verdicts_[n];
    const bool hidden = sets_.state(i) == FaultState::Hidden;
    if (hidden && capture_ == scan::CaptureMode::VXor) {
      // VXor capture adds the next state onto the cells: the old
      // difference stays, and a cell it shares with the flips cancels.
      const scan::FabricDiff& old = sets_.hidden().at(i);
      fold_.clear();
      std::set_symmetric_difference(vd.diff.begin(), vd.diff.end(),
                                    old.begin(), old.end(),
                                    std::back_inserter(fold_));
      vd.diff.swap(fold_);
    }
    if (vd.caught) {
      sets_.set_caught(i, cycle_);
      ++st.caught_at_po;
    } else if (!vd.diff.empty()) {
      if (!hidden) ++st.new_hidden;
      sets_.set_hidden(i, vd.diff);
    } else if (hidden) {
      sets_.set_uncaught(i);
      ++st.hidden_reverted;
    }
  }
}

bool StitchTracker::partial_observe_suffices(
    const scan::ShiftPlan& plan) const {
  const obs::Span span("tracker.partial_observe",
                       tracker_metrics().terminal_seconds,
                       profile_.terminal_seconds);
  for (const auto& [i, diff] : sets_.hidden())
    if (!scan::observes_difference(diff, state_, plan, out_model_))
      return false;
  return true;
}

bool StitchTracker::partial_observe_suffices(std::size_t s) const {
  return partial_observe_suffices(fabric_.plan_for(s));
}

std::size_t StitchTracker::terminal_observe(const scan::ShiftPlan& plan) {
  VCOMP_REQUIRE(plan.size() == fabric_.num_chains(), "plan size mismatch");
  VCOMP_REQUIRE(scan::Fabric::plan_total(plan) <= nl_->num_dffs(),
                "observe size out of range");
  const TrackerMetrics& m = tracker_metrics();
  const obs::Span span("tracker.terminal_observe", m.terminal_seconds,
                       profile_.terminal_seconds);
  const std::size_t caught = catch_observed(plan);
  m.terminal_caught.add(caught);
  return caught;
}

std::size_t StitchTracker::terminal_observe(std::size_t s) {
  return terminal_observe(fabric_.plan_for(s));
}

}  // namespace vcomp::core
