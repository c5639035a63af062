#include "vcomp/core/tracker.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "vcomp/obs/obs.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::core {

using atpg::TestVector;
using sim::Block;
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
      track_(std::move(track)),
      sets_(faults.size()),
      state_(fabric_),
      model_(model != nullptr
                 ? std::move(model)
                 : std::make_shared<const fault::CompactModel>(
                       graph, faults.faults(), /*enable=*/true)),
      ssims_(model_->graph()),
      sim0_(&ssims_.at(0)),
      lanes_(model_->graph()),
      sf_state_(fabric_) {
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
  if (track_.empty()) track_.assign(faults.size(), 1);
  VCOMP_REQUIRE(track_.size() == faults.size(), "track mask size mismatch");
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

void StitchTracker::read_capture_bits() {
  const std::size_t L = nl_->num_dffs();
  ppo_ff_.resize(L);
  for (std::size_t p = 0; p < L; ++p)
    ppo_ff_[p] = static_cast<std::uint8_t>(
        sim0_->good_sim().next_state(fabric_.dff_at_flat(p)) & 1);
}

void StitchTracker::read_po_bits() {
  po_ff_.resize(nl_->num_outputs());
  for (std::size_t i = 0; i < po_ff_.size(); ++i)
    po_ff_[i] = static_cast<std::uint8_t>(sim0_->good_sim().output(i) & 1);
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
  const std::size_t npi = nl_->num_inputs();
  const std::size_t npo = nl_->num_outputs();
  const std::size_t s = scan::Fabric::plan_total(plan);
  const TrackerMetrics& m = tracker_metrics();
  CycleStats st;
  st.shift = s;

  if (first) {
    hidden_before_.clear();  // nothing can be hidden before vector 1
    by_pos_.resize(L);
    for (std::size_t p = 0; p < L; ++p)
      by_pos_[p] = v.ppi[fabric_.dff_at_flat(p)];
    state_.load(by_pos_);
  } else {
    // Shift phase: the ATE compares the scan-out observations of every
    // chain against the fault-free values; a hidden fault emitting any
    // different value on any chain is caught right here.  Both machines
    // take the same scan-in bits, so the catch reads the difference of
    // the pre-shift fabrics, and only the survivors shift.  The snapshot
    // also feeds the advance phase below (shift-caught faults are skipped
    // there).
    const obs::Span span("tracker.shift", m.shift_seconds,
                         profile_.shift_seconds);
    in_bits_.resize(s);
    std::size_t off = 0;
    for (std::size_t c = 0; c < fabric_.num_chains(); ++c) {
      for (std::size_t j = 0; j < plan[c]; ++j)
        in_bits_[off + j] = v.ppi[fabric_.dff_at(c, plan[c] - 1 - j)];
      off += plan[c];
    }
    sets_.hidden_list(hidden_before_);
    for (std::size_t i : hidden_before_) {
      if (scan::observes_difference(sets_.hidden_state(i), state_, plan,
                                    out_model_)) {
        sets_.set_caught(i, cycle_ + 1);
        ++st.caught_at_shift;
      } else {
        sets_.mutable_hidden_state(i).shift(plan, in_bits_);
      }
    }
    state_.shift(plan, in_bits_);
  }
  ++cycle_;

  {
    // The classify span also times the fault-free apply and capture: shard
    // 0 classifies on that same simulation.
    const obs::Span span("tracker.classify", m.classify_seconds,
                         profile_.classify_seconds);
    // Apply & capture the fault-free machine.
    state_.flat_bits(pre_capture_);
    load_stimulus(*sim0_, v);
    sim0_->commit_good();
    read_po_bits();
    read_capture_bits();
    state_.capture(ppo_ff_, capture_);

    // Classify freshly differentiated uncaught faults.  Their machines
    // held the same chain content as the fault-free one, so they saw
    // exactly v: one fault-lane DiffSim pass carries 64 of them under the
    // broadcast stimulus.  Lanes are fixed 64-fault blocks of the work
    // list and shards take whole blocks, each driving a private DiffSim
    // and writing its faults' slots of the verdict buffer; the merge below
    // applies state transitions serially in fault-index order, so the
    // CycleStats, FaultSets and diffsim counters are identical for every
    // thread count.
    classify_.clear();
    for (std::size_t i = 0; i < faults_->size(); ++i)
      if (track_[i] && sets_.state(i) == FaultState::Uncaught)
        classify_.push_back(i);
    if (verdicts_.size() < classify_.size()) verdicts_.resize(classify_.size());
    constexpr std::size_t kLanes = fault::DiffSim::kLanes;
    const std::size_t blocks = (classify_.size() + kLanes - 1) / kLanes;
    util::parallel_for_shards(
        blocks, ssims_.max_shards(),
        [&](std::size_t shard, std::size_t b, std::size_t e) {
          fault::DiffSim& sim = ssims_.at(shard);
          if (shard != 0) {  // shard 0 is sim0_, already committed above
            load_stimulus(sim, v);
            sim.commit_good();
          }
          std::array<const fault::MappedFault*, kLanes> lane_faults;
          for (std::size_t blk = b; blk < e; ++blk) {
            const std::size_t base = blk * kLanes;
            const std::size_t count =
                std::min(kLanes, classify_.size() - base);
            for (std::size_t k = 0; k < count; ++k) {
              lane_faults[k] = &model_->mapped(classify_[base + k]);
              verdicts_[base + k].kind = 0;
              verdicts_[base + k].flips.clear();
            }
            const auto eff = sim.simulate_lanes(
                std::span<const fault::MappedFault* const>(lane_faults.data(),
                                                           count));
            for (const auto& d : eff.ppo_diffs) {
              const auto p =
                  static_cast<std::uint32_t>(fabric_.flat_of(d.dff_index));
              for (Word bits = d.diff & ~eff.po_any; bits != 0;
                   bits &= bits - 1)
                verdicts_[base + std::countr_zero(bits)].flips.push_back(p);
            }
            for (std::size_t k = 0; k < count; ++k) {
              Verdict& vd = verdicts_[base + k];
              if ((eff.po_any >> k) & 1)
                vd.kind = 1;
              else if (!vd.flips.empty())
                vd.kind = 2;
            }
          }
        });
    for (std::size_t n = 0; n < classify_.size(); ++n) {
      const Verdict& vd = verdicts_[n];
      if (vd.kind == 0) continue;
      const std::size_t i = classify_[n];
      if (vd.kind == 1) {
        sets_.set_caught(i, cycle_);
        ++st.caught_at_po;
        continue;
      }
      faulty_next_ = ppo_ff_;
      for (std::uint32_t p : vd.flips) faulty_next_[p] ^= 1;
      sf_state_.load(pre_capture_);
      sf_state_.capture(faulty_next_, capture_);
      if (sf_state_ == state_) continue;  // VXor can cancel the difference
      sets_.set_hidden(i, sf_state_);
      ++st.new_hidden;
    }
  }
  profile_.faults_classified += classify_.size();

  // Advance surviving hidden faults through their mutated vectors T_f, in
  // 512-lane Block batches (each lane carries a private stimulus plus its
  // mapped fault).  The PI stimulus is identical across lanes, so it is
  // broadcast once per batch; only the per-lane chain states are
  // transposed into Blocks.  Batch width changes throughput only: per-lane
  // verdicts and the hidden_advanced counter are pure functions of the
  // fault index, identical to the former 64-lane sweep.
  std::size_t advanced = 0;
  {
    const obs::Span span("tracker.advance", m.advance_seconds,
                         profile_.advance_seconds);
    for (std::size_t base = 0; base < hidden_before_.size();
         base += sim::kBlockLanes) {
      const std::size_t count =
          std::min<std::size_t>(sim::kBlockLanes, hidden_before_.size() - base);
      batch_.clear();
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t i = hidden_before_[base + k];
        if (sets_.state(i) == FaultState::Hidden) batch_.push_back(i);
      }
      if (batch_.empty()) continue;  // whole batch shift-caught: skip the sim
      lanes_.clear();
      state_blocks_.assign(L, Block::zero());
      for (std::size_t k = 0; k < batch_.size(); ++k) {
        lanes_.add_lane();
        const scan::FabricState& hs = sets_.hidden_state(batch_[k]);
        for (std::size_t c = 0; c < fabric_.num_chains(); ++c) {
          const auto& bits = hs.chain(c).bits();
          const std::size_t base_p = fabric_.chain_offset(c);
          for (std::size_t p = 0; p < bits.size(); ++p)
            state_blocks_[base_p + p].w[k / 64] |= Word{bits[p]} << (k % 64);
        }
        lanes_.inject_mapped(static_cast<int>(k), model_->mapped(batch_[k]));
      }
      for (std::size_t pi = 0; pi < npi; ++pi)
        lanes_.set_pi_all(pi, v.pi[pi] != 0);
      for (std::size_t p = 0; p < L; ++p)
        lanes_.set_state_block(fabric_.dff_at_flat(p), state_blocks_[p]);
      lanes_.eval();

      const Block active = Block::lane_mask(batch_.size());
      Block po_diff = Block::zero();
      for (std::size_t j = 0; j < npo; ++j)
        po_diff |= lanes_.output_block(j) ^ Block::fill(po_ff_[j] != 0);
      po_diff &= active;
      next_blocks_.resize(L);
      for (std::size_t p = 0; p < L; ++p)
        next_blocks_[p] = lanes_.next_state_block(fabric_.dff_at_flat(p));

      for (std::size_t k = 0; k < batch_.size(); ++k) {
        const std::size_t i = batch_[k];
        if (po_diff.lane(k)) {
          sets_.set_caught(i, cycle_);
          ++st.caught_at_po;
          continue;
        }
        faulty_next_.resize(L);
        for (std::size_t p = 0; p < L; ++p)
          faulty_next_[p] = static_cast<std::uint8_t>(next_blocks_[p].lane(k));
        sf_state_ = sets_.hidden_state(i);
        sf_state_.capture(faulty_next_, capture_);
        if (sf_state_ == state_) {
          sets_.set_uncaught(i);
          ++st.hidden_reverted;
        } else {
          sets_.mutable_hidden_state(i) = sf_state_;
        }
      }
      profile_.hidden_advanced += batch_.size();
      advanced += batch_.size();
    }
  }
  m.cycles.inc();
  m.faults_classified.add(classify_.size());
  m.hidden_advanced.add(advanced);
  m.caught_at_shift.add(st.caught_at_shift);
  m.caught_at_po.add(st.caught_at_po);
  m.new_hidden.add(st.new_hidden);
  m.hidden_reverted.add(st.hidden_reverted);

  st.hidden_after = sets_.num_hidden();
  return st;
}

bool StitchTracker::partial_observe_suffices(
    const scan::ShiftPlan& plan) const {
  const obs::Span span("tracker.partial_observe",
                       tracker_metrics().terminal_seconds,
                       profile_.terminal_seconds);
  bool ok = true;
  sets_.hidden_list(observe_list_);
  for (std::size_t i : observe_list_) {
    if (!scan::observes_difference(sets_.hidden_state(i), state_, plan,
                                   out_model_)) {
      ok = false;
      break;
    }
  }
  return ok;
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
  std::size_t caught = 0;
  sets_.hidden_list(observe_list_);
  for (std::size_t i : observe_list_) {
    if (scan::observes_difference(sets_.hidden_state(i), state_, plan,
                                  out_model_)) {
      sets_.set_caught(i, cycle_ + 1);
      ++caught;
    }
  }
  m.terminal_caught.add(caught);
  return caught;
}

std::size_t StitchTracker::terminal_observe(std::size_t s) {
  return terminal_observe(fabric_.plan_for(s));
}

}  // namespace vcomp::core
