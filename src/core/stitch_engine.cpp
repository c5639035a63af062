#include "vcomp/core/stitch_engine.hpp"

#include <algorithm>
#include <bit>

#include "vcomp/atpg/fill.hpp"
#include "vcomp/obs/obs.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::core {

using atpg::Cube;
using atpg::PodemStatus;
using atpg::PpiConstraints;
using atpg::TestVector;
using scan::FabricState;
using scan::ShiftPlan;
using sim::Trit;
using sim::Word;

namespace {

/// Scoring weights for the MostFaults greedy pick: an observably caught
/// fault is worth more than one merely driven into hiding.
constexpr std::uint32_t kObservedWeight = 4;
constexpr std::uint32_t kHiddenWeight = 1;

// Engine-side registry metrics; the run-local copies of the same tallies
// live in PhaseProfile (so bench rows stay comparable row by row no matter
// which circuits a given invocation sweeps).  Each timer and its profile
// field are fed by one Span.
struct StitchMetrics {
  obs::Counter runs = obs::counter("stitch.runs");
  obs::Counter cubes_found = obs::counter("stitch.cubes_found");
  obs::Counter candidates_scored = obs::counter("stitch.candidates_scored");
  obs::Counter aborted = obs::counter("stitch.aborted");
  obs::Counter redundant_skips = obs::counter("stitch.redundant_skips");
  obs::Timer podem_seconds = obs::timer("stitch.podem_seconds");
  obs::Timer scoring_seconds = obs::timer("stitch.scoring_seconds");
  obs::Timer drop_seconds = obs::timer("stitch.drop_seconds");
  obs::Timer run_seconds = obs::timer("stitch.run_seconds");
};

const StitchMetrics& stitch_metrics() {
  static const StitchMetrics m;
  return m;
}

}  // namespace

StitchEngine::StitchEngine(const netlist::Netlist& nl,
                           const fault::CollapsedFaults& faults,
                           const atpg::TestSetResult& baseline,
                           const StitchOptions& options)
    : StitchEngine(nl, faults, baseline, CircuitArtifacts::build(nl, faults),
                   options) {}

StitchEngine::StitchEngine(const netlist::Netlist& nl,
                           const fault::CollapsedFaults& faults,
                           const atpg::TestSetResult& baseline,
                           const CircuitArtifacts& artifacts,
                           const StitchOptions& options)
    : nl_(&nl),
      faults_(&faults),
      baseline_(&baseline),
      opts_(options),
      fabric_(nl, options.num_chains, options.partition,
              options.partition_seed),
      out_model_(options.hxor_taps > 0
                     ? scan::FabricOut::hxor(fabric_, options.hxor_taps)
                     : scan::FabricOut::direct(fabric_)),
      eg_(artifacts.graph),
      scoap_(artifacts.scoap),
      compact_(artifacts.compact),
      engine_(atpg::make_engine(
          atpg::resolve_engine_kind(options.atpg_engine), eg_, *scoap_,
          {.podem = options.podem, .sat = options.sat})),
      ssims_(eg_),
      rng_(options.seed) {
  VCOMP_REQUIRE(eg_ != nullptr && scoap_ != nullptr && compact_ != nullptr,
                "incomplete artifact set");
  VCOMP_REQUIRE(&eg_->netlist() == &nl,
                "artifacts were built for a different netlist");
  VCOMP_REQUIRE(nl.num_dffs() > 0, "stitching requires a scan fabric");
  VCOMP_REQUIRE(baseline.classes.size() == faults.size(),
                "baseline classification does not match fault list");
  order_ = target_order(opts_.selection, eg_, faults.faults(), opts_.hardness,
                        rng_, &baseline.vectors);
  scored_.reserve(faults.size());
  shard_scores_.resize(ssims_.max_shards());
  targetable_.assign(faults.size(), 0);
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (baseline.classes[i] == atpg::FaultClass::Detected) targetable_[i] = 1;
  aborted_fault_.assign(faults.size(), 0);
  redundant_.assign(faults.size(), 0);
}

std::unique_ptr<ShiftPolicy> StitchEngine::make_policy() const {
  if (!opts_.shift_schedule.empty())
    return std::make_unique<ScheduleShift>(opts_.shift_schedule,
                                           nl_->num_dffs());
  if (opts_.fixed_shift > 0)
    return std::make_unique<FixedShift>(opts_.fixed_shift);
  return std::make_unique<VariableShift>(nl_->num_dffs(),
                                         opts_.variable_start,
                                         opts_.variable_decay_after);
}

PpiConstraints StitchEngine::constraints_for(const FabricState& state,
                                             const ShiftPlan& plan) const {
  PpiConstraints cons;
  cons.fixed.assign(fabric_.total_length(), Trit::X);
  // The 2-D retained region: after shifting plan[c] bits into chain c, its
  // cell at position p >= plan[c] holds the value currently at p - plan[c];
  // those are the stitched (fixed) bits on every chain.
  for (std::size_t c = 0; c < fabric_.num_chains(); ++c) {
    const std::size_t s = plan[c];
    for (std::size_t p = s; p < fabric_.chain_length(c); ++p) {
      const auto dff = fabric_.dff_at(c, p);
      cons.fixed[dff] = state.chain(c).at(p - s) ? Trit::One : Trit::Zero;
    }
  }
  return cons;
}

std::optional<StitchEngine::Candidate> StitchEngine::generate(
    const FaultSets& sets, const FabricState& state, const ShiftPlan& plan,
    bool first_vector, PhaseProfile& prof) {
  PpiConstraints cons;
  if (!first_vector) cons = constraints_for(state, plan);
  // Unconstrained queries (no pinned cell) prove *combinational* redundancy
  // on Untestable — a schedule-independent fact worth caching (below).
  bool pinned = false;
  for (Trit t : cons.fixed)
    if (t != Trit::X) {
      pinned = true;
      break;
    }
  if (tried_this_cycle_.empty())
    tried_this_cycle_.assign(faults_->size(), 0);
  ++cycle_stamp_;

  const StitchMetrics& m = stitch_metrics();
  // Shared per-attempt accounting for both scan loops below.
  auto attempt = [&](std::size_t idx) {
    atpg::GenResult res = engine_->generate((*faults_)[idx], &cons);
    ++prof.podem_calls;
    prof.podem_backtracks += res.backtracks;
    prof.sat_calls += res.sat_calls;
    prof.sat_conflicts += res.conflicts;
    if (res.status == PodemStatus::Aborted) {
      ++prof.aborted;
      aborted_fault_[idx] = 1;
      m.aborted.inc();
    } else if (res.status == PodemStatus::Untestable && !pinned) {
      redundant_[idx] = 1;
    }
    return res;
  };
  struct TargetCube {
    Cube cube;
    std::size_t target;
  };
  std::vector<TargetCube> cubes;
  const bool greedy = opts_.selection == SelectionPolicy::MostFaults;
  const std::size_t want = greedy ? opts_.most_faults_cubes : 1;
  const std::size_t n = order_.size();
  const std::size_t start = greedy ? cursor_ : 0;
  std::uint32_t attempts = 0;
  {
    const obs::Span span("stitch.podem", m.podem_seconds, prof.podem_seconds);
    for (std::size_t k = 0; k < n; ++k) {
      if (cubes.size() >= want) break;
      if (attempts >= opts_.max_targets_per_cycle) break;
      const std::size_t idx = order_[(start + k) % n];
      if (!targetable_[idx] || sets.state(idx) != FaultState::Uncaught)
        continue;
      if (redundant_[idx]) {
        m.redundant_skips.inc();
        continue;
      }
      ++attempts;
      if (greedy) cursor_ = (start + k + 1) % n;
      auto res = attempt(idx);
      if (res.status == PodemStatus::Success)
        cubes.push_back({std::move(res.cube), idx});
      else
        tried_this_cycle_[idx] = cycle_stamp_;
    }

    if (cubes.empty()) {
      // Wide failure scan so that "generation failed" really means no
      // examined target is catchable: every uncaught target at full
      // backtrack strength.  This sweep only runs when the greedy phase came
      // up empty, i.e. near stalls.
      std::uint32_t scanned = 0;
      for (std::size_t k = 0; k < n && scanned < opts_.max_targets_on_failure;
           ++k) {
        const std::size_t idx = order_[(start + k) % n];
        if (!targetable_[idx] || sets.state(idx) != FaultState::Uncaught)
          continue;
        if (redundant_[idx]) {
          m.redundant_skips.inc();
          continue;
        }
        // Phase 1 already tried (and failed) some of these this cycle.
        if (tried_this_cycle_[idx] == cycle_stamp_) continue;
        ++scanned;
        auto res = attempt(idx);
        if (res.status == PodemStatus::Success) {
          cubes.push_back({std::move(res.cube), idx});
          if (greedy) cursor_ = (start + k + 1) % n;
          if (cubes.size() >= want) break;  // keep the greedy pick diverse
        } else {
          tried_this_cycle_[idx] = cycle_stamp_;
        }
      }
    }
  }
  prof.cubes_found += cubes.size();
  m.cubes_found.add(cubes.size());
  if (cubes.empty()) return std::nullopt;

  if (!greedy) {
    Candidate c;
    c.vector = atpg::fill_cube(cubes[0].cube, atpg::FillMode::Random, rng_);
    c.target = cubes[0].target;
    return c;
  }

  // MostFaults: complete every cube several ways and score all completions
  // in one 64-way pattern-parallel fault-simulation pass.
  const obs::Span span("stitch.score", m.scoring_seconds,
                       prof.scoring_seconds);
  std::vector<Candidate> cands;
  for (const auto& tc : cubes) {
    for (std::uint32_t f = 0; f < opts_.fills_per_cube && cands.size() < 64;
         ++f) {
      Candidate c;
      c.vector = atpg::fill_cube(tc.cube, atpg::FillMode::Random, rng_);
      c.target = tc.target;
      cands.push_back(std::move(c));
    }
  }

  pi_w_.resize(nl_->num_inputs());
  ppi_w_.resize(nl_->num_dffs());
  for (std::size_t i = 0; i < nl_->num_inputs(); ++i) {
    Word w = 0;
    for (std::size_t k = 0; k < cands.size(); ++k)
      if (cands[k].vector.pi[i]) w |= Word{1} << k;
    pi_w_[i] = w;
  }
  for (std::size_t i = 0; i < nl_->num_dffs(); ++i) {
    Word w = 0;
    for (std::size_t k = 0; k < cands.size(); ++k)
      if (cands[k].vector.ppi[i]) w |= Word{1} << k;
    ppi_w_[i] = w;
  }

  // Approximate per-flat-position observability for the scoring pass: a
  // single difference at position p of chain c is visible within that
  // chain's plan[c] shift cycles iff some tap t >= p lies within plan[c]
  // steps.  (The commit path uses the exact, cancellation-aware check.)
  const std::size_t L = nl_->num_dffs();
  observed_pos_.assign(L, 0);
  for (std::size_t c = 0; c < fabric_.num_chains(); ++c) {
    const std::size_t s = plan[c];
    const std::size_t off = fabric_.chain_offset(c);
    for (std::uint32_t t : out_model_.chains[c].taps)
      for (std::size_t p = (t + 1 >= s ? t + 1 - s : 0); p <= t; ++p)
        observed_pos_[off + p] = 1;
  }

  // On very large uncaught sets, score against a deterministic stride
  // sample — the argmax is statistics, not bookkeeping, so sampling is
  // safe (catch classification in the tracker stays exact).
  // The sets track every fault but the proven redundancies, so their
  // uncaught list is the set to score.
  constexpr std::size_t kScoreSampleCap = 4096;
  scored_.assign(sets.uncaught().begin(), sets.uncaught().end());
  if (scored_.size() > kScoreSampleCap) {
    const std::size_t stride = scored_.size() / kScoreSampleCap + 1;
    std::size_t out = 0;
    for (std::size_t k = 0; k < scored_.size(); k += stride)
      scored_[out++] = scored_[k];
    scored_.resize(out);
  }

  // Score all completions against the (sampled) uncaught set, sharded over
  // the thread pool: each shard drives a private DiffSim loaded with the
  // same 64-candidate stimulus and accumulates its own score array; the
  // shard arrays are then summed.  Per-fault contributions are pure
  // functions of the fault index, so the totals are identical for every
  // thread count.
  std::vector<std::uint32_t> score(cands.size(), 0);
  const Word active =
      cands.size() == 64 ? ~Word{0} : ((Word{1} << cands.size()) - 1);
  // Shards with an empty range never run, so drop last cycle's counts.
  for (auto& sc : shard_scores_) sc.clear();
  util::parallel_for_shards(
      scored_.size(), ssims_.max_shards(),
      [&](std::size_t shard, std::size_t b, std::size_t e) {
        fault::DiffSim& sim = ssims_.at(shard);
        for (std::size_t i = 0; i < pi_w_.size(); ++i)
          sim.good().set_input(i, pi_w_[i]);
        for (std::size_t i = 0; i < ppi_w_.size(); ++i)
          sim.good().set_state(i, ppi_w_[i]);
        sim.commit_good();
        auto& sc = shard_scores_[shard];
        sc.assign(cands.size(), 0);
        for (std::size_t n_i = b; n_i < e; ++n_i) {
          const std::size_t i = scored_[n_i];
          const auto eff = sim.simulate((*faults_)[i]);
          Word obs = eff.po_any;
          Word hid = 0;
          for (const auto& d : eff.ppo_diffs) {
            const std::size_t p = fabric_.flat_of(d.dff_index);
            (observed_pos_[p] ? obs : hid) |= d.diff;
          }
          Word any = (obs | hid) & active;
          if (any == 0) continue;
          obs &= active;
          for (int k = std::countr_zero(any); any != 0;
               any &= any - 1, k = std::countr_zero(any))
            sc[static_cast<std::size_t>(k)] +=
                ((obs >> k) & 1) ? kObservedWeight : kHiddenWeight;
        }
      });
  for (const auto& sc : shard_scores_)
    for (std::size_t k = 0; k < sc.size(); ++k) score[k] += sc[k];

  std::size_t best = 0;
  for (std::size_t k = 1; k < cands.size(); ++k)
    if (score[k] > score[best]) best = k;
  prof.candidates_scored += cands.size();
  m.candidates_scored.add(cands.size());
  return std::move(cands[best]);
}

StitchResult StitchEngine::run() {
  const StitchMetrics& m = stitch_metrics();
  StitchResult res;
  {
    const obs::Span span("stitch.run", m.run_seconds,
                         res.profile.total_seconds);
    run_into(res);
  }
  m.runs.inc();
  return res;
}

void StitchEngine::run_into(StitchResult& res) {
  const std::size_t L = nl_->num_dffs();
  const std::size_t npi = nl_->num_inputs();
  const std::size_t npo = nl_->num_outputs();
  const std::size_t atv = baseline_->vectors.size();

  const std::size_t max_len = fabric_.max_chain_length();
  const bool multi = fabric_.num_chains() > 1;

  res.baseline_vectors = atv;
  res.baseline_cost = scan::CostMeter::full_scan(npi, npo, L, max_len, atv);
  for (std::uint8_t t : targetable_) res.targets += t;
  res.schedule.num_chains = fabric_.num_chains();
  res.schedule.partition = fabric_.policy();
  res.schedule.partition_seed = fabric_.seed();
  res.schedule.kind =
      !opts_.schedule_label.empty()
          ? opts_.schedule_label
          : (opts_.shift_schedule.empty()
                 ? (opts_.fixed_shift > 0 ? "fixed" : "variable")
                 : "schedule") +
                ("+" + to_string(opts_.selection));

  // Track everything except proven redundancies (which no vector can ever
  // differentiate).
  std::vector<std::uint8_t> track(faults_->size(), 1);
  for (std::size_t i = 0; i < faults_->size(); ++i)
    if (baseline_->classes[i] == atpg::FaultClass::Redundant) track[i] = 0;
  StitchTracker tracker(eg_, *faults_, opts_.capture, fabric_, out_model_,
                        std::move(track), compact_);
  // The engine adds its own phases to the tracker's profile record.
  PhaseProfile& prof = tracker.mutable_profile();
  // O(1) loop-termination predicate: the sets maintain the count of
  // targetable faults still in f_u across state transitions.
  tracker.mutable_sets().set_targetable(targetable_);

  auto policy = make_policy();
  scan::CostMeter meter(npi, npo, L, max_len);
  const std::size_t max_cycles =
      opts_.max_cycles > 0 ? opts_.max_cycles : 6 * atv + 64;
  std::size_t last_shift = L;

  auto uncaught_targets_remain = [&]() {
    return tracker.sets().num_uncaught_targetable() > 0;
  };

  // ---- stitched phase ---------------------------------------------------
  std::size_t bridges_used = 0;
  // Sliding break-even guard: (catches, cost in full-vector equivalents).
  std::vector<std::pair<double, double>> window;
  double win_catches = 0, win_cost = 0;
  const double full_vec_bits = double(npi + npo + 2 * L);
  auto note_cycle = [&](const CycleStats& st) {
    const double catches = double(st.caught_at_shift + st.caught_at_po);
    const double cost = double(npi + npo + 2 * st.shift) / full_vec_bits;
    window.emplace_back(catches, cost);
    win_catches += catches;
    win_cost += cost;
    if (opts_.marginal_window > 0 && window.size() > opts_.marginal_window) {
      const auto [c, k] = window[window.size() - 1 - opts_.marginal_window];
      win_catches -= c;
      win_cost -= k;
    }
  };
  auto below_break_even = [&]() {
    return opts_.marginal_window > 0 &&
           window.size() >= opts_.marginal_window &&
           win_catches < win_cost;
  };
  while (uncaught_targets_remain() && tracker.cycle() < max_cycles &&
         !below_break_even()) {
    const bool first = tracker.cycle() == 0;
    const scan::ShiftPlan plan = fabric_.plan_for(policy->current());
    auto cand = generate(tracker.sets(), tracker.state(), plan, first, prof);
    if (!cand) {
      if (first) break;  // nothing generable at all — straight to ex phase
      if (policy->on_failure()) continue;
      // Out of escalations: churn the retained state with a bridge cycle
      // and retry; the constraint set is a function of the fabric content.
      if (bridges_used >= opts_.max_bridge_cycles) break;
      ++bridges_used;
      const std::size_t s = policy->current();
      atpg::TestVector bridge;
      bridge.pi.resize(npi);
      for (auto& b : bridge.pi) b = rng_.bit();
      bridge.ppi.resize(L);
      for (std::size_t c = 0; c < fabric_.num_chains(); ++c) {
        for (std::size_t p = 0; p < fabric_.chain_length(c); ++p) {
          const auto dff = fabric_.dff_at(c, p);
          bridge.ppi[dff] = p >= plan[c]
                                ? tracker.state().chain(c).at(p - plan[c])
                                : static_cast<std::uint8_t>(rng_.bit());
        }
      }
      const auto st = tracker.apply_stitched(bridge, plan);
      meter.stitched_cycle(plan);
      last_shift = s;
      res.schedule.vectors.push_back(std::move(bridge));
      res.schedule.shifts.push_back(s);
      if (multi) res.schedule.plans.push_back(plan);
      note_cycle(st);
      res.hidden_peak = std::max(res.hidden_peak, st.hidden_after);
      res.cycles.push_back(st);
      if (opts_.on_cycle) opts_.on_cycle(tracker.cycle(), st);
      continue;
    }

    CycleStats st;
    if (first) {
      st = tracker.apply_first(cand->vector);
      meter.initial_load();
      res.schedule.vectors.push_back(std::move(cand->vector));
      res.schedule.shifts.push_back(L);
      if (multi) res.schedule.plans.push_back(fabric_.plan_for(L));
    } else {
      const std::size_t s = policy->current();
      st = tracker.apply_stitched(cand->vector, plan);
      meter.stitched_cycle(plan);
      last_shift = s;
      res.schedule.vectors.push_back(std::move(cand->vector));
      res.schedule.shifts.push_back(s);
      if (multi) res.schedule.plans.push_back(plan);
    }
    bridges_used = 0;
    policy->on_success();
    note_cycle(st);
    res.hidden_peak = std::max(res.hidden_peak, st.hidden_after);
    res.cycles.push_back(st);
    if (opts_.on_cycle) opts_.on_cycle(tracker.cycle(), st);
  }
  res.vectors_applied = tracker.cycle();

  for (std::size_t i = 0; i < faults_->size(); ++i)
    if (targetable_[i] && tracker.sets().state(i) == FaultState::Caught)
      ++res.caught_stitched;

  // ---- terminal phase ---------------------------------------------------
  std::vector<std::size_t> remaining;
  for (std::uint32_t i : tracker.sets().uncaught())
    if (targetable_[i]) remaining.push_back(i);

  if (!remaining.empty()) {
    // The first full load of the ex phase observes the entire chain, which
    // provably catches every fault still hidden (the tail is always
    // tapped, so no full-sweep cancellation is possible).
    for (const auto& [i, diff] : tracker.sets().hidden())
      if (targetable_[i]) ++res.caught_flush;
    const std::size_t flushed = tracker.terminal_observe(L);
    VCOMP_ENSURE(tracker.sets().num_hidden() == 0,
                 "full flush must catch every hidden fault");
    (void)flushed;

    // Cover the leftovers with traditional vectors drawn from the baseline
    // pool, greedily with fault dropping: a pool vector is kept iff it is
    // the first, in pool order, to detect some leftover fault.
    // first_detections runs 64 pool vectors per pass, sharded over the
    // leftover faults; catches commute, so the kept vectors, catches and
    // counters are identical for every thread count.
    const obs::Span span("stitch.drop", stitch_metrics().drop_seconds,
                         prof.terminal_seconds);
    std::vector<const TestVector*> pool;
    for (const auto& bv : baseline_->vectors) pool.push_back(&bv);
    std::vector<fault::Fault> leftover;
    for (std::size_t i : remaining) leftover.push_back((*faults_)[i]);
    const auto first = atpg::first_detections(ssims_, pool, leftover);
    std::vector<std::uint8_t> useful(pool.size(), 0);
    for (std::size_t n = 0; n < remaining.size(); ++n) {
      VCOMP_ENSURE(first[n] != atpg::kNoDetection,
                   "baseline pool failed to cover remaining faults");
      tracker.catch_externally(remaining[n]);
      ++res.caught_extra;
      useful[first[n]] = 1;
    }
    std::size_t ex = 0;
    for (std::size_t k = 0; k < pool.size(); ++k) {
      if (!useful[k]) continue;
      ++ex;
      res.schedule.extra.push_back(*pool[k]);
    }
    res.extra_full_vectors = ex;
    meter.extra_full_vectors(ex);
  } else if (tracker.sets().num_hidden() > 0) {
    // All of f_u is covered; observe the still-hidden faults.  Prefer the
    // cheap partial observation when it provably catches all of them.
    for (const auto& [i, diff] : tracker.sets().hidden())
      if (targetable_[i]) ++res.caught_flush;
    if (tracker.partial_observe_suffices(last_shift)) {
      tracker.terminal_observe(last_shift);
      meter.final_observe(fabric_.plan_for(last_shift));
      res.schedule.terminal_observe = last_shift;
    } else {
      tracker.terminal_observe(L);
      meter.flush();
      res.schedule.terminal_observe = L;
    }
  } else if (tracker.cycle() > 0) {
    meter.final_observe(fabric_.plan_for(last_shift));
    res.schedule.terminal_observe = last_shift;
  }

  res.cost = meter.cost();
  if (res.baseline_cost.shift_cycles > 0) {
    res.time_ratio = double(res.cost.shift_cycles) /
                     double(res.baseline_cost.shift_cycles);
    res.memory_ratio = double(res.cost.memory_bits()) /
                       double(res.baseline_cost.memory_bits());
  }
  for (std::size_t i = 0; i < faults_->size(); ++i)
    if (targetable_[i] && tracker.sets().state(i) != FaultState::Caught)
      ++res.uncovered;

  for (std::uint8_t a : aborted_fault_) prof.aborted_faults += a;
  // total_seconds is still 0 here: run()'s stitch.run span adds it after.
  res.profile = prof;
}

}  // namespace vcomp::core
