#include "vcomp/check/oracles.hpp"

#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "vcomp/atpg/engine.hpp"
#include "vcomp/atpg/pin_frame.hpp"
#include "vcomp/atpg/sat.hpp"
#include "vcomp/check/reference.hpp"
#include "vcomp/core/selection.hpp"
#include "vcomp/core/tracker.hpp"
#include "vcomp/fault/block_lane_sim.hpp"
#include "vcomp/fault/compact_model.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/sim/simd_dispatch.hpp"
#include "vcomp/sim/ternary_sim.hpp"
#include "vcomp/sim/word_sim.hpp"
#include "vcomp/util/parallel.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::check {

using fault::Fault;
using netlist::GateId;
using netlist::Netlist;
using sim::Trit;
using sim::Word;

namespace {

constexpr std::uint64_t kStimulusSalt = 0x0bace5a17ed5eedULL;
constexpr std::uint64_t kFlushSalt = 0xf1a5b5eedc0ffeeULL;
constexpr std::uint64_t kAdiSalt = 0xad1de7ec7ab1e5ULL;

/// Faults the simulator oracles sample per stimulus round.
constexpr std::size_t kSimFaultSample = 48;

std::optional<Failure> fail(const char* oracle, std::string detail) {
  return Failure{oracle, std::move(detail)};
}

/// A Block whose lanes 0..63 carry the patterns of \p w (other lanes 0).
sim::Block word_block(Word w) {
  sim::Block b = sim::Block::zero();
  b.w[0] = w;
  return b;
}

std::vector<std::uint32_t> sample_faults(std::size_t num_faults, Rng& rng,
                                         std::size_t want) {
  std::vector<std::uint32_t> all(num_faults);
  for (std::uint32_t i = 0; i < num_faults; ++i) all[i] = i;
  if (all.size() <= want) return all;
  rng.shuffle(all);
  all.resize(want);
  return all;
}

// ---- simulator oracles ----------------------------------------------------

std::optional<Failure> simulators_round(const Case& c,
                                        sim::EvalGraph::Ref graph, Rng& rng) {
  const Netlist& nl = c.netlist;

  // Shared random source words for this round.
  std::vector<Word> src(nl.num_gates(), 0);
  for (GateId g : nl.inputs()) src[g] = rng.next();
  for (GateId g : nl.dffs()) src[g] = rng.next();

  std::vector<Word> good = src;
  ref_word_eval(nl, good);

  // WordSim vs reference, every gate and every captured next-state.
  sim::WordSim wsim(graph);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i)
    wsim.set_input(i, src[nl.inputs()[i]]);
  for (std::size_t i = 0; i < nl.num_dffs(); ++i)
    wsim.set_state(i, src[nl.dffs()[i]]);
  wsim.eval();
  for (GateId g = 0; g < nl.num_gates(); ++g)
    if (wsim.value(g) != good[g])
      return fail("word-sim", "gate " + nl.gate(g).name + " value mismatch");
  for (std::size_t i = 0; i < nl.num_dffs(); ++i)
    if (wsim.next_state(i) != ref_next_state(nl, good, nullptr, i))
      return fail("word-sim", "dff " + std::to_string(i) +
                                  " next-state mismatch");

  // TernarySim vs the plain trit-kernel reference (includes X draws).
  sim::TernarySim tsim(graph);
  std::vector<Trit> tref(nl.num_gates(), Trit::X);
  tsim.clear();
  auto draw_trit = [&] {
    const auto r = rng.below(3);
    return r == 0 ? Trit::Zero : r == 1 ? Trit::One : Trit::X;
  };
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    tref[nl.inputs()[i]] = draw_trit();
    tsim.set_input(i, tref[nl.inputs()[i]]);
  }
  for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
    tref[nl.dffs()[i]] = draw_trit();
    tsim.set_state(i, tref[nl.dffs()[i]]);
  }
  tsim.eval();
  ref_trit_eval(nl, tref);
  for (GateId g = 0; g < nl.num_gates(); ++g)
    if (tsim.value(g) != tref[g])
      return fail("ternary-sim",
                  "gate " + nl.gate(g).name + " trit mismatch");

  // DiffSim vs forked reference on a fault sample.
  const auto sample = sample_faults(c.faults.size(), rng, kSimFaultSample);
  fault::DiffSim dsim(graph);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i)
    dsim.good().set_input(i, src[nl.inputs()[i]]);
  for (std::size_t i = 0; i < nl.num_dffs(); ++i)
    dsim.good().set_state(i, src[nl.dffs()[i]]);
  dsim.commit_good();
  for (std::uint32_t fi : sample) {
    const Fault& f = c.faults[fi];
    std::vector<Word> bad = src;
    ref_faulty_eval(nl, bad, f);
    Word po_any = 0;
    for (GateId po : nl.outputs()) po_any |= good[po] ^ bad[po];
    std::map<std::uint32_t, Word> want;
    for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
      const Word d = ref_next_state(nl, good, nullptr, i) ^
                     ref_next_state(nl, bad, &f, i);
      if (d != 0) want[static_cast<std::uint32_t>(i)] = d;
    }
    const auto eff = dsim.simulate(f);
    if (eff.po_any != po_any)
      return fail("diff-sim",
                  "po_any mismatch for " + fault::fault_name(nl, f));
    std::map<std::uint32_t, Word> got;
    for (const auto& d : eff.ppo_diffs)
      if (d.diff != 0) got[d.dff_index] |= d.diff;
    if (got != want)
      return fail("diff-sim",
                  "ppo diffs mismatch for " + fault::fault_name(nl, f));
  }

  // BlockLaneSim vs forked reference: lane k carries pattern k of the same
  // source words plus its own fault — genuinely per-lane stimuli.
  static_assert(kSimFaultSample <= 64, "one source word holds the patterns");
  fault::BlockLaneSim bsim(graph);
  for (std::size_t k = 0; k < sample.size(); ++k)
    bsim.inject(bsim.add_lane(), c.faults[sample[k]]);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i)
    bsim.set_pi_block(i, word_block(src[nl.inputs()[i]]));
  for (std::size_t i = 0; i < nl.num_dffs(); ++i)
    bsim.set_state_word(i, 0, src[nl.dffs()[i]]);
  bsim.eval();
  for (std::size_t k = 0; k < sample.size(); ++k) {
    const Fault& f = c.faults[sample[k]];
    std::vector<Word> bad = src;
    ref_faulty_eval(nl, bad, f);
    for (std::size_t o = 0; o < nl.num_outputs(); ++o)
      if (bsim.output_block(o).lane(k) !=
          static_cast<bool>((bad[nl.outputs()[o]] >> k) & 1))
        return fail("block-lane-sim",
                    "po mismatch for " + fault::fault_name(nl, f));
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      if (bsim.next_state_block(i).lane(k) !=
          static_cast<bool>((ref_next_state(nl, bad, &f, i) >> k) & 1))
        return fail("block-lane-sim",
                    "next-state mismatch for " + fault::fault_name(nl, f));
  }
  return std::nullopt;
}

// ---- compaction / dispatch oracles ----------------------------------------

constexpr std::uint64_t kCompactSalt = 0xc0a1e5cedc0de5ULL;

/// A fault effect's ppo diffs keyed by flip-flop.  A DiffSim pass reports
/// one nonzero entry per flip-flop, in the order the pass touched them,
/// and that order differs between the original and the compacted graph,
/// so the map is the comparable form.
std::map<std::uint32_t, Word> ppo_map(const fault::DiffSim::Effect& eff) {
  std::map<std::uint32_t, Word> m;
  for (const auto& d : eff.ppo_diffs) m[d.dff_index] = d.diff;
  return m;
}

/// One stimulus round of the compacted-vs-original equivalence oracle:
/// WordSim gate values through the id remap, DiffSim::simulate vs
/// simulate_mapped, DiffSim's fault-lane pass vs simulate_mapped per lane,
/// and BlockLaneSim with plain faults vs mapped faults.
std::optional<Failure> compaction_round(const Case& c,
                                        const sim::EvalGraph::Ref& graph,
                                        const fault::CompactModel& model,
                                        Rng& rng) {
  const Netlist& nl = c.netlist;
  std::vector<Word> in(nl.num_inputs()), st(nl.num_dffs());
  for (auto& w : in) w = rng.next();
  for (auto& w : st) w = rng.next();

  // WordSim: every original gate's value must be carried by its value_id
  // image; dff/output order is preserved so next-states compare by index.
  sim::WordSim orig(graph), comp(model.graph());
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    orig.set_input(i, in[i]);
    comp.set_input(i, in[i]);
  }
  for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
    orig.set_state(i, st[i]);
    comp.set_state(i, st[i]);
  }
  orig.eval();
  comp.eval();
  for (GateId g = 0; g < nl.num_gates(); ++g)
    if (orig.value(g) != comp.value(model.value_id(g)))
      return fail("compact", "gate " + nl.gate(g).name +
                                 " value differs on compacted graph");
  for (std::size_t i = 0; i < nl.num_dffs(); ++i)
    if (orig.next_state(i) != comp.next_state(i))
      return fail("compact", "dff " + std::to_string(i) +
                                 " next-state differs on compacted graph");

  // DiffSim: original faults on the original graph vs mapped faults on the
  // compacted graph, same committed good machine.
  const auto sample = sample_faults(c.faults.size(), rng, kSimFaultSample);
  fault::DiffSim dorig(graph), dcomp(model.graph());
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    dorig.good().set_input(i, in[i]);
    dcomp.good().set_input(i, in[i]);
  }
  for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
    dorig.good().set_state(i, st[i]);
    dcomp.good().set_state(i, st[i]);
  }
  dorig.commit_good();
  dcomp.commit_good();
  for (std::uint32_t fi : sample) {
    const auto ea = dorig.simulate(c.faults[fi]);
    const auto eb = dcomp.simulate_mapped(model.mapped(fi));
    if (ea.po_any != eb.po_any)
      return fail("compact", "po_any differs for mapped " +
                                 fault::fault_name(nl, c.faults[fi]));
    if (ppo_map(ea) != ppo_map(eb))
      return fail("compact", "ppo diffs differ for mapped " +
                                 fault::fault_name(nl, c.faults[fi]));
  }

  // DiffSim fault lanes: kLanes sampled mapped faults in one pass must give
  // every lane k the PO bit and ppo map of fault k's own pattern-lane
  // pass, under a broadcast stimulus (one vector in every lane, as the
  // tracker classifies) and under per-lane stimuli.
  const auto lane_sample =
      sample_faults(c.faults.size(), rng, fault::DiffSim::kLanes);
  std::vector<const fault::MappedFault*> lane_faults;
  for (std::uint32_t fi : lane_sample)
    lane_faults.push_back(&model.mapped(fi));
  for (const bool broadcast : {true, false}) {
    auto stimulus = [&](Word w) {
      return broadcast ? ((w & 1) != 0 ? ~Word{0} : Word{0}) : w;
    };
    for (std::size_t i = 0; i < nl.num_inputs(); ++i)
      dcomp.good().set_input(i, stimulus(in[i]));
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      dcomp.good().set_state(i, stimulus(st[i]));
    dcomp.commit_good();
    std::vector<Word> want_po;
    std::vector<std::map<std::uint32_t, Word>> want_ppo;
    for (const fault::MappedFault* mf : lane_faults) {
      const auto eff = dcomp.simulate_mapped(*mf);
      want_po.push_back(eff.po_any);
      want_ppo.push_back(ppo_map(eff));
    }
    const auto eff = dcomp.simulate_lanes(lane_faults);
    const Word po = eff.po_any;
    const auto ppo = ppo_map(eff);
    auto lane_bits = [](const std::map<std::uint32_t, Word>& m,
                        std::size_t k) {
      std::map<std::uint32_t, Word> out;
      for (const auto& [dff, d] : m)
        if ((d >> k) & 1) out[dff] = 1;
      return out;
    };
    for (std::size_t k = 0; k < lane_faults.size(); ++k) {
      if (((po ^ want_po[k]) >> k) & 1 ||
          lane_bits(ppo, k) != lane_bits(want_ppo[k], k))
        return fail("compact",
                    "fault-lane pass differs in lane " + std::to_string(k) +
                        (broadcast ? " (broadcast" : " (per-lane") +
                        " stimulus) for mapped " +
                        fault::fault_name(nl, c.faults[lane_sample[k]]));
    }
  }

  // BlockLaneSim: original faults on the original graph vs mapped faults on
  // the compacted graph, lane k carrying pattern k of the source words.
  fault::BlockLaneSim borig(graph), bcomp(model.graph());
  for (std::uint32_t fi : sample) {
    borig.inject(borig.add_lane(), c.faults[fi]);
    bcomp.inject_mapped(bcomp.add_lane(), model.mapped(fi));
  }
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    borig.set_pi_block(i, word_block(in[i]));
    bcomp.set_pi_block(i, word_block(in[i]));
  }
  for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
    borig.set_state_word(i, 0, st[i]);
    bcomp.set_state_word(i, 0, st[i]);
  }
  borig.eval();
  bcomp.eval();
  for (std::size_t k = 0; k < sample.size(); ++k) {
    const Fault& f = c.faults[sample[k]];
    for (std::size_t o = 0; o < nl.num_outputs(); ++o)
      if (borig.output_block(o).lane(k) != bcomp.output_block(o).lane(k))
        return fail("compact", "block-lane po differs for mapped " +
                                   fault::fault_name(nl, f));
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      if (borig.next_state_block(i).lane(k) !=
          bcomp.next_state_block(i).lane(k))
        return fail("compact",
                    "block-lane next-state differs for mapped " +
                        fault::fault_name(nl, f));
  }
  return std::nullopt;
}

/// One stimulus round of the dispatch oracle: the same 512-lane stimulus
/// through a fault-free BlockLaneSim under every available SIMD mode must
/// produce the same Block at every gate (the chunked sweeps only reorder
/// independent lane arithmetic).  active_simd() is cached per process, so
/// the comparison uses explicit constructor modes, not the environment.
std::optional<Failure> dispatch_round(const Case& c,
                                      const sim::EvalGraph::Ref& graph,
                                      Rng& rng) {
  const Netlist& nl = c.netlist;
  std::vector<sim::Block> in(nl.num_inputs(), sim::Block::zero());
  std::vector<sim::Block> st(nl.num_dffs(), sim::Block::zero());
  for (auto& b : in)
    for (std::size_t k = 0; k < sim::kBlockWords; ++k) b.w[k] = rng.next();
  for (auto& b : st)
    for (std::size_t k = 0; k < sim::kBlockWords; ++k) b.w[k] = rng.next();

  auto run = [&](sim::SimdMode mode) {
    fault::BlockLaneSim s(graph, mode);
    for (std::size_t i = 0; i < nl.num_inputs(); ++i)
      s.set_pi_block(i, in[i]);
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      s.set_state_block(i, st[i]);
    s.eval();
    return s;
  };
  const fault::BlockLaneSim ref = run(sim::SimdMode::Scalar);
  for (sim::SimdMode mode : {sim::SimdMode::Avx2, sim::SimdMode::Avx512}) {
    if (!sim::simd_available(mode)) continue;
    const fault::BlockLaneSim s = run(mode);
    for (GateId g = 0; g < nl.num_gates(); ++g)
      if (!(s.value_block(g) == ref.value_block(g)))
        return fail("simd-dispatch",
                    std::string("gate ") + nl.gate(g).name + " differs " +
                        std::string(sim::to_string(mode)) + " vs scalar");
  }
  return std::nullopt;
}

// ---- brute-force reference tracker ----------------------------------------

struct RefTrackerResult {
  std::vector<core::CycleStats> cycles;
  std::vector<std::uint8_t> chain_ff;  ///< final fault-free chain
  /// Per tracked fault (key = collapsed index).
  std::unordered_map<std::uint32_t, core::FaultState> state;
  std::unordered_map<std::uint32_t, std::size_t> catch_cycle;
  std::unordered_map<std::uint32_t, std::vector<std::uint8_t>> hidden_chain;
  std::size_t terminal_caught = 0;
  // Work tallies mirroring the tracker's PhaseProfile counters: uncaught
  // faults classified and hidden faults advanced, counted per cycle the
  // same way the tracker counts its sharded/64-lane work.
  std::size_t faults_classified = 0;
  std::size_t hidden_advanced = 0;
};

/// Full-shift brute force: every tracked fault keeps a private fabric
/// image and is re-evaluated from scratch with the naive reference each
/// cycle.  No DiffSim, no BlockLaneSim, no sharding, no
/// scan::observes_difference — and no scan::FabricState: fabric images are
/// flat chain-major byte vectors advanced with ref_fabric_shift.
RefTrackerResult ref_track(const Case& c) {
  const Netlist& nl = c.netlist;
  const scan::Fabric fabric = case_fabric(c);
  const scan::FabricOut out_model = case_out_model(c, fabric);
  const std::size_t L = nl.num_dffs();
  const std::size_t npi = nl.num_inputs();

  RefTrackerResult r;
  const auto tracked = tracked_indices(c);
  for (std::uint32_t i : tracked) r.state[i] = core::FaultState::Uncaught;

  // Per-cycle plan: recorded per-chain plans when the schedule carries
  // them, otherwise the master shift apportioned the way the tracker does.
  auto plan_at = [&](std::size_t ci) -> scan::ShiftPlan {
    return c.schedule.plans.empty() ? fabric.plan_for(c.schedule.shifts[ci])
                                    : c.schedule.plans[ci];
  };

  std::vector<std::uint8_t> chain_ff(L, 0);
  std::vector<Word> vals(nl.num_gates(), 0);
  std::vector<std::uint8_t> ns_ff(L, 0), ns_f(L, 0), po_ff, po_f;
  std::vector<std::uint8_t> in_bits, obs_ff, obs_f, pre_capture, new_chain;
  po_ff.resize(nl.num_outputs());
  po_f.resize(nl.num_outputs());

  auto load_sources = [&](const atpg::TestVector& v,
                          const std::vector<std::uint8_t>& chain) {
    for (std::size_t i = 0; i < npi; ++i)
      vals[nl.inputs()[i]] = v.pi[i] ? ~Word{0} : Word{0};
    for (std::size_t pos = 0; pos < L; ++pos)
      vals[nl.dffs()[fabric.dff_at_flat(pos)]] =
          chain[pos] ? ~Word{0} : Word{0};
  };

  for (std::size_t ci = 0; ci < c.schedule.vectors.size(); ++ci) {
    const auto& v = c.schedule.vectors[ci];
    const std::size_t s = c.schedule.shifts[ci];
    const std::size_t cycle = ci + 1;
    core::CycleStats st;
    st.shift = s;

    if (ci == 0) {
      for (std::size_t pos = 0; pos < L; ++pos)
        chain_ff[pos] = v.ppi[fabric.dff_at_flat(pos)];
    } else {
      const scan::ShiftPlan plan = plan_at(ci);
      // Scan-in streams, chain-major: chain c's bit j enters its head on
      // that chain's cycle j, so after plan[c] shifts head position p
      // holds the vector's scan bit for in-chain position p.
      in_bits.resize(s);
      std::size_t off_in = 0;
      for (std::size_t ch = 0; ch < fabric.num_chains(); ++ch) {
        for (std::size_t j = 0; j < plan[ch]; ++j)
          in_bits[off_in + j] = v.ppi[fabric.dff_at(ch, plan[ch] - 1 - j)];
        off_in += plan[ch];
      }
      ref_fabric_shift(fabric, chain_ff, plan, in_bits, out_model, obs_ff);
      for (std::uint32_t i : tracked) {
        if (r.state[i] != core::FaultState::Hidden) continue;
        auto& chain_f = r.hidden_chain[i];
        ref_fabric_shift(fabric, chain_f, plan, in_bits, out_model, obs_f);
        if (obs_f != obs_ff) {
          r.state[i] = core::FaultState::Caught;
          r.catch_cycle[i] = cycle;
          r.hidden_chain.erase(i);
          ++st.caught_at_shift;
        }
      }
    }

    // Fault-free apply & capture.
    load_sources(v, chain_ff);
    ref_word_eval(nl, vals);
    for (std::size_t o = 0; o < nl.num_outputs(); ++o)
      po_ff[o] = static_cast<std::uint8_t>(vals[nl.outputs()[o]] & 1);
    for (std::size_t pos = 0; pos < L; ++pos)
      ns_ff[pos] = static_cast<std::uint8_t>(
          ref_next_state(nl, vals, nullptr, fabric.dff_at_flat(pos)) & 1);
    pre_capture = chain_ff;
    ref_capture(chain_ff, ns_ff, c.capture);

    // Every surviving tracked fault, from scratch.
    for (std::uint32_t i : tracked) {
      if (r.state[i] == core::FaultState::Caught) continue;
      const bool was_hidden = r.state[i] == core::FaultState::Hidden;
      if (was_hidden)
        ++r.hidden_advanced;
      else
        ++r.faults_classified;
      const std::vector<std::uint8_t>& chain_pre =
          was_hidden ? r.hidden_chain[i] : pre_capture;
      const Fault& f = c.faults[i];
      load_sources(v, chain_pre);
      ref_faulty_eval(nl, vals, f);
      for (std::size_t o = 0; o < nl.num_outputs(); ++o)
        po_f[o] = static_cast<std::uint8_t>(vals[nl.outputs()[o]] & 1);
      if (po_f != po_ff) {
        r.state[i] = core::FaultState::Caught;
        r.catch_cycle[i] = cycle;
        if (was_hidden) r.hidden_chain.erase(i);
        ++st.caught_at_po;
        continue;
      }
      for (std::size_t pos = 0; pos < L; ++pos)
        ns_f[pos] = static_cast<std::uint8_t>(
            ref_next_state(nl, vals, &f, fabric.dff_at_flat(pos)) & 1);
      new_chain = chain_pre;
      ref_capture(new_chain, ns_f, c.capture);
      if (new_chain == chain_ff) {
        if (was_hidden) {
          r.state[i] = core::FaultState::Uncaught;
          r.hidden_chain.erase(i);
          ++st.hidden_reverted;
        }
      } else {
        if (!was_hidden) ++st.new_hidden;
        r.state[i] = core::FaultState::Hidden;
        r.hidden_chain[i] = new_chain;
      }
    }

    st.hidden_after = r.hidden_chain.size();
    r.cycles.push_back(st);
  }

  // Terminal observation: shift both machines and compare what the ATE
  // actually reads (independent of scan::observes_difference).  The
  // master observation size apportions over the chains exactly as the
  // tracker's scalar terminal_observe does.
  const std::size_t st_obs = c.schedule.terminal_observe;
  if (st_obs > 0) {
    const std::size_t final_cycle = c.schedule.vectors.size() + 1;
    const scan::ShiftPlan tplan = fabric.plan_for(st_obs);
    in_bits.assign(st_obs, 0);
    std::vector<std::uint8_t> tmp_ff, tmp_f;
    std::vector<std::uint32_t> observed_caught;
    for (const auto& [i, chain_f] : r.hidden_chain) {
      tmp_ff = chain_ff;
      tmp_f = chain_f;
      ref_fabric_shift(fabric, tmp_ff, tplan, in_bits, out_model, obs_ff);
      ref_fabric_shift(fabric, tmp_f, tplan, in_bits, out_model, obs_f);
      if (obs_f != obs_ff) observed_caught.push_back(i);
    }
    for (std::uint32_t i : observed_caught) {
      r.state[i] = core::FaultState::Caught;
      r.catch_cycle[i] = final_cycle;
      r.hidden_chain.erase(i);
      ++r.terminal_caught;
    }
  }

  r.chain_ff = chain_ff;
  return r;
}

// ---- stitched tracker run -------------------------------------------------

struct TrackerRun {
  std::vector<core::CycleStats> cycles;
  std::vector<std::uint8_t> chain_ff;
  std::unordered_map<std::uint32_t, core::FaultState> state;
  std::unordered_map<std::uint32_t, std::size_t> catch_cycle;
  std::unordered_map<std::uint32_t, std::vector<std::uint8_t>> hidden_chain;
  std::size_t terminal_caught = 0;
  std::size_t faults_classified = 0;
  std::size_t hidden_advanced = 0;
};

/// Drives a StitchTracker through the case's schedule.  \p model, when
/// given, replaces the compacted simulation model the tracker builds.
TrackerRun run_tracker(
    const Case& c, std::shared_ptr<const fault::CompactModel> model = nullptr) {
  const scan::Fabric fabric = case_fabric(c);
  core::StitchTracker tracker(sim::EvalGraph::compile(c.netlist), c.faults,
                              c.capture, fabric, case_out_model(c, fabric),
                              c.track, std::move(model));
  TrackerRun out;
  out.cycles.push_back(tracker.apply_first(c.schedule.vectors[0]));
  for (std::size_t ci = 1; ci < c.schedule.vectors.size(); ++ci) {
    // Recorded per-chain plans are ground truth when present; otherwise
    // the scalar overload apportions the master shift with plan_for.
    if (!c.schedule.plans.empty())
      out.cycles.push_back(tracker.apply_stitched(c.schedule.vectors[ci],
                                                  c.schedule.plans[ci]));
    else
      out.cycles.push_back(tracker.apply_stitched(c.schedule.vectors[ci],
                                                  c.schedule.shifts[ci]));
  }
  if (c.schedule.terminal_observe > 0)
    out.terminal_caught = tracker.terminal_observe(c.schedule.terminal_observe);
  tracker.state().flat_bits(out.chain_ff);
  out.faults_classified = tracker.profile().faults_classified;
  out.hidden_advanced = tracker.profile().hidden_advanced;
  for (std::uint32_t i : tracked_indices(c)) {
    out.state[i] = tracker.sets().state(i);
    if (out.state[i] == core::FaultState::Caught)
      out.catch_cycle[i] = tracker.sets().catch_cycle(i);
    else if (out.state[i] == core::FaultState::Hidden)
      tracker.hidden_state(i).flat_bits(out.hidden_chain[i]);
  }
  return out;
}

/// Canonical byte string of one tracker run (see tracker_digest).
std::string run_digest(const Case& c, const TrackerRun& run) {
  std::ostringstream os;
  for (const auto& st : run.cycles)
    os << st.shift << ',' << st.caught_at_shift << ',' << st.caught_at_po
       << ',' << st.new_hidden << ',' << st.hidden_reverted << ','
       << st.hidden_after << ';';
  os << '|';
  for (std::uint8_t b : run.chain_ff) os << char('0' + b);
  os << '|' << run.terminal_caught << '|' << run.faults_classified << ','
     << run.hidden_advanced << '|';
  // Deterministic fault order: tracked_indices is ascending.
  for (std::uint32_t i : tracked_indices(c)) {
    os << i << ':' << static_cast<int>(run.state.at(i));
    const auto cc = run.catch_cycle.find(i);
    if (cc != run.catch_cycle.end()) os << '@' << cc->second;
    const auto hc = run.hidden_chain.find(i);
    if (hc != run.hidden_chain.end()) {
      os << '=';
      for (std::uint8_t b : hc->second) os << char('0' + b);
    }
    os << ';';
  }
  return os.str();
}

std::string stats_str(const core::CycleStats& st) {
  std::ostringstream os;
  os << "shift=" << st.shift << " caught_at_shift=" << st.caught_at_shift
     << " caught_at_po=" << st.caught_at_po
     << " new_hidden=" << st.new_hidden
     << " hidden_reverted=" << st.hidden_reverted
     << " hidden_after=" << st.hidden_after;
  return os.str();
}

// ---- ATPG engine oracle ----------------------------------------------------

constexpr std::uint64_t kAtpgSalt = 0xa19ebfa57c0be5ULL;

/// Faults the engine-vs-engine oracle samples per round.
constexpr std::size_t kAtpgFaultSample = 12;

/// Reference fault-sim evaluations per Success cube.  Each evaluation
/// checks 64 random completions at once (one per bit lane).
constexpr std::size_t kCubeEvals = 2;

/// Verifies one Success cube: every pinned scan cell must carry its pin,
/// and every random completion of the X positions must detect the fault at
/// a primary output or a captured next-state under the naive reference.
/// Word-parallel: fixed positions become all-0/all-1 words, X positions
/// random words, so each of the 64 bit lanes is an independent completion
/// and detection must hold in *every* lane.
std::optional<std::string> atpg_cube_error(const Netlist& nl, const Fault& f,
                                           const atpg::Cube& cube,
                                           const atpg::PpiConstraints& cons,
                                           Rng& rng) {
  for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
    const Trit pin = cons.at(i);
    if (pin != Trit::X && cube.ppi[i] != pin)
      return "cube violates pinned scan cell " + std::to_string(i);
  }
  for (std::size_t rep = 0; rep < kCubeEvals; ++rep) {
    std::vector<Word> good(nl.num_gates(), 0);
    auto completion = [&](Trit t) {
      return t == Trit::One    ? ~Word{0}
             : t == Trit::Zero ? Word{0}
                               : rng.next();
    };
    for (std::size_t i = 0; i < nl.num_inputs(); ++i)
      good[nl.inputs()[i]] = completion(cube.pi[i]);
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      good[nl.dffs()[i]] = completion(cube.ppi[i]);
    std::vector<Word> bad = good;
    ref_word_eval(nl, good);
    ref_faulty_eval(nl, bad, f);
    Word detected = 0;
    for (GateId po : nl.outputs()) detected |= good[po] ^ bad[po];
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      detected |= ref_next_state(nl, good, nullptr, i) ^
                  ref_next_state(nl, bad, &f, i);
    if (detected != ~Word{0})
      return "a completion of the cube misses detection";
  }
  return std::nullopt;
}

/// Random PPI constraints: half the draws are all-free, the rest pin a
/// random ~third of the scan cells.
atpg::PpiConstraints random_constraints(const Netlist& nl, Rng& rng) {
  atpg::PpiConstraints cons;
  if (rng.below(2) == 0) return cons;
  cons.fixed.assign(nl.num_dffs(), Trit::X);
  for (auto& t : cons.fixed)
    if (rng.below(3) == 0) t = rng.below(2) != 0 ? Trit::One : Trit::Zero;
  return cons;
}

}  // namespace

std::optional<Failure> check_simulators(const Case& c,
                                        std::uint64_t stimulus_seed,
                                        std::size_t rounds) {
  const auto graph = sim::EvalGraph::compile(c.netlist);
  Rng rng(stimulus_seed);
  for (std::size_t round = 0; round < rounds; ++round) {
    auto f = simulators_round(c, graph, rng);
    if (f) {
      f->detail = "round " + std::to_string(round) + ": " + f->detail;
      return f;
    }
  }
  return std::nullopt;
}

std::optional<Failure> check_compaction(const Case& c,
                                        std::uint64_t stimulus_seed,
                                        std::size_t rounds) {
  const auto graph = sim::EvalGraph::compile(c.netlist);
  const fault::CompactModel model(graph, c.faults.faults(), /*enable=*/true);
  Rng rng(stimulus_seed);
  for (std::size_t round = 0; round < rounds; ++round) {
    auto f = compaction_round(c, graph, model, rng);
    if (!f) f = dispatch_round(c, graph, rng);
    if (f) {
      f->detail = "round " + std::to_string(round) + ": " + f->detail;
      return f;
    }
  }
  // Full-tracker A-B: the stitched run on the compacted model must be
  // byte-identical to the run on the identity model.
  const auto identity = std::make_shared<const fault::CompactModel>(
      graph, c.faults.faults(), /*enable=*/false);
  if (tracker_digest(c) != run_digest(c, run_tracker(c, identity)))
    return fail("compact",
                "tracker digest differs between the compacted and the "
                "identity model");
  return std::nullopt;
}

std::optional<Failure> check_flush(const Case& c, std::uint64_t flush_seed,
                                   std::size_t rounds) {
  const scan::Fabric fabric = case_fabric(c);
  const scan::FabricOut out = case_out_model(c, fabric);
  const std::size_t L = fabric.total_length();
  const scan::ShiftPlan full = fabric.plan_for(L);
  Rng rng(flush_seed);
  std::vector<std::uint8_t> state(L), flush(L), zeros(L, 0);
  std::vector<std::uint8_t> img, end_s0, end_0f, other, obs_a, obs_b,
      ref_chain, ref_in;
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::string tag = "round " + std::to_string(round) + ": ";
    for (auto& b : state) b = rng.bit();
    for (auto& b : flush) b = rng.bit();

    // Reference decomposition of a full flush: state alone, stream alone.
    img = state;
    ref_fabric_shift(fabric, img, full, zeros, out, obs_a);
    end_s0 = img;
    img.assign(L, 0);
    ref_fabric_shift(fabric, img, full, flush, out, obs_a);
    end_0f = img;

    // Compiled path on the combined stimulus; superposition must hold bit
    // for bit on the post-flush contents.
    scan::FabricState fs(fabric);
    fs.load(state);
    fs.shift(full, flush);
    fs.flat_bits(img);
    for (std::size_t k = 0; k < L; ++k)
      if (img[k] != (end_s0[k] ^ end_0f[k]))
        return fail("flush", tag + "post-flush contents violate GF(2) "
                                   "superposition at flat cell " +
                                 std::to_string(k));
    // A full flush replaces every chain's contents with its own reversed
    // scan-in stream — no bit may leak across a chain boundary.
    for (std::size_t ch = 0; ch < fabric.num_chains(); ++ch) {
      const std::size_t off = fabric.chain_offset(ch);
      const std::size_t len = fabric.chain_length(ch);
      for (std::size_t p = 0; p < len; ++p)
        if (img[off + p] != flush[off + len - 1 - p])
          return fail("flush", tag + "full flush corrupted chain " +
                                   std::to_string(ch) + " position " +
                                   std::to_string(p));
    }

    // Partial plan: the compiled shift must match the naive reference and
    // slide — never corrupt — each chain's retained region.
    const std::size_t s = 1 + rng.below(L);
    const scan::ShiftPlan plan = fabric.plan_for(s);
    std::vector<std::uint8_t> in(flush.begin(),
                                 flush.begin() + static_cast<std::ptrdiff_t>(s));
    scan::FabricState ps(fabric);
    ps.load(state);
    ps.shift(plan, in);
    img = state;
    ref_fabric_shift(fabric, img, plan, in, out, obs_a);
    ps.flat_bits(end_s0);  // reuse as the compiled post-shift image
    if (end_s0 != img)
      return fail("flush",
                  tag + "partial-shift contents diverge from the naive "
                        "reference (master shift " +
                      std::to_string(s) + ")");
    for (std::size_t ch = 0; ch < fabric.num_chains(); ++ch) {
      const std::size_t off = fabric.chain_offset(ch);
      const std::size_t len = fabric.chain_length(ch);
      for (std::size_t p = plan[ch]; p < len; ++p)
        if (end_s0[off + p] != state[off + p - plan[ch]])
          return fail("flush", tag + "retained region of chain " +
                                   std::to_string(ch) +
                                   " corrupted at position " +
                                   std::to_string(p));
    }

    // Every chain's closed-form observations (and contents) under the
    // same partial plan must equal the per-bit reference shift's.
    const std::uint8_t* in_c = in.data();
    for (std::size_t ch = 0; ch < fabric.num_chains(); ++ch) {
      const std::uint8_t* cells = state.data() + fabric.chain_offset(ch);
      ref_chain.assign(cells, cells + fabric.chain_length(ch));
      ref_in.assign(in_c, in_c + plan[ch]);
      in_c += plan[ch];
      scan::ChainState cs(ref_chain);
      const std::vector<std::uint8_t> obs = cs.shift(ref_in, out.chains[ch]);
      ref_shift(ref_chain, ref_in, out.chains[ch], obs_a);
      if (obs != obs_a || cs.bits() != ref_chain)
        return fail("flush", tag + "chain " + std::to_string(ch) +
                                 " closed-form shift of " +
                                 std::to_string(plan[ch]) +
                                 " bits diverges from the naive reference");
    }

    // The catch rule: a fabric differing from `state` in a few cells, so
    // differences sit at every depth inside and past the observation
    // window, must be caught exactly when the reference streams differ
    // with both machines taking one shared scan-in stream.
    other = state;
    for (std::size_t k = 1 + rng.below(3); k-- > 0;) other[rng.below(L)] ^= 1;
    const scan::FabricState layout(fabric);
    scan::FabricDiff diff;
    for (std::uint32_t k = 0; k < L; ++k)
      if (other[k] != state[k]) diff.push_back(k);
    const auto catch_agrees = [&](const scan::ShiftPlan& p,
                                  const std::vector<std::uint8_t>& stream) {
      img = other;
      ref_fabric_shift(fabric, img, p, stream, out, obs_a);
      img = state;
      ref_fabric_shift(fabric, img, p, stream, out, obs_b);
      return scan::observes_difference(diff, layout, p, out) ==
             (obs_a != obs_b);
    };
    if (!catch_agrees(plan, in) || !catch_agrees(full, flush))
      return fail("flush", tag + "observes_difference disagrees with the "
                                 "reference streams");
  }
  return std::nullopt;
}

std::optional<Failure> check_atpg(const Case& c, std::uint64_t seed,
                                  std::size_t rounds) {
  const Netlist& nl = c.netlist;
  const auto graph = sim::EvalGraph::compile(nl);
  const tmeas::Scoap scoap(*graph);
  const auto podem = atpg::make_engine(atpg::EngineKind::Podem, graph, scoap);
  const auto sat = atpg::make_engine(atpg::EngineKind::Sat, graph, scoap);
  // The engines' shortcut, checked against the plain CNF with no frame.
  atpg::PinFrame frame(graph);
  atpg::CnfEncoder encoder(graph);
  atpg::Cnf cnf;
  atpg::CdclSolver solver;
  const auto same = [](const atpg::GenResult& a, const atpg::GenResult& b) {
    return a.status == b.status && a.backtracks == b.backtracks &&
           a.conflicts == b.conflicts && a.cube.pi == b.cube.pi &&
           a.cube.ppi == b.cube.ppi;
  };

  Rng rng(seed);
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto cons = random_constraints(nl, rng);
    frame.load(&cons);
    const auto sample = sample_faults(c.faults.size(), rng, kAtpgFaultSample);
    for (std::uint32_t fi : sample) {
      const Fault& f = c.faults[fi];
      const auto rp = podem->generate(f, &cons);
      const auto rs = sat->generate(f, &cons);
      for (const auto kind : {atpg::EngineKind::Podem, atpg::EngineKind::Sat}) {
        const auto fresh =
            atpg::make_engine(kind, graph, scoap)->generate(f, &cons);
        if (!same(kind == atpg::EngineKind::Podem ? rp : rs, fresh))
          return fail("atpg", std::string(atpg::to_string(kind)) +
                                  " reusing its pin frame diverges from a "
                                  "fresh engine for " +
                                  fault::fault_name(nl, f));
      }
      if (frame.proves_untestable(f)) {
        encoder.encode(f, &cons, cnf);
        solver.reset(cnf.num_vars);
        solver.load(cnf);
        if (solver.solve() == atpg::SatResult::Sat)
          return fail("atpg", "the pin frame proves untestable but the "
                              "plain CNF is satisfiable for " +
                                  fault::fault_name(nl, f));
      }
      if (rp.status == atpg::PodemStatus::Success)
        if (auto err = atpg_cube_error(nl, f, rp.cube, cons, rng))
          return fail("atpg",
                      "podem: " + *err + " for " + fault::fault_name(nl, f));
      if (rs.status == atpg::PodemStatus::Success)
        if (auto err = atpg_cube_error(nl, f, rs.cube, cons, rng))
          return fail("atpg",
                      "sat: " + *err + " for " + fault::fault_name(nl, f));
      // Definitive verdicts must never contradict; Aborted claims nothing.
      if (rp.status == atpg::PodemStatus::Untestable &&
          rs.status == atpg::PodemStatus::Success)
        return fail("atpg", "podem proves untestable but sat found a cube "
                            "for " +
                                fault::fault_name(nl, f));
      if (rs.status == atpg::PodemStatus::Untestable &&
          rp.status == atpg::PodemStatus::Success)
        return fail("atpg", "sat proves untestable but podem found a cube "
                            "for " +
                                fault::fault_name(nl, f));
    }
  }
  return std::nullopt;
}

std::optional<Failure> check_tracker(const Case& c) {
  const TrackerRun got = run_tracker(c);
  const RefTrackerResult want = ref_track(c);

  if (got.chain_ff != want.chain_ff)
    return fail("tracker", "fault-free chain diverges from naive reference");
  for (std::size_t ci = 0; ci < want.cycles.size(); ++ci)
    if (!(got.cycles[ci] == want.cycles[ci]))
      return fail("tracker", "cycle " + std::to_string(ci + 1) +
                                 " stats: tracker {" +
                                 stats_str(got.cycles[ci]) + "} vs ref {" +
                                 stats_str(want.cycles[ci]) + "}");
  if (got.terminal_caught != want.terminal_caught)
    return fail("tracker",
                "terminal observe caught " +
                    std::to_string(got.terminal_caught) + " vs ref " +
                    std::to_string(want.terminal_caught));
  if (got.faults_classified != want.faults_classified)
    return fail("tracker", "faults_classified counter " +
                               std::to_string(got.faults_classified) +
                               " vs ref tally " +
                               std::to_string(want.faults_classified));
  if (got.hidden_advanced != want.hidden_advanced)
    return fail("tracker", "hidden_advanced counter " +
                               std::to_string(got.hidden_advanced) +
                               " vs ref tally " +
                               std::to_string(want.hidden_advanced));
  for (const auto& [i, st] : want.state) {
    const auto it = got.state.find(i);
    if (it == got.state.end() || it->second != st)
      return fail("tracker",
                  "fault " + fault::fault_name(c.netlist, c.faults[i]) +
                      " final state mismatch");
    if (st == core::FaultState::Caught &&
        got.catch_cycle.at(i) != want.catch_cycle.at(i))
      return fail("tracker",
                  "fault " + fault::fault_name(c.netlist, c.faults[i]) +
                      " catch cycle " +
                      std::to_string(got.catch_cycle.at(i)) + " vs ref " +
                      std::to_string(want.catch_cycle.at(i)));
    if (st == core::FaultState::Hidden &&
        got.hidden_chain.at(i) != want.hidden_chain.at(i))
      return fail("tracker",
                  "fault " + fault::fault_name(c.netlist, c.faults[i]) +
                      " surviving hidden chain mismatch");
  }
  return std::nullopt;
}

// ---- ADI oracle -----------------------------------------------------------

namespace {

/// Naive O(vectors × faults) Accidental Detection Index: one reference
/// evaluation per (vector, fault) pair, single-pattern words, no graph, no
/// shards, no pattern packing.  The independent half of check_adi.
std::vector<std::uint32_t> ref_adi_counts(
    const Netlist& nl, const std::vector<Fault>& faults,
    const std::vector<atpg::TestVector>& vectors) {
  std::vector<std::uint32_t> counts(faults.size(), 0);
  for (const auto& v : vectors) {
    std::vector<Word> src(nl.num_gates(), 0);
    for (std::size_t i = 0; i < nl.num_inputs(); ++i)
      src[nl.inputs()[i]] = v.pi[i] ? ~Word{0} : Word{0};
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      src[nl.dffs()[i]] = v.ppi[i] ? ~Word{0} : Word{0};
    std::vector<Word> good = src;
    ref_word_eval(nl, good);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      const Fault& f = faults[fi];
      std::vector<Word> bad = src;
      ref_faulty_eval(nl, bad, f);
      bool detected = false;
      for (GateId po : nl.outputs())
        if (good[po] != bad[po]) {
          detected = true;
          break;
        }
      for (std::size_t i = 0; !detected && i < nl.num_dffs(); ++i)
        if (ref_next_state(nl, good, nullptr, i) !=
            ref_next_state(nl, bad, &f, i))
          detected = true;
      if (detected) ++counts[fi];
    }
  }
  return counts;
}

}  // namespace

std::optional<Failure> check_adi(const Case& c, std::uint64_t seed,
                                 std::size_t rounds) {
  const Netlist& nl = c.netlist;
  Rng rng(seed);
  // Vector pool: every stimulus of the case's schedule plus a few random
  // vectors, so the counts exercise both structured and arbitrary states.
  std::vector<atpg::TestVector> vectors = c.schedule.vectors;
  vectors.insert(vectors.end(), c.schedule.extra.begin(),
                 c.schedule.extra.end());
  for (std::size_t r = 0; r < rounds; ++r) {
    atpg::TestVector v;
    v.pi.resize(nl.num_inputs());
    for (auto& b : v.pi) b = rng.bit();
    v.ppi.resize(nl.num_dffs());
    for (auto& b : v.ppi) b = rng.bit();
    vectors.push_back(std::move(v));
  }
  // The tracked subset keeps the naive reference affordable on big cases.
  const std::vector<std::uint32_t> idx = tracked_indices(c);
  std::vector<Fault> subset;
  subset.reserve(idx.size());
  for (std::uint32_t i : idx) subset.push_back(c.faults[i]);

  const auto fast =
      core::adi_counts(sim::EvalGraph::compile(nl), subset, vectors);
  const auto ref = ref_adi_counts(nl, subset, vectors);
  for (std::size_t k = 0; k < subset.size(); ++k)
    if (fast[k] != ref[k])
      return fail("adi",
                  "fault " + fault::fault_name(nl, subset[k]) + " adi " +
                      std::to_string(fast[k]) + " vs reference " +
                      std::to_string(ref[k]) + " over " +
                      std::to_string(vectors.size()) + " vectors");
  return std::nullopt;
}

std::string tracker_digest(const Case& c) {
  return run_digest(c, run_tracker(c));
}

std::optional<Failure> run_oracles(const Case& c, const Scenario& sc) {
  try {
    if (auto f = check_simulators(
            c, sc.seed ^ util::splitmix64(kStimulusSalt), sc.sim_rounds))
      return f;
    if (auto f = check_compaction(
            c, sc.seed ^ util::splitmix64(kCompactSalt), sc.sim_rounds))
      return f;
    if (auto f = check_flush(c, sc.seed ^ util::splitmix64(kFlushSalt),
                             sc.sim_rounds))
      return f;
    if (auto f = check_atpg(c, sc.seed ^ util::splitmix64(kAtpgSalt),
                            sc.sim_rounds))
      return f;
    if (auto f = check_adi(c, sc.seed ^ util::splitmix64(kAdiSalt),
                           sc.sim_rounds))
      return f;
    return check_tracker(c);
  } catch (const std::exception& e) {
    return Failure{"exception", e.what()};
  }
}

}  // namespace vcomp::check
