#include "vcomp/atpg/test_set.hpp"

#include <algorithm>
#include <bit>

#include "vcomp/tmeas/scoap.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::atpg {

using fault::DiffSim;
using fault::Fault;
using sim::Word;

namespace {

/// Loads stimulus words into every lane of the good machine and evaluates
/// it.
void load_words(DiffSim& sim, std::span<const Word> pi,
                std::span<const Word> ppi) {
  for (std::size_t i = 0; i < pi.size(); ++i) sim.good().set_input(i, pi[i]);
  for (std::size_t i = 0; i < ppi.size(); ++i) sim.good().set_state(i, ppi[i]);
  sim.commit_good();
}

}  // namespace

std::vector<std::size_t> first_detections(
    DiffSim& sim, std::span<const TestVector* const> walk,
    std::span<const Fault> faults) {
  constexpr std::size_t kLanes = DiffSim::kLanes;
  std::vector<std::size_t> first(faults.size(), kNoDetection);
  std::vector<std::size_t> open(faults.size());
  for (std::size_t n = 0; n < open.size(); ++n) open[n] = n;
  std::vector<Fault> open_faults;
  std::vector<Word> pi_words(sim.graph()->num_inputs());
  std::vector<Word> ppi_words(sim.graph()->num_dffs());
  for (std::size_t base = 0; base < walk.size() && !open.empty();
       base += kLanes) {
    // Pattern lanes: lane k holds walk[base + k].
    const std::size_t count = std::min(kLanes, walk.size() - base);
    std::fill(pi_words.begin(), pi_words.end(), Word{0});
    std::fill(ppi_words.begin(), ppi_words.end(), Word{0});
    for (std::size_t k = 0; k < count; ++k) {
      const TestVector& v = *walk[base + k];
      for (std::size_t i = 0; i < pi_words.size(); ++i)
        pi_words[i] |= Word(v.pi[i] != 0) << k;
      for (std::size_t i = 0; i < ppi_words.size(); ++i)
        ppi_words[i] |= Word(v.ppi[i] != 0) << k;
    }
    load_words(sim, pi_words, ppi_words);
    const Word active = count == kLanes ? ~Word{0} : (Word{1} << count) - 1;
    // One region call over the open faults; a fault's lowest detecting
    // lane is its first detector.
    open_faults.clear();
    for (std::size_t n : open) open_faults.push_back(faults[n]);
    sim.simulate_regions(
        std::span<const Fault>(open_faults),
        [&](std::size_t n, const DiffSim::Effect& eff) {
          const Word hit = eff.any() & active;
          if (hit != 0) first[open[n]] = base + std::countr_zero(hit);
        });
    std::erase_if(open,
                  [&](std::size_t n) { return first[n] != kNoDetection; });
  }
  return first;
}

TestSetResult generate_full_scan_tests(const netlist::Netlist& nl,
                                       const std::vector<Fault>& faults,
                                       const TestSetOptions& options) {
  TestSetResult result;
  result.classes.assign(faults.size(), FaultClass::Aborted);

  // Every fault simulation below is a DiffSim region call on one engine
  // (each call carries the listed faults to their fanout-free regions'
  // roots and propagates only the roots), so results and counters cannot
  // depend on the thread count.  One compiled graph backs it and the
  // deterministic-phase engines.
  const auto eg = sim::EvalGraph::compile(nl);
  DiffSim sim(eg);
  Rng rng(options.seed);
  std::vector<std::uint8_t> detected(faults.size(), 0);

  const std::size_t npi = nl.num_inputs();
  const std::size_t nff = nl.num_dffs();

  // ---- Random phase with fault dropping -------------------------------
  std::size_t idle = 0;
  std::vector<Word> pi_words(npi), ppi_words(nff);
  std::vector<Word> det_all(faults.size(), 0);
  std::vector<std::size_t> open;
  std::vector<Fault> open_faults;
  for (std::size_t block = 0;
       options.random_idle_blocks > 0 && block < options.max_random_blocks &&
       idle < options.random_idle_blocks;
       ++block) {
    for (std::size_t i = 0; i < npi; ++i) pi_words[i] = rng.next();
    for (std::size_t i = 0; i < nff; ++i) ppi_words[i] = rng.next();
    load_words(sim, pi_words, ppi_words);
    open.clear();
    open_faults.clear();
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      det_all[fi] = 0;
      if (detected[fi]) continue;
      open.push_back(fi);
      open_faults.push_back(faults[fi]);
    }
    sim.simulate_regions(std::span<const Fault>(open_faults),
                         [&](std::size_t n, const DiffSim::Effect& eff) {
                           det_all[open[n]] = eff.any();
                         });

    // Greedy set cover within the block: keep the fewest patterns that
    // still detect every detectable fault (ATALANTA-grade compactness is
    // what makes aTV a fair baseline).  Consuming det_all in index order
    // reproduces the serial candidate ordering exactly.
    std::vector<Word> det_words;
    std::vector<std::size_t> det_faults;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (detected[fi] || det_all[fi] == 0) continue;
      det_words.push_back(det_all[fi]);
      det_faults.push_back(fi);
    }
    Word used = 0;
    const bool any_new = !det_words.empty();
    while (!det_words.empty()) {
      std::uint32_t count[64] = {};
      for (Word w : det_words)
        for (Word bits = w; bits != 0; bits &= bits - 1)
          ++count[std::countr_zero(bits)];
      int best = 0;
      for (int k = 1; k < 64; ++k)
        if (count[k] > count[best]) best = k;
      used |= Word{1} << best;
      std::size_t out = 0;
      for (std::size_t i = 0; i < det_words.size(); ++i) {
        if ((det_words[i] >> best) & 1) {
          detected[det_faults[i]] = 1;
        } else {
          det_words[out] = det_words[i];
          det_faults[out] = det_faults[i];
          ++out;
        }
      }
      det_words.resize(out);
      det_faults.resize(out);
    }
    idle = any_new ? 0 : idle + 1;

    for (int k = 0; k < 64; ++k) {
      if (!((used >> k) & 1)) continue;
      TestVector v;
      v.pi.resize(npi);
      v.ppi.resize(nff);
      for (std::size_t i = 0; i < npi; ++i) v.pi[i] = (pi_words[i] >> k) & 1;
      for (std::size_t i = 0; i < nff; ++i) v.ppi[i] = (ppi_words[i] >> k) & 1;
      result.vectors.push_back(std::move(v));
    }
  }

  // ---- Deterministic phase --------------------------------------------
  tmeas::Scoap scoap(*eg);
  Podem podem(eg, scoap);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (detected[fi]) continue;
    const auto res = podem.generate(faults[fi], nullptr, options.podem);
    if (res.status == PodemStatus::Untestable) {
      result.classes[fi] = FaultClass::Redundant;
      continue;
    }
    if (res.status == PodemStatus::Aborted) continue;

    TestVector v = fill_cube(res.cube, FillMode::Random, rng);
    // Fault-dropping simulation of the new vector: one region call over
    // the still-open faults under its broadcast stimulus.
    open.clear();
    open_faults.clear();
    for (std::size_t fj = fi; fj < faults.size(); ++fj)
      if (!detected[fj] && result.classes[fj] != FaultClass::Redundant) {
        open.push_back(fj);
        open_faults.push_back(faults[fj]);
      }
    for (std::size_t i = 0; i < npi; ++i)
      pi_words[i] = v.pi[i] ? ~Word{0} : Word{0};
    for (std::size_t i = 0; i < nff; ++i)
      ppi_words[i] = v.ppi[i] ? ~Word{0} : Word{0};
    load_words(sim, pi_words, ppi_words);
    sim.simulate_regions(std::span<const Fault>(open_faults),
                         [&](std::size_t n, const DiffSim::Effect& eff) {
                           if (eff.any() != 0) detected[open[n]] = 1;
                         });
    VCOMP_ENSURE(detected[fi], "PODEM vector failed to detect its target");
    result.vectors.push_back(std::move(v));
  }

  // ---- Reverse-order static compaction --------------------------------
  // Walking the vectors last to first, keep each one that detects a fault
  // no later vector already detects: exactly the vectors that are the
  // first detector, in that walk, of some detected fault.
  if (options.reverse_compaction && !result.vectors.empty()) {
    std::vector<const TestVector*> walk;
    for (auto it = result.vectors.rbegin(); it != result.vectors.rend(); ++it)
      walk.push_back(&*it);
    std::vector<Fault> covered;
    for (std::size_t fi = 0; fi < faults.size(); ++fi)
      if (detected[fi]) covered.push_back(faults[fi]);
    const auto first = first_detections(sim, walk, covered);
    std::vector<std::uint8_t> keep(walk.size(), 0);
    for (std::size_t w : first) {
      // Compaction must not lose coverage.
      VCOMP_ENSURE(w != kNoDetection, "compaction lost fault coverage");
      keep[w] = 1;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < result.vectors.size(); ++i) {
      if (!keep[walk.size() - 1 - i]) continue;
      if (kept != i) result.vectors[kept] = std::move(result.vectors[i]);
      ++kept;
    }
    result.vectors.resize(kept);
  }

  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (detected[fi]) {
      result.classes[fi] = FaultClass::Detected;
      ++result.num_detected;
    } else if (result.classes[fi] == FaultClass::Redundant) {
      ++result.num_redundant;
    } else {
      ++result.num_aborted;
    }
  }
  return result;
}

}  // namespace vcomp::atpg
