// High-volume differential test of the word-parallel ADI computation: on
// thousands of small random scenarios, check::check_adi compares
// core::adi_counts (one DiffSim region call per 64 vectors) against its
// naive per-(vector, fault) reference.  This is
// the same oracle vcomp_fuzz chains into run_oracles; here it runs alone so
// the case budget can be much larger than a full fuzz sweep's.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "vcomp/check/oracles.hpp"
#include "vcomp/check/scenario.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::check {
namespace {

// VCOMP_ADI_CASES overrides the sweep size (the nightly runs raise it).
std::size_t case_budget() {
  const char* env = std::getenv("VCOMP_ADI_CASES");
  if (env != nullptr && env[0] != '\0') return std::stoul(env);
  return 10000;
}

TEST(AdiDifferential, WordParallelMatchesNaiveReference) {
  const std::size_t cases = case_budget();
  vcomp::Rng rng(0x5eedad1);
  std::size_t faults_checked = 0;
  for (std::size_t i = 0; i < cases; ++i) {
    // Lightweight scenarios: tiny netgen circuits, a handful of stitched
    // cycles, a bounded tracked-fault subset — so the naive reference
    // stays cheap and the sweep covers many shapes (including partial
    // final word batches, the off-by-one hot spot of the 64-way packing).
    Scenario sc;
    sc.seed = rng.next();
    sc.net_seed = rng.next();
    sc.num_pi = 1 + static_cast<std::size_t>(rng.below(4));
    sc.num_po = 1 + static_cast<std::size_t>(rng.below(3));
    sc.num_ff = 2 + static_cast<std::size_t>(rng.below(7));
    sc.num_gates = 8 + static_cast<std::size_t>(rng.below(28));
    sc.max_arity = 2 + static_cast<std::size_t>(rng.below(3));
    sc.cycles = 1 + static_cast<std::size_t>(rng.below(5));
    sc.max_track_faults = 32;
    // 0..130 extra random vectors: straddles the 64 and 128 word
    // boundaries of the batched simulation.
    sc.sim_rounds = static_cast<std::size_t>(rng.below(131));
    if (std::getenv("VCOMP_ADI_TRACE") != nullptr)
      std::fprintf(stderr,
                   "case %zu seed=%llu net=%llu pi=%zu po=%zu ff=%zu g=%zu "
                   "ar=%zu cyc=%zu rounds=%zu\n",
                   i, (unsigned long long)sc.seed,
                   (unsigned long long)sc.net_seed, sc.num_pi, sc.num_po,
                   sc.num_ff, sc.num_gates, sc.max_arity, sc.cycles,
                   sc.sim_rounds);
    const Case c = materialize(sc);
    faults_checked += tracked_indices(c).size();
    const auto f = check_adi(c, sc.seed, sc.sim_rounds);
    ASSERT_FALSE(f.has_value())
        << "case " << i << " (seed " << sc.seed << "): [" << f->oracle
        << "] " << f->detail;
  }
  EXPECT_GT(faults_checked, cases);  // the sweep exercised real fault sets
}

}  // namespace
}  // namespace vcomp::check
