// Determinism suite for the GA shift-schedule search: the winning
// chromosome, its fitness and the whole per-generation trajectory are a
// pure function of (lab, options, seed) — for every thread count and every
// population-evaluation shard split.

#include "vcomp/core/ga_schedule.hpp"

#include <gtest/gtest.h>

#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/obs/obs.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::core {
namespace {

GaOptions small_ga(std::uint64_t seed) {
  GaOptions g;
  g.population = 4;
  g.generations = 3;
  g.genes = 3;
  g.elite = 1;
  g.seed = seed;
  return g;
}

bool identical(const GaResult& a, const GaResult& b) {
  return a.schedule == b.schedule && a.fitness_m == b.fitness_m &&
         a.fitness_t == b.fitness_t && a.trajectory == b.trajectory &&
         a.generations == b.generations && a.evals == b.evals;
}

TEST(GaSchedule, PinnedWinnerForFixedSeed) {
  // Frozen output of the whole search on the paper's example circuit at
  // seed 5.  Any drift here is a behavior change in the GA or the engine —
  // the same contract the committed BENCH_learned.json enforces at scale.
  const CircuitLab lab("fig1", netgen::example_circuit());
  const GaResult r = evolve_schedule(lab, {}, small_ga(5));
  EXPECT_EQ(r.schedule, (std::vector<std::size_t>{2, 2, 1}));
  EXPECT_EQ(r.generations, 3u);
  ASSERT_EQ(r.trajectory.size(), 4u);  // initial population + 3 generations
  EXPECT_EQ(r.trajectory.back(), r.fitness_m);
  for (std::size_t i = 1; i < r.trajectory.size(); ++i)
    EXPECT_LE(r.trajectory[i], r.trajectory[i - 1]);  // best never worsens
}

TEST(GaSchedule, ByteIdenticalAcrossThreadCountsAndShards) {
  const CircuitLab lab("fig1", netgen::example_circuit());
  GaResult serial;
  {
    util::ScopedParallelism scoped(1);
    serial = evolve_schedule(lab, {}, small_ga(9));
  }
  // 2/4/8 workers split the population evaluation into different shard
  // layouts; none of them may leak into the result.
  for (const std::size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    util::ScopedParallelism scoped(threads);
    const GaResult pooled = evolve_schedule(lab, {}, small_ga(9));
    EXPECT_TRUE(identical(serial, pooled));
  }
}

TEST(GaSchedule, SeedChangesTheSearch) {
  const CircuitLab lab(netgen::profile("s444"));
  const GaResult a = evolve_schedule(lab, {}, small_ga(1));
  const GaResult b = evolve_schedule(lab, {}, small_ga(2));
  // Different seeds explore different populations (trajectories diverge
  // even when both happen to converge to similar winners).
  EXPECT_TRUE(a.schedule != b.schedule || a.trajectory != b.trajectory);
}

TEST(GaSchedule, CacheCountsRealEvalsOnly) {
  const CircuitLab lab("fig1", netgen::example_circuit());
  GaOptions g = small_ga(3);
  g.generations = 6;  // long enough for elites / duplicates to recur
  const GaResult r = evolve_schedule(lab, {}, g);
  // Elites are carried unchanged every generation, so the naive count
  // (population * (generations + 1)) must overshoot the real one.
  EXPECT_LT(r.evals, g.population * (g.generations + 1));
  EXPECT_GE(r.evals, g.population);  // the initial population always runs
}

TEST(GaSchedule, ObsCountersMatchResult) {
  const CircuitLab lab("fig1", netgen::example_circuit());
  GaResult r;
  const obs::CounterSet counters = obs::scoped_counters(
      [&] { r = evolve_schedule(lab, {}, small_ga(7)); });
  std::uint64_t evals = 0, generations = 0;
  for (const auto& [name, value] : counters.values) {
    if (name == "ga.evals") evals = value;
    if (name == "ga.generations") generations = value;
  }
  EXPECT_EQ(evals, r.evals);
  EXPECT_EQ(generations, r.generations);
}

TEST(GaSchedule, ApplyStampsScheduleAndLabel) {
  GaResult r;
  r.schedule = {3, 1, 2};
  StitchOptions base;
  base.fixed_shift = 7;
  base.selection = SelectionPolicy::Adi;
  const StitchOptions o = apply_ga_schedule(base, r);
  EXPECT_EQ(o.shift_schedule, r.schedule);
  EXPECT_EQ(o.fixed_shift, 0u);
  EXPECT_EQ(o.schedule_label, "ga+adi");
  EXPECT_THROW(apply_ga_schedule(base, GaResult{}), vcomp::ContractError);
}

TEST(GaSchedule, WinnerRunsWithGaKind) {
  const CircuitLab lab("fig1", netgen::example_circuit());
  const GaResult gr = evolve_schedule(lab, {}, small_ga(5));
  const auto run = lab.run(apply_ga_schedule({}, gr));
  EXPECT_EQ(run.schedule.kind, "ga+most-faults");
  EXPECT_EQ(run.uncovered, 0u);
}

TEST(GaSchedule, RejectsDegenerateOptions) {
  const CircuitLab lab("fig1", netgen::example_circuit());
  GaOptions g = small_ga(1);
  g.population = 1;
  EXPECT_THROW(evolve_schedule(lab, {}, g), vcomp::ContractError);
  g = small_ga(1);
  g.elite = g.population;
  EXPECT_THROW(evolve_schedule(lab, {}, g), vcomp::ContractError);
  g = small_ga(1);
  g.genes = 0;
  EXPECT_THROW(evolve_schedule(lab, {}, g), vcomp::ContractError);
  g = small_ga(1);
  g.tournament = 0;
  EXPECT_THROW(evolve_schedule(lab, {}, g), vcomp::ContractError);
}

}  // namespace
}  // namespace vcomp::core
