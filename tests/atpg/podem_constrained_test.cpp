// Property sweep: PODEM under random scan-state constraints.
//
// For random (circuit, chain-state prefix, shift size) combinations —
// exactly the constraint shape the stitching engine produces — every
// Success cube must (a) honour the pinned scan cells and (b) detect its
// target fault for random completions of the free bits; every Untestable
// verdict must resist a barrage of random vectors that also honour the
// constraints.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "vcomp/atpg/podem.hpp"
#include "vcomp/atpg/sat_engine.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::atpg {
namespace {

using fault::DiffSim;
using sim::Trit;
using sim::Word;

// The circuit name is a std::string, not a const char*: gtest prints a
// pointer parameter by address, which would put a per-process value into
// the test's name.
class ConstrainedPodem : public ::testing::TestWithParam<
                             std::tuple<std::string, std::uint64_t>> {};

TEST_P(ConstrainedPodem, VerdictsVerifiedBySimulation) {
  const auto [name, seed] = GetParam();
  auto nl = netgen::generate(name);
  auto cf = fault::collapsed_fault_list(nl);
  tmeas::Scoap scoap(nl);
  Podem podem(nl, scoap);
  DiffSim sim(nl);
  Rng rng(seed);

  const std::size_t L = nl.num_dffs();
  for (int scenario = 0; scenario < 6; ++scenario) {
    // Random constraint: pin the retained part [s, L) to random values.
    const std::size_t s = 1 + rng.below(L);
    PpiConstraints cons;
    cons.fixed.assign(L, Trit::X);
    for (std::size_t p = s; p < L; ++p)
      cons.fixed[p] = rng.bit() ? Trit::One : Trit::Zero;

    // A handful of random target faults per scenario.
    for (int t = 0; t < 12; ++t) {
      const auto& f = cf[rng.below(cf.size())];
      const auto res = podem.generate(f, &cons, {.max_backtracks = 256});

      if (res.status == PodemStatus::Success) {
        // (a) pinned cells must appear with their pinned values.
        for (std::size_t p = 0; p < L; ++p) {
          if (cons.fixed[p] != Trit::X) {
            ASSERT_EQ(res.cube.ppi[p], cons.fixed[p])
                << fault_name(nl, f) << " cell " << p;
          }
        }
        // (b) random completions must detect.
        for (int c = 0; c < 3; ++c) {
          for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
            const Trit tv = res.cube.pi[i];
            const bool bit = tv == Trit::X ? rng.bit() : tv == Trit::One;
            sim.good().set_input(i, bit ? ~Word{0} : Word{0});
          }
          for (std::size_t i = 0; i < L; ++i) {
            const Trit tv = res.cube.ppi[i];
            const bool bit = tv == Trit::X ? rng.bit() : tv == Trit::One;
            sim.good().set_state(i, bit ? ~Word{0} : Word{0});
          }
          sim.commit_good();
          ASSERT_NE(sim.simulate(f).any(), Word{0})
              << fault_name(nl, f) << " cube completion failed";
        }
      } else if (res.status == PodemStatus::Untestable) {
        // 128 random constraint-honouring vectors must all miss.
        for (int c = 0; c < 2; ++c) {
          for (std::size_t i = 0; i < nl.num_inputs(); ++i)
            sim.good().set_input(i, rng.next());
          for (std::size_t i = 0; i < L; ++i) {
            const Trit tv = cons.fixed[i];
            sim.good().set_state(
                i, tv == Trit::X ? rng.next()
                                 : (tv == Trit::One ? ~Word{0} : Word{0}));
          }
          sim.commit_good();
          ASSERT_EQ(sim.simulate(f).any(), Word{0})
              << fault_name(nl, f)
              << " claimed untestable under constraints but detected";
        }
      }
      // Aborted verdicts claim nothing.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, ConstrainedPodem,
    ::testing::Values(std::make_tuple("s444", 0x100ULL),
                      std::make_tuple("s526", 0x200ULL),
                      std::make_tuple("s641", 0x300ULL),
                      std::make_tuple("s953", 0x400ULL)));

TEST(ConstrainedPodemEdge, AllCellsPinned) {
  // Fully pinned chain: PODEM may only assign PIs.
  auto nl = netgen::generate("s641");  // has 35 PIs to play with
  auto cf = fault::collapsed_fault_list(nl);
  tmeas::Scoap scoap(nl);
  Podem podem(nl, scoap);
  Rng rng(1);

  PpiConstraints cons;
  cons.fixed.resize(nl.num_dffs());
  for (auto& t : cons.fixed) t = rng.bit() ? Trit::One : Trit::Zero;

  std::size_t successes = 0;
  for (std::size_t i = 0; i < cf.size() && i < 64; ++i) {
    const auto res = podem.generate(cf[i], &cons, {.max_backtracks = 64});
    if (res.status == PodemStatus::Success) {
      ++successes;
      for (std::size_t p = 0; p < nl.num_dffs(); ++p)
        ASSERT_EQ(res.cube.ppi[p], cons.fixed[p]);
    }
  }
  // PIs alone still excite plenty of faults on this PI-rich circuit.
  EXPECT_GT(successes, 8u);
}

TEST(ConstrainedPodemEdge, EmptyConstraintEqualsUnconstrained) {
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  tmeas::Scoap scoap(nl);
  Podem podem(nl, scoap);

  PpiConstraints all_free;
  all_free.fixed.assign(nl.num_dffs(), Trit::X);
  for (std::size_t i = 0; i < 40; ++i) {
    const auto a = podem.generate(cf[i], nullptr);
    const auto b = podem.generate(cf[i], &all_free);
    EXPECT_EQ(a.status, b.status) << fault_name(nl, cf[i]);
  }
}

TEST(ConstrainedPodemEdge, ReusedPinFrameMatchesFreshEngine) {
  // One engine keeps its pin frame across calls; a fresh engine builds it
  // from scratch.  Through pin changes, unpinned queries, an all-X vector
  // and a rejected wrong-size vector, both must give every fault the same
  // result, so the frame can never leak one call's state into the next.
  // The same holds for the SAT engine's frame.
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  const auto graph = sim::EvalGraph::compile(nl);
  const tmeas::Scoap scoap(*graph);
  Podem shared(graph, scoap);
  SatEngine shared_sat(graph);
  Rng rng(0x5eed);

  const std::size_t L = nl.num_dffs();
  auto retained_pins = [&] {
    PpiConstraints cons;
    cons.fixed.assign(L, Trit::X);
    for (std::size_t p = L / 3; p < L; ++p)
      cons.fixed[p] = rng.bit() ? Trit::One : Trit::Zero;
    return cons;
  };
  const PpiConstraints a = retained_pins();
  const PpiConstraints b = retained_pins();
  PpiConstraints all_x;
  all_x.fixed.assign(L, Trit::X);
  PpiConstraints wrong_size = a;
  wrong_size.fixed.pop_back();

  const PpiConstraints* const script[] = {&a,     &b,          &a,
                                          nullptr, &all_x,     &wrong_size,
                                          &a,     &wrong_size, &a};
  for (std::size_t step = 0; step < std::size(script); ++step) {
    const PpiConstraints* cons = script[step];
    for (const auto& f : cf.faults()) {
      if (cons == &wrong_size) {
        EXPECT_THROW(shared.generate(f, cons), ContractError);
        EXPECT_THROW(shared_sat.generate(f, cons), ContractError);
        continue;
      }
      Podem fresh(graph, scoap);
      const PodemResult got = shared.generate(f, cons);
      const PodemResult want = fresh.generate(f, cons);
      ASSERT_EQ(got.status, want.status)
          << "step " << step << " " << fault_name(nl, f);
      ASSERT_EQ(got.backtracks, want.backtracks)
          << "step " << step << " " << fault_name(nl, f);
      ASSERT_EQ(got.cube.pi, want.cube.pi)
          << "step " << step << " " << fault_name(nl, f);
      ASSERT_EQ(got.cube.ppi, want.cube.ppi)
          << "step " << step << " " << fault_name(nl, f);

      SatEngine fresh_sat(graph);
      const GenResult got_sat = shared_sat.generate(f, cons);
      const GenResult want_sat = fresh_sat.generate(f, cons);
      ASSERT_EQ(got_sat.status, want_sat.status)
          << "sat step " << step << " " << fault_name(nl, f);
      ASSERT_EQ(got_sat.conflicts, want_sat.conflicts)
          << "sat step " << step << " " << fault_name(nl, f);
      ASSERT_EQ(got_sat.cube.pi, want_sat.cube.pi)
          << "sat step " << step << " " << fault_name(nl, f);
      ASSERT_EQ(got_sat.cube.ppi, want_sat.cube.ppi)
          << "sat step " << step << " " << fault_name(nl, f);
    }
  }
}

}  // namespace
}  // namespace vcomp::atpg
