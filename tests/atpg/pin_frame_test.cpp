// The pin frame's proof that the pinned cells alone block a fault.
//
// A proved query must be Untestable under every completion, and both
// engines must answer it from the frame without searching; the cases the
// proof must leave to the engines (an activated site, and with an X source
// a DFF data-pin branch or an observable PI/PPI stem) must never be proved.

#include "vcomp/atpg/pin_frame.hpp"

#include <gtest/gtest.h>

#include <string>

#include "vcomp/atpg/podem.hpp"
#include "vcomp/atpg/sat_engine.hpp"
#include "vcomp/netlist/bench_io.hpp"
#include "vcomp/obs/metrics.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::atpg {
namespace {

using fault::Fault;
using sim::Trit;

// Pinning Q to 0 holds Z's side input at AND's controlling value, so every
// path from G ends at a gate the frame fixes.  H fans out to the DFF R and
// to Y (a DFF data-pin branch), and the PI C drives the DFF S directly (an
// observable PI stem).
constexpr const char* kBlocked = R"(
INPUT(A)
INPUT(B)
INPUT(C)
OUTPUT(Z)
OUTPUT(Y)
Q = DFF(Z)
R = DFF(H)
S = DFF(C)
G = AND(A, B)
Z = AND(G, Q)
H = OR(C, Q)
Y = NOT(H)
)";

class PinFrameTest : public ::testing::Test {
 protected:
  PinFrameTest()
      : nl_(netlist::read_bench_string(kBlocked)),
        graph_(sim::EvalGraph::compile(nl_)),
        scoap_(*graph_),
        frame_(graph_) {}

  /// Pins Q to \p q and leaves every other DFF free.
  PpiConstraints pin_q(Trit q) const {
    PpiConstraints cons;
    cons.fixed.assign(nl_.num_dffs(), Trit::X);
    for (std::size_t i = 0; i < nl_.num_dffs(); ++i)
      if (nl_.dffs()[i] == nl_.find("Q")) cons.fixed[i] = q;
    return cons;
  }

  Fault stem(const std::string& gate, int stuck) const {
    return {nl_.find(gate), -1, static_cast<std::uint8_t>(stuck)};
  }

  /// Branch of \p sink's input pin driven by \p driver.
  Fault branch(const std::string& driver, const std::string& sink,
               int stuck) const {
    const netlist::GateId s = nl_.find(sink);
    const auto& fin = nl_.gate(s).fanin;
    for (std::size_t k = 0; k < fin.size(); ++k)
      if (fin[k] == nl_.find(driver))
        return {s, static_cast<std::int16_t>(k),
                static_cast<std::uint8_t>(stuck)};
    ADD_FAILURE() << "no branch " << driver << "->" << sink;
    return {};
  }

  netlist::Netlist nl_;
  sim::EvalGraph::Ref graph_;
  tmeas::Scoap scoap_;
  PinFrame frame_;
};

TEST_F(PinFrameTest, BlockedSiteAnsweredByBothEnginesWithoutSearch) {
  const PpiConstraints cons = pin_q(Trit::Zero);
  const Fault f = stem("G", 0);
  frame_.load(&cons);
  ASSERT_EQ(frame_.values()[nl_.find("G")], Trit::X);
  ASSERT_TRUE(frame_.proves_untestable(f));

  Podem podem(graph_, scoap_);
  SatEngine sat(graph_);
  PodemResult rp;
  GenResult rs;
  const obs::CounterSet counters = obs::scoped_counters([&] {
    rp = podem.generate(f, &cons);
    rs = sat.generate(f, &cons);
  });
  EXPECT_EQ(rp.status, PodemStatus::Untestable);
  EXPECT_EQ(rp.backtracks, 0u);
  EXPECT_EQ(rs.status, PodemStatus::Untestable);
  EXPECT_EQ(rs.conflicts, 0u);
  EXPECT_EQ(rs.sat_calls, 1u);
  EXPECT_EQ(counters.get("atpg.frame_untestable"), 2u);
  EXPECT_EQ(counters.get("podem.calls"), 1u);
  EXPECT_EQ(counters.get("podem.untestable"), 1u);
  EXPECT_EQ(counters.get("podem.constrained_untestable"), 1u);
  EXPECT_EQ(counters.get("podem.decisions"), 0u);
  EXPECT_EQ(counters.get("podem.implications"), 0u);
  EXPECT_EQ(counters.get("atpg.sat_calls"), 1u);
  EXPECT_EQ(counters.get("atpg.sat_untestable"), 1u);

  // Without the pin, G reaches Z through X gates: the search decides.
  const PpiConstraints unpinned;
  EXPECT_FALSE(frame_.load(&cons));  // same pins: no rebuild
  EXPECT_TRUE(frame_.load(&unpinned));
  EXPECT_FALSE(frame_.proves_untestable(f));
  EXPECT_EQ(podem.generate(f, &unpinned).status, PodemStatus::Success);
  EXPECT_EQ(sat.generate(f, &unpinned).status, PodemStatus::Success);
}

TEST_F(PinFrameTest, SourceFixedAtStuckValueIsProved) {
  const PpiConstraints zero = pin_q(Trit::Zero);
  frame_.load(&zero);  // Z fixed at 0
  EXPECT_TRUE(frame_.proves_untestable(stem("Z", 0)));
  EXPECT_TRUE(frame_.proves_untestable(stem("Q", 0)));
}

TEST_F(PinFrameTest, ActivatedFaultIsNotProved) {
  const PpiConstraints cons = pin_q(Trit::Zero);
  frame_.load(&cons);
  // Z is fixed at 0 and is a PO, so Z/1 is activated and detected.
  EXPECT_FALSE(frame_.proves_untestable(stem("Z", 1)));
  EXPECT_FALSE(frame_.proves_untestable(stem("Q", 1)));
  Podem podem(graph_, scoap_);
  EXPECT_EQ(podem.generate(stem("Z", 1), &cons).status, PodemStatus::Success);
}

TEST_F(PinFrameTest, DffDataPinBranchIsNotProved) {
  const PpiConstraints zero = pin_q(Trit::Zero);
  frame_.load(&zero);
  ASSERT_EQ(frame_.values()[nl_.find("H")], Trit::X);
  EXPECT_FALSE(frame_.proves_untestable(branch("H", "R", 0)));
  EXPECT_FALSE(frame_.proves_untestable(branch("H", "R", 1)));
}

TEST_F(PinFrameTest, ObservablePiStemIsNotProved) {
  const PpiConstraints one = pin_q(Trit::One);
  frame_.load(&one);  // H fixed at 1: C's other path ends
  ASSERT_EQ(frame_.values()[nl_.find("H")], Trit::One);
  EXPECT_FALSE(frame_.proves_untestable(stem("C", 0)));
  EXPECT_FALSE(frame_.proves_untestable(stem("C", 1)));
}

TEST_F(PinFrameTest, WrongSizeThrowsBeforeTheFrameChanges) {
  const PpiConstraints cons = pin_q(Trit::Zero);
  frame_.load(&cons);
  const std::vector<Trit> before(frame_.values().begin(),
                                 frame_.values().end());
  PpiConstraints wrong = cons;
  wrong.fixed.pop_back();
  EXPECT_THROW(frame_.load(&wrong), ContractError);
  EXPECT_EQ(std::vector<Trit>(frame_.values().begin(), frame_.values().end()),
            before);
  EXPECT_FALSE(frame_.load(&cons));  // the old key still holds
}

}  // namespace
}  // namespace vcomp::atpg
