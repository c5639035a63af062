#include "vcomp/atpg/sat_engine.hpp"

#include "vcomp/obs/metrics.hpp"

namespace vcomp::atpg {

using sim::Trit;

namespace {

struct SatEngineMetrics {
  obs::Counter calls = obs::counter("atpg.sat_calls");
  obs::Counter conflicts = obs::counter("atpg.sat_conflicts");
  obs::Counter success = obs::counter("atpg.sat_success");
  obs::Counter untestable = obs::counter("atpg.sat_untestable");
  obs::Counter aborted = obs::counter("atpg.sat_aborted");
  // Queries the pin frame proved Untestable before any encoding (shared
  // with PODEM).
  obs::Counter frame_untestable = obs::counter("atpg.frame_untestable");
};

const SatEngineMetrics& sat_metrics() {
  static const SatEngineMetrics m;
  return m;
}

}  // namespace

SatEngine::SatEngine(sim::EvalGraph::Ref graph, const SatOptions& options)
    : eg_(std::move(graph)),
      nl_(&eg_->netlist()),
      opts_(options),
      frame_(eg_),
      encoder_(eg_) {}

GenResult SatEngine::generate(const fault::Fault& f,
                              const PpiConstraints* constraints) {
  frame_.load(constraints);
  GenResult res;
  res.sat_calls = 1;
  const SatEngineMetrics& m = sat_metrics();
  m.calls.inc();
  if (frame_.proves_untestable(f)) {
    res.status = PodemStatus::Untestable;
    m.untestable.inc();
    m.frame_untestable.inc();
    return res;
  }

  encoder_.encode(f, constraints, cnf_);
  solver_.reset(cnf_.num_vars);
  solver_.load(cnf_);

  CdclSolver::Options sopts;
  sopts.max_conflicts = opts_.max_conflicts;
  const SatResult sat = solver_.solve(sopts);

  res.conflicts = solver_.stats().conflicts;
  m.conflicts.add(res.conflicts);

  switch (sat) {
    case SatResult::Unsat:
      res.status = PodemStatus::Untestable;
      m.untestable.inc();
      return res;
    case SatResult::Unknown:
      res.status = PodemStatus::Aborted;
      m.aborted.inc();
      return res;
    case SatResult::Sat:
      break;
  }

  res.status = PodemStatus::Success;
  m.success.inc();
  auto trit_of = [&](std::uint32_t var) {
    if (var == CnfEncoder::kNoVar) return Trit::X;
    return solver_.model_value(var) ? Trit::One : Trit::Zero;
  };
  res.cube.pi.reserve(nl_->num_inputs());
  for (std::size_t i = 0; i < nl_->num_inputs(); ++i)
    res.cube.pi.push_back(trit_of(encoder_.pi_var(i)));
  res.cube.ppi.reserve(nl_->num_dffs());
  for (std::size_t i = 0; i < nl_->num_dffs(); ++i)
    res.cube.ppi.push_back(trit_of(encoder_.ppi_var(i)));
  // Pinned cells outside the support still belong in the cube: downstream
  // stitching matches cube bits against retained fabric bits.
  if (constraints != nullptr && !constraints->all_free())
    for (std::size_t i = 0; i < nl_->num_dffs(); ++i)
      if (constraints->fixed[i] != Trit::X)
        res.cube.ppi[i] = constraints->fixed[i];
  return res;
}

}  // namespace vcomp::atpg
