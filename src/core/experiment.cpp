#include "vcomp/core/experiment.hpp"

#include "vcomp/scan/observe.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::core {

CircuitLab::CircuitLab(const netgen::CircuitProfile& profile,
                       const atpg::TestSetOptions& baseline_options)
    : name_(profile.name),
      nl_(netgen::generate(profile)),
      faults_(fault::collapsed_fault_list(nl_)),
      artifacts_(CircuitArtifacts::build(nl_, faults_)),
      baseline_(atpg::generate_full_scan_tests(nl_, faults_.faults(),
                                               baseline_options)) {}

CircuitLab::CircuitLab(std::string name, netlist::Netlist nl,
                       const atpg::TestSetOptions& baseline_options)
    : name_(std::move(name)),
      nl_(std::move(nl)),
      faults_(fault::collapsed_fault_list(nl_)),
      artifacts_(CircuitArtifacts::build(nl_, faults_)),
      baseline_(atpg::generate_full_scan_tests(nl_, faults_.faults(),
                                               baseline_options)) {}

StitchResult CircuitLab::run(const StitchOptions& options) const {
  StitchEngine engine(nl_, faults_, baseline_, artifacts_, options);
  return engine.run();
}

std::vector<StitchResult> CircuitLab::run_many(
    const std::vector<StitchOptions>& options) const {
  return util::parallel_map(options.size(),
                            [&](std::size_t i) { return run(options[i]); });
}

std::vector<std::unique_ptr<CircuitLab>> make_labs(
    const std::vector<netgen::CircuitProfile>& profiles,
    const atpg::TestSetOptions& baseline_options) {
  return util::parallel_map(profiles.size(), [&](std::size_t i) {
    return std::make_unique<CircuitLab>(profiles[i], baseline_options);
  });
}

bool apply_info_ratio(StitchOptions& options, const netlist::Netlist& nl,
                      double ratio) {
  const std::size_t s = scan::shift_for_info_ratio(
      nl.num_inputs(), nl.num_outputs(), nl.num_dffs(), ratio);
  if (s == 0) return false;
  options.fixed_shift = s;
  return true;
}

}  // namespace vcomp::core
