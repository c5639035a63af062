#include "vcomp/atpg/podem.hpp"

#include <algorithm>

#include "vcomp/obs/metrics.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::atpg {

using fault::Fault;
using netlist::GateId;
using netlist::GateType;
using sim::Trit;

namespace {

Trit stuck_trit(const Fault& f) { return f.stuck ? Trit::One : Trit::Zero; }

// Per-call tallies are accumulated locally and added to the registry once
// per generate() so the hot loops stay free of registry traffic.
struct PodemMetrics {
  obs::Counter calls = obs::counter("podem.calls");
  obs::Counter success = obs::counter("podem.success");
  obs::Counter untestable = obs::counter("podem.untestable");
  obs::Counter aborted = obs::counter("podem.aborted");
  obs::Counter decisions = obs::counter("podem.decisions");
  obs::Counter backtracks = obs::counter("podem.backtracks");
  obs::Counter implications = obs::counter("podem.implications");
  // Untestable verdicts reached while scan bits were pinned: the price the
  // stitching constraints extract from ATPG.
  obs::Counter constrained_untestable =
      obs::counter("podem.constrained_untestable");
  // Queries the pin frame proved Untestable before any search (shared with
  // the SAT engine).
  obs::Counter frame_untestable = obs::counter("atpg.frame_untestable");
  obs::Histogram backtracks_per_call =
      obs::histogram("podem.backtracks_per_call");
};

const PodemMetrics& podem_metrics() {
  static const PodemMetrics m;
  return m;
}

bool definite(Trit t) { return t != Trit::X; }

/// True when the fault is a stem fault on a PI or PPI: the site holds the
/// stuck value in the faulty machine but lies outside the comb cone.
bool is_source_site(const sim::EvalGraph& eg, const Fault& f) {
  const GateType t = eg.type(f.gate);
  return f.is_stem() && (t == GateType::Input || t == GateType::Dff);
}

/// True when the fault is a branch into a flip-flop data pin: its effect is
/// confined to the captured bit, which full scan observes directly.
bool is_dff_pin_fault(const netlist::Netlist& nl, const Fault& f) {
  return !f.is_stem() && nl.gate(f.gate).type == GateType::Dff;
}

/// Non-controlling value for propagating through a gate.
Trit noncontrolling(GateType t) {
  switch (t) {
    case GateType::And:
    case GateType::Nand:
      return Trit::One;
    case GateType::Or:
    case GateType::Nor:
      return Trit::Zero;
    default:
      return Trit::Zero;  // XOR-ish: any side value propagates
  }
}

}  // namespace

Podem::Podem(sim::EvalGraph::Ref graph, const tmeas::Scoap& scoap)
    : eg_(std::move(graph)), nl_(&eg_->netlist()), scoap_(&scoap),
      frame_(eg_) {
  const std::size_t n = eg_->num_gates();
  assign_.assign(n, Trit::X);
  good_.assign(n, Trit::X);
  bad_.assign(n, Trit::X);
  in_cone_.assign(n, 0);
  buckets_.resize(eg_->num_levels());
  queued_.assign(n, 0);
  xpath_seen_.assign(n, 0);
  xpath_val_.assign(n, 0);
}

Podem::Podem(const netlist::Netlist& nl, const tmeas::Scoap& scoap)
    : Podem(sim::EvalGraph::compile(nl), scoap) {}

void Podem::load_frame(const PpiConstraints* constraints) {
  // The frame checks the size before it changes, so a rejected call leaves
  // the engine exactly as the previous call left it.
  if (!frame_.load(constraints)) return;
  good_.assign(frame_.values().begin(), frame_.values().end());
  bad_ = good_;
  std::fill(assign_.begin(), assign_.end(), Trit::X);
  for (GateId g : nl_->dffs()) assign_[g] = good_[g];  // the pins
}

void Podem::compute_cone(const Fault& f) {
  for (GateId g : cone_) in_cone_[g] = 0;
  cone_.clear();
  cone_obs_.clear();

  // The cone starts at the faulted line's sink(s): for a stem fault the
  // site's fanouts plus the site itself; for a branch fault the sink gate.
  std::vector<GateId>& work = cone_work_;
  auto push = [&](GateId g) {
    const GateType t = eg_->type(g);
    if (t == GateType::Dff || t == GateType::Input) return;
    if (in_cone_[g]) return;
    in_cone_[g] = 1;
    cone_.push_back(g);
    if (frame_.is_obs(g)) cone_obs_.push_back(g);
    work.push_back(g);
  };
  if (f.is_stem()) {
    const GateType t = eg_->type(f.gate);
    if (t != GateType::Dff && t != GateType::Input) push(f.gate);
    if (t == GateType::Dff || t == GateType::Input) {
      // PPI / PI stem: cone is the fanout logic; the stem line itself is
      // observable only through its sinks (it is never a PO in this model,
      // but keep the stem observable if marked).
      for (GateId s : eg_->fanout(f.gate)) push(s);
      if (frame_.is_obs(f.gate)) cone_obs_.push_back(f.gate);
    }
  } else if (!is_dff_pin_fault(*nl_, f)) {
    push(f.gate);
  }
  while (!work.empty()) {
    const GateId u = work.back();
    work.pop_back();
    for (GateId s : eg_->fanout(u)) push(s);
  }
}

void Podem::load_fault(const Fault& f) {
  // Off the cone the faulty machine equals the good one, so only the cone
  // and a PI/PPI stem site (which lies outside it) take faulty values.
  if (is_source_site(*eg_, f)) bad_[f.gate] = stuck_trit(f);
  cone_levelized_.assign(cone_.begin(), cone_.end());
  std::sort(cone_levelized_.begin(), cone_levelized_.end(),
            [&](GateId a, GateId b) { return eg_->level(a) < eg_->level(b); });
  for (GateId u : cone_levelized_) bad_[u] = eval_bad(u, f);
}

void Podem::restore_frame(const Fault& f) {
  undo_to(0);
  for (const Decision& d : stack_) assign_[d.source] = Trit::X;
  stack_.clear();
  for (GateId u : cone_) bad_[u] = good_[u];
  if (is_source_site(*eg_, f)) bad_[f.gate] = good_[f.gate];
}

Trit Podem::eval_bad(GateId u, const Fault& f) const {
  if (f.is_stem() && f.gate == u) return stuck_trit(f);
  const auto fin = eg_->fanin(u);
  const std::size_t forced_pin =
      (!f.is_stem() && f.gate == u) ? static_cast<std::size_t>(f.pin)
                                    : fin.size();
  return sim::trit_eval_fused(eg_->type(u), fin.size(), [&](std::size_t k) {
    return k == forced_pin ? stuck_trit(f) : bad_[fin[k]];
  });
}

void Podem::eval_pair(GateId u, const Fault& f, Trit& good, Trit& bad) {
  const auto fin = eg_->fanin(u);
  good = sim::trit_eval_fused(eg_->type(u), fin.size(),
                              [&](std::size_t k) { return good_[fin[k]]; });
  bad = in_cone_[u] ? eval_bad(u, f) : good;  // off the cone, bad == good
}

void Podem::assign_source(GateId src, Trit v, const Fault& f) {
  const std::size_t trail_before = trail_.size();
  trail_.push_back({src, good_[src], bad_[src]});
  good_[src] = v;
  const bool stem_here =
      f.is_stem() && f.gate == src;
  bad_[src] = stem_here ? stuck_trit(f) : v;

  // Levelized event propagation.
  auto schedule = [&](GateId g) {
    const GateType t = eg_->type(g);
    if (t == GateType::Input || t == GateType::Dff) return;
    if (queued_[g]) return;
    queued_[g] = 1;
    buckets_[eg_->level(g)].push_back(g);
  };
  for (GateId s : eg_->fanout(src)) schedule(s);

  for (std::uint32_t lvl = 0; lvl < buckets_.size(); ++lvl) {
    auto& bucket = buckets_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId u = bucket[i];
      queued_[u] = 0;
      Trit ng, nb;
      eval_pair(u, f, ng, nb);
      if (ng == good_[u] && nb == bad_[u]) continue;
      trail_.push_back({u, good_[u], bad_[u]});
      good_[u] = ng;
      bad_[u] = nb;
      for (GateId s : eg_->fanout(u)) schedule(s);
    }
    bucket.clear();
  }
  imply_events_ += trail_.size() - trail_before;
}

void Podem::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    const auto& e = trail_.back();
    good_[e.gate] = e.good;
    bad_[e.gate] = e.bad;
    trail_.pop_back();
  }
}

bool Podem::detected(const Fault& f) const {
  if (is_dff_pin_fault(*nl_, f)) {
    const GateId src = fault::fault_source(*nl_, f);
    return definite(good_[src]) && good_[src] != stuck_trit(f);
  }
  for (GateId g : cone_obs_)
    if (definite(good_[g]) && definite(bad_[g]) && good_[g] != bad_[g])
      return true;
  return false;
}

bool Podem::activation_impossible(const Fault& f) const {
  const GateId src = fault::fault_source(*nl_, f);
  return definite(good_[src]) && good_[src] == stuck_trit(f);
}

bool Podem::fault_visible(const Fault& f) const {
  const GateId src = fault::fault_source(*nl_, f);
  return definite(good_[src]) && good_[src] != stuck_trit(f);
}

std::optional<std::pair<GateId, Trit>> Podem::objective(const Fault& f) {
  const GateId src = fault::fault_source(*nl_, f);
  if (!definite(good_[src]))
    return std::make_pair(src, sim::trit_not(stuck_trit(f)));

  // Activated: advance the D-frontier gate with the best observability.
  GateId best = netlist::kNoGate;
  tmeas::Cost best_co = tmeas::kInfCost + 1;
  // A just-activated branch fault carries its D on the *pin* of the sink
  // gate, not on any signal, so the sink gate is a frontier member that
  // the signal-level scan below cannot see.
  if (!f.is_stem() && eg_->type(f.gate) != GateType::Dff &&
      (!definite(good_[f.gate]) || !definite(bad_[f.gate]))) {
    best = f.gate;
    best_co = scoap_->co(f.gate);
  }
  for (GateId u : cone_) {
    const bool unresolved = !definite(good_[u]) || !definite(bad_[u]);
    if (!unresolved) continue;
    bool has_d = false;
    for (GateId fin : eg_->fanin(u))
      if (definite(good_[fin]) && definite(bad_[fin]) &&
          good_[fin] != bad_[fin]) {
        has_d = true;
        break;
      }
    if (!has_d) continue;
    const tmeas::Cost co = scoap_->co(u);
    if (co < best_co) {
      best_co = co;
      best = u;
    }
  }
  if (best == netlist::kNoGate) return std::nullopt;

  // Pick an unspecified input to set to the non-controlling value.
  GateId pick = netlist::kNoGate;
  for (GateId fin : eg_->fanin(best)) {
    if (definite(good_[fin]) && definite(bad_[fin])) continue;
    if (!definite(good_[fin])) {
      pick = fin;
      break;  // prefer good-side X (cleanest backtrace)
    }
    if (pick == netlist::kNoGate) pick = fin;
  }
  if (pick == netlist::kNoGate) return std::nullopt;
  return std::make_pair(pick, noncontrolling(eg_->type(best)));
}

std::pair<GateId, Trit> Podem::backtrace(GateId g, Trit v) const {
  for (;;) {
    const GateType type = eg_->type(g);
    if (type == GateType::Input || type == GateType::Dff) return {g, v};
    const auto fanin = eg_->fanin(g);

    // Desired value at this gate's inputs (strip the output bubble).
    Trit want = netlist::is_inverting(type) ? sim::trit_not(v) : v;

    // Choose among unspecified fanins.
    GateId pick = netlist::kNoGate;
    bool want_all = false;  // must set *all* inputs (pick hardest) vs any one
    switch (type) {
      case GateType::And:
      case GateType::Nand:
        want_all = (want == Trit::One);
        break;
      case GateType::Or:
      case GateType::Nor:
        want_all = (want == Trit::Zero);
        break;
      default:
        want_all = false;
        break;
    }

    tmeas::Cost best_cost = want_all ? 0 : tmeas::kInfCost + 1;
    for (GateId fin : fanin) {
      if (definite(good_[fin])) continue;
      const tmeas::Cost c = scoap_->cc(fin, want == Trit::One);
      const bool better =
          want_all ? (pick == netlist::kNoGate || c > best_cost)
                   : (pick == netlist::kNoGate || c < best_cost);
      if (better) {
        best_cost = c;
        pick = fin;
      }
    }
    if (pick == netlist::kNoGate) {
      // All good-side values specified; follow a bad-side X line instead.
      for (GateId fin : fanin)
        if (!definite(bad_[fin])) {
          pick = fin;
          break;
        }
      VCOMP_ENSURE(pick != netlist::kNoGate,
                   "backtrace stuck on fully specified gate");
    }

    if (type == GateType::Xor || type == GateType::Xnor) {
      // Desired pick value = want ⊕ (xor of other inputs, X treated as 0).
      Trit acc = Trit::Zero;
      for (GateId fin : fanin) {
        if (fin == pick) continue;
        if (good_[fin] == Trit::One) acc = sim::trit_not(acc);
      }
      want = (acc == Trit::One) ? sim::trit_not(want) : want;
    }
    g = pick;
    v = want;
  }
}

bool Podem::xpath_exists(const Fault& f) {
  if (is_dff_pin_fault(*nl_, f)) return true;
  ++xpath_epoch_;

  // A gate continues an X-path if its value is unresolved.
  auto unresolved = [&](GateId g) {
    return !definite(good_[g]) || !definite(bad_[g]);
  };
  auto seen = [&](GateId g) { return xpath_seen_[g] == xpath_epoch_; };
  auto memo_val = [&](GateId g) { return xpath_val_[g]; };
  auto set_memo = [&](GateId g, std::int8_t v) {
    xpath_seen_[g] = xpath_epoch_;
    xpath_val_[g] = v;
  };

  // Iterative DFS from a gate, through unresolved gates, to an observation
  // point.  Memo: 1 reaches, 0 does not (within this imply state).
  auto reaches = [&](GateId start) -> bool {
    if (seen(start)) return memo_val(start) == 1;
    std::vector<GateId> stack{start};
    std::vector<GateId> visited;
    bool found = false;
    while (!stack.empty() && !found) {
      GateId u = stack.back();
      stack.pop_back();
      if (seen(u) && memo_val(u) == 0) continue;
      if (seen(u) && memo_val(u) == 1) {
        found = true;
        break;
      }
      set_memo(u, 0);
      visited.push_back(u);
      if (frame_.is_obs(u) && unresolved(u)) {
        found = true;
        break;
      }
      for (GateId s : eg_->fanout(u)) {
        const auto st = eg_->type(s);
        if (st == GateType::Dff || st == GateType::Input) continue;
        if (!unresolved(s)) continue;
        if (seen(s) && memo_val(s) == 1) {
          found = true;
          break;
        }
        if (!seen(s)) stack.push_back(s);
      }
    }
    if (found)
      for (GateId u : visited) set_memo(u, 1);
    return found;
  };

  // A just-activated branch fault carries its D on the *pin*, not on any
  // signal; the sink gate itself is then the frontier.
  if (!f.is_stem() && fault_visible(f) &&
      (!definite(good_[f.gate]) || !definite(bad_[f.gate])) &&
      reaches(f.gate))
    return true;

  // From every D/D' line in the cone: can its unresolved fanout reach an
  // observation point?
  auto check_line = [&](GateId g) -> bool {
    if (!(definite(good_[g]) && definite(bad_[g]) && good_[g] != bad_[g]))
      return false;
    if (frame_.is_obs(g)) return true;  // would have been `detected`
    for (GateId s : eg_->fanout(g)) {
      const auto st = eg_->type(s);
      if (st == GateType::Dff || st == GateType::Input) continue;
      if ((!definite(good_[s]) || !definite(bad_[s])) && reaches(s))
        return true;
    }
    return false;
  };
  // The stem line of a PPI-sited fault lives outside cone_.
  if (f.is_stem()) {
    const auto t = eg_->type(f.gate);
    if ((t == GateType::Dff || t == GateType::Input) && check_line(f.gate))
      return true;
  }
  for (GateId g : cone_)
    if (check_line(g)) return true;
  return false;
}

/// Hands the next call the bare pin frame when a generate() call ends,
/// returned or thrown.
struct Podem::FrameRestore {
  FrameRestore(Podem& p, const Fault& f) : podem(p), fault(f) {}
  FrameRestore(const FrameRestore&) = delete;
  FrameRestore& operator=(const FrameRestore&) = delete;
  ~FrameRestore() { podem.restore_frame(fault); }

  Podem& podem;
  const Fault& fault;
};

PodemResult Podem::generate(const Fault& f, const PpiConstraints* constraints,
                            const PodemOptions& options) {
  load_frame(constraints);
  constraints_ = constraints;
  VCOMP_DASSERT(trail_.empty() && stack_.empty(),
                "a call must start from the bare pin frame");
  imply_events_ = 0;

  PodemResult result;
  std::uint64_t decisions = 0;

  auto finish = [&](PodemResult& r) -> PodemResult& {
    const PodemMetrics& m = podem_metrics();
    m.calls.inc();
    switch (r.status) {
      case PodemStatus::Success:
        m.success.inc();
        break;
      case PodemStatus::Untestable:
        m.untestable.inc();
        if (constraints_ != nullptr && !constraints_->all_free())
          m.constrained_untestable.inc();
        break;
      case PodemStatus::Aborted:
        m.aborted.inc();
        break;
    }
    m.decisions.add(decisions);
    m.backtracks.add(r.backtracks);
    m.implications.add(imply_events_);
    m.backtracks_per_call.record(r.backtracks);
    return r;
  };

  // The pins alone block the fault: Untestable without touching the
  // search state.  Asked at the root only (see podem.hpp).
  if (frame_.proves_untestable(f)) {
    podem_metrics().frame_untestable.inc();
    result.status = PodemStatus::Untestable;
    return finish(result);
  }

  const FrameRestore restore(*this, f);
  compute_cone(f);
  load_fault(f);

  auto make_cube = [&]() {
    Cube cube;
    cube.pi.reserve(nl_->num_inputs());
    for (GateId g : nl_->inputs()) cube.pi.push_back(assign_[g]);
    cube.ppi.reserve(nl_->num_dffs());
    for (GateId g : nl_->dffs()) cube.ppi.push_back(assign_[g]);
    return cube;
  };

  for (;;) {
    if (detected(f)) {
      result.status = PodemStatus::Success;
      result.cube = make_cube();
      return finish(result);
    }

    bool fail = activation_impossible(f);
    if (!fail && fault_visible(f)) {
      // Activated: require a live D-frontier with an X-path to observation.
      if (!xpath_exists(f)) fail = true;
    }

    if (!fail) {
      if (auto obj = objective(f)) {
        auto [src, v] = backtrace(obj->first, obj->second);
        VCOMP_ENSURE(assign_[src] == Trit::X, "backtrace hit assigned source");
        stack_.push_back({src, v, false, trail_.size()});
        ++decisions;
        assign_[src] = v;
        assign_source(src, v, f);
        continue;
      }
      fail = true;
    }

    // Backtrack.
    while (!stack_.empty() && stack_.back().flipped) {
      undo_to(stack_.back().trail_mark);
      assign_[stack_.back().source] = Trit::X;
      stack_.pop_back();
    }
    if (stack_.empty()) {
      result.status = PodemStatus::Untestable;
      return finish(result);
    }
    if (++result.backtracks > options.max_backtracks) {
      while (!stack_.empty()) {
        undo_to(stack_.back().trail_mark);
        assign_[stack_.back().source] = Trit::X;
        stack_.pop_back();
      }
      result.status = PodemStatus::Aborted;
      return finish(result);
    }
    auto& top = stack_.back();
    undo_to(top.trail_mark);
    top.flipped = true;
    top.value = sim::trit_not(top.value);
    assign_[top.source] = top.value;
    assign_source(top.source, top.value, f);
  }
}

}  // namespace vcomp::atpg
