#include "vcomp/atpg/sat.hpp"

#include <algorithm>

#include "vcomp/util/assert.hpp"

namespace vcomp::atpg {

namespace {

// Luby sequence (1,1,2,1,1,2,4,...), 1-based.
std::uint64_t luby(std::uint64_t i) {
  for (std::uint64_t k = 1;; ++k) {
    const std::uint64_t span = (std::uint64_t{1} << k) - 1;
    if (i == span) return std::uint64_t{1} << (k - 1);
    if (i < span) return luby(i - (span >> 1));
  }
}

}  // namespace

void CdclSolver::reset(std::uint32_t num_vars) {
  num_vars_ = num_vars;
  ok_ = true;
  arena_.clear();
  clauses_.clear();
  // Clear the watch lists in place, so each keeps its capacity for the
  // next formula instead of being freed and reallocated on every query.
  // Lists past the 2n literals of this formula are never indexed.
  const std::size_t num_lits = std::size_t{2} * num_vars;
  if (watches_.size() < num_lits) watches_.resize(num_lits);
  for (std::size_t l = 0; l < num_lits; ++l) watches_[l].clear();
  value_.assign(num_vars, kUndef);
  phase_.assign(num_vars, 0);
  level_.assign(num_vars, 0);
  reason_.assign(num_vars, -1);
  trail_.clear();
  trail_lim_.clear();
  qhead_ = 0;
  activity_.assign(num_vars, 0.0);
  var_inc_ = 1.0;
  heap_.clear();
  heap_pos_.assign(num_vars, kNoVarIdx);
  for (std::uint32_t v = 0; v < num_vars; ++v) heap_insert(v);
  seen_.assign(num_vars, 0);
  model_.assign(num_vars, 0);
  decision_log_.clear();
  stats_ = {};
}

bool CdclSolver::heap_less(std::uint32_t a, std::uint32_t b) const {
  // Higher activity first; index ascending on ties keeps the decision
  // order a pure function of the clause database.
  if (activity_[a] != activity_[b]) return activity_[a] > activity_[b];
  return a < b;
}

void CdclSolver::heap_insert(std::uint32_t var) {
  if (heap_pos_[var] != kNoVarIdx) return;
  heap_pos_[var] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(var);
  heap_sift_up(heap_pos_[var]);
}

void CdclSolver::heap_sift_up(std::uint32_t i) {
  const std::uint32_t var = heap_[i];
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / 2;
    if (!heap_less(var, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = var;
  heap_pos_[var] = i;
}

void CdclSolver::heap_sift_down(std::uint32_t i) {
  const std::uint32_t var = heap_[i];
  const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[child + 1], heap_[child])) ++child;
    if (!heap_less(heap_[child], var)) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = var;
  heap_pos_[var] = i;
}

std::uint32_t CdclSolver::heap_pop() {
  const std::uint32_t top = heap_[0];
  heap_pos_[top] = kNoVarIdx;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return top;
}

std::uint32_t CdclSolver::attach_clause(std::span<const SatLit> lits) {
  VCOMP_DASSERT(lits.size() >= 2, "attach_clause needs a binary+ clause");
  const std::uint32_t ci = static_cast<std::uint32_t>(clauses_.size());
  Clause c;
  c.off = static_cast<std::uint32_t>(arena_.size());
  c.size = static_cast<std::uint32_t>(lits.size());
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  clauses_.push_back(c);
  watches_[lits[0]].push_back({ci, lits[1]});
  watches_[lits[1]].push_back({ci, lits[0]});
  return ci;
}

bool CdclSolver::add_clause(std::span<const SatLit> lits) {
  if (!ok_) return false;
  auto& c = clause_scratch_;
  c.assign(lits.begin(), lits.end());
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  for (std::size_t i = 0; i + 1 < c.size(); ++i)
    if (c[i + 1] == sat_neg(c[i])) return true;  // tautology
  if (c.empty()) return ok_ = false;
  if (c.size() == 1) {
    const std::int8_t v = lit_value(c[0]);
    if (v == kFalse) return ok_ = false;
    if (v == kUndef) enqueue(c[0], -1);
    return true;
  }
  attach_clause(c);
  return true;
}

void CdclSolver::load(const Cnf& cnf) {
  for (std::size_t i = 0; i < cnf.num_clauses(); ++i)
    if (!add_clause(cnf.clause(i))) return;
}

void CdclSolver::enqueue(SatLit l, std::int32_t reason) {
  const std::uint32_t v = sat_var(l);
  VCOMP_DASSERT(value_[v] == kUndef, "enqueue on assigned variable");
  value_[v] = sat_sign(l) ? kFalse : kTrue;
  level_[v] = static_cast<std::uint32_t>(trail_lim_.size());
  reason_[v] = reason;
  trail_.push_back(l);
}

std::int32_t CdclSolver::propagate() {
  while (qhead_ < trail_.size()) {
    const SatLit p = trail_[qhead_++];
    ++stats_.propagations;
    const SatLit false_lit = sat_neg(p);
    auto& ws = watches_[false_lit];
    std::size_t j = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const Watch w = ws[i];
      if (lit_value(w.blocker) == kTrue) {
        ws[j++] = w;
        continue;
      }
      Clause& c = clauses_[w.clause];
      SatLit* lits = arena_.data() + c.off;
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      if (lit_value(lits[0]) == kTrue) {
        ws[j++] = {w.clause, lits[0]};
        continue;
      }
      bool moved = false;
      for (std::uint32_t k = 2; k < c.size; ++k) {
        if (lit_value(lits[k]) != kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[lits[1]].push_back({w.clause, lits[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      ws[j++] = {w.clause, lits[0]};
      if (lit_value(lits[0]) == kFalse) {
        for (std::size_t k = i + 1; k < ws.size(); ++k) ws[j++] = ws[k];
        ws.resize(j);
        qhead_ = trail_.size();
        return static_cast<std::int32_t>(w.clause);
      }
      enqueue(lits[0], static_cast<std::int32_t>(w.clause));
    }
    ws.resize(j);
  }
  return -1;
}

void CdclSolver::bump(std::uint32_t var) {
  activity_[var] += var_inc_;
  if (activity_[var] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[var] != kNoVarIdx) heap_sift_up(heap_pos_[var]);
}

void CdclSolver::analyze(std::int32_t confl, std::vector<SatLit>& learnt,
                         std::uint32_t& backjump_level) {
  learnt.clear();
  learnt.push_back(0);  // slot for the asserting literal
  const std::uint32_t cur_level =
      static_cast<std::uint32_t>(trail_lim_.size());
  std::uint32_t counter = 0;
  SatLit p = 0;
  std::size_t index = trail_.size();
  bool have_p = false;

  for (;;) {
    VCOMP_DASSERT(confl >= 0, "analyze needs a reason clause");
    const Clause& c = clauses_[static_cast<std::uint32_t>(confl)];
    const SatLit* lits = arena_.data() + c.off;
    for (std::uint32_t k = 0; k < c.size; ++k) {
      const SatLit q = lits[k];
      if (have_p && q == p) continue;
      const std::uint32_t v = sat_var(q);
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = 1;
      bump(v);
      if (level_[v] == cur_level)
        ++counter;
      else
        learnt.push_back(q);
    }
    // Walk back to the next marked literal on the current level.
    while (!seen_[sat_var(trail_[index - 1])]) --index;
    --index;
    p = trail_[index];
    have_p = true;
    seen_[sat_var(p)] = 0;
    if (--counter == 0) break;
    confl = reason_[sat_var(p)];
  }
  learnt[0] = sat_neg(p);

  if (learnt.size() == 1) {
    backjump_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i)
      if (level_[sat_var(learnt[i])] > level_[sat_var(learnt[max_i])])
        max_i = i;
    std::swap(learnt[1], learnt[max_i]);
    backjump_level = level_[sat_var(learnt[1])];
  }
  for (std::size_t i = 1; i < learnt.size(); ++i)
    seen_[sat_var(learnt[i])] = 0;
}

void CdclSolver::backtrack(std::uint32_t level) {
  if (trail_lim_.size() <= level) return;
  const std::uint32_t bound = trail_lim_[level];
  for (std::size_t i = trail_.size(); i > bound; --i) {
    const std::uint32_t v = sat_var(trail_[i - 1]);
    phase_[v] = value_[v] == kTrue ? 1 : 0;
    value_[v] = kUndef;
    heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(level);
  qhead_ = bound;
}

std::uint32_t CdclSolver::pick_branch_var() {
  while (!heap_.empty()) {
    const std::uint32_t v = heap_pop();
    if (value_[v] == kUndef) return v;
  }
  return kNoVarIdx;
}

SatResult CdclSolver::solve(const Options& options) {
  decision_log_.clear();
  stats_ = {};
  if (!ok_) return SatResult::Unsat;

  // Clauses may have been added after their literals were already falsified
  // by level-0 units; re-propagating the whole trail restores the watch
  // invariant before the first decision.
  qhead_ = 0;

  std::vector<SatLit> learnt;
  std::uint64_t restart_round = 1;
  std::uint64_t conflicts_until_restart =
      luby(restart_round) * options.restart_base;
  std::uint64_t round_conflicts = 0;

  for (;;) {
    const std::int32_t confl = propagate();
    if (confl >= 0) {
      ++stats_.conflicts;
      ++round_conflicts;
      if (trail_lim_.empty()) return SatResult::Unsat;
      if (stats_.conflicts >= options.max_conflicts) {
        backtrack(0);
        return SatResult::Unknown;
      }
      std::uint32_t backjump_level = 0;
      analyze(confl, learnt, backjump_level);
      backtrack(backjump_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], -1);
      } else {
        const std::uint32_t ci = attach_clause(learnt);
        ++stats_.learned;
        enqueue(learnt[0], static_cast<std::int32_t>(ci));
      }
      var_inc_ /= options.var_decay;
      continue;
    }
    if (round_conflicts >= conflicts_until_restart) {
      ++stats_.restarts;
      backtrack(0);
      ++restart_round;
      conflicts_until_restart = luby(restart_round) * options.restart_base;
      round_conflicts = 0;
      continue;
    }
    const std::uint32_t v = pick_branch_var();
    if (v == kNoVarIdx) {
      for (std::uint32_t i = 0; i < num_vars_; ++i)
        model_[i] = value_[i] == kTrue ? 1 : 0;
      backtrack(0);
      return SatResult::Sat;
    }
    ++stats_.decisions;
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    const SatLit decision = sat_lit(v, phase_[v] == 0);
    decision_log_.push_back(decision);
    enqueue(decision, -1);
  }
}

}  // namespace vcomp::atpg
