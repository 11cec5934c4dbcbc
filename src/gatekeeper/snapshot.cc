#include "src/gatekeeper/snapshot.h"

#include <algorithm>

namespace configerator {

namespace {

// Cheap thread → stripe mapping: each thread draws a slot id once, ever.
size_t ThreadStripe() {
  static std::atomic<size_t> next_slot{0};
  thread_local size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % ProjectStats::kStripes;
  return slot;
}

// Declared-order permutations (the identity), one per rule.
std::vector<std::vector<size_t>> DeclaredOrders(const CompiledProjectSpec& spec) {
  std::vector<std::vector<size_t>> orders;
  orders.reserve(spec.rules.size());
  for (const CompiledRuleSpec& rule : spec.rules) {
    std::vector<size_t> order(rule.restraints.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    orders.push_back(std::move(order));
  }
  return orders;
}

}  // namespace

ProjectStats::ProjectStats(size_t restraint_count)
    : restraint_count_(restraint_count) {
  for (Stripe& stripe : stripes_) {
    // make_unique value-initializes: every atomic starts at 0.
    stripe.cells = std::make_unique<RestraintCell[]>(restraint_count);
  }
}

RestraintCell* ProjectStats::StripeCells() {
  return stripes_[ThreadStripe()].cells.get();
}

std::vector<ProjectStats::Folded> ProjectStats::Fold() const {
  std::vector<Folded> folded(restraint_count_);
  for (const Stripe& stripe : stripes_) {
    for (size_t i = 0; i < restraint_count_; ++i) {
      folded[i].evals +=
          stripe.cells[i].evals.load(std::memory_order_relaxed);
      folded[i].passes +=
          stripe.cells[i].passes.load(std::memory_order_relaxed);
    }
  }
  return folded;
}

CompiledProject::CompiledProject(CompiledProjectSpec spec,
                                 std::vector<std::vector<size_t>> orders,
                                 std::shared_ptr<ProjectStats> stats)
    : spec_(std::move(spec)), orders_(std::move(orders)), stats_(std::move(stats)) {
  size_t total = 0;
  rule_base_.reserve(spec_.rules.size());
  for (const CompiledRuleSpec& rule : spec_.rules) {
    rule_base_.push_back(total);
    total += rule.restraints.size();
  }
  if (orders_.empty()) {
    orders_ = DeclaredOrders(spec_);
  }
  if (stats_ == nullptr) {
    stats_ = std::make_shared<ProjectStats>(total);
  }
}

bool CompiledProject::Check(const UserContext& user, const LaserStore* laser) const {
  RestraintCell* cells = stats_->StripeCells();
  for (size_t r = 0; r < spec_.rules.size(); ++r) {
    const CompiledRuleSpec& rule = spec_.rules[r];
    const std::vector<size_t>& order = orders_[r];
    RestraintCell* rule_cells = cells + rule_base_[r];
    bool all_pass = true;
    for (size_t idx : order) {
      bool pass = rule.restraints[idx]->Test(user, laser);
      RestraintCell& cell = rule_cells[idx];
      cell.evals.fetch_add(1, std::memory_order_relaxed);
      if (pass) {
        cell.passes.fetch_add(1, std::memory_order_relaxed);
      } else {
        all_pass = false;
        break;  // Conjunction short-circuits.
      }
    }
    if (all_pass) {
      return GatekeeperDie(spec_.salt, user.user_id) < rule.pass_probability;
    }
  }
  return false;
}

std::vector<std::vector<CompiledProject::RestraintStatsView>>
CompiledProject::StatsView() const {
  std::vector<ProjectStats::Folded> folded = stats_->Fold();
  std::vector<std::vector<RestraintStatsView>> view;
  view.reserve(spec_.rules.size());
  for (size_t r = 0; r < spec_.rules.size(); ++r) {
    const CompiledRuleSpec& rule = spec_.rules[r];
    std::vector<RestraintStatsView> rule_view;
    rule_view.reserve(rule.restraints.size());
    for (size_t idx : orders_[r]) {
      RestraintStatsView v;
      v.type = std::string(rule.restraints[idx]->type_name());
      v.cost = rule.restraints[idx]->cost();
      v.evals = folded[rule_base_[r] + idx].evals;
      v.passes = folded[rule_base_[r] + idx].passes;
      rule_view.push_back(std::move(v));
    }
    view.push_back(std::move(rule_view));
  }
  return view;
}

std::vector<std::vector<size_t>> CostBasedOrders(
    const CompiledProjectSpec& spec,
    const std::vector<ProjectStats::Folded>& folded) {
  std::vector<std::vector<size_t>> orders = DeclaredOrders(spec);
  size_t base = 0;
  for (size_t r = 0; r < spec.rules.size(); ++r) {
    const CompiledRuleSpec& rule = spec.rules[r];
    if (rule.restraints.size() >= 2) {
      // For a conjunction, evaluate first the restraint with the lowest
      // cost / P(short-circuit) = cost / (1 - pass_rate): cheap and usually
      // false eliminates most work.
      std::stable_sort(orders[r].begin(), orders[r].end(),
                       [&](size_t a, size_t b) {
                         auto rank = [&](size_t i) {
                           double pass_rate = folded[base + i].pass_rate();
                           double short_circuit =
                               std::max(1.0 - pass_rate, 1e-6);
                           return rule.restraints[i]->cost() / short_circuit;
                         };
                         return rank(a) < rank(b);
                       });
    }
    base += rule.restraints.size();
  }
  return orders;
}

}  // namespace configerator
