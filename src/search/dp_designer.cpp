#include "search/dp_designer.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "costmodel/weighted_cost.h"
#include "telemetry/registry.h"
#include "util/hash.h"
#include "util/logging.h"

namespace lpa::search {

namespace {

using partition::PartitioningState;
using partition::TablePartition;

struct SearchMetrics {
  telemetry::Counter& nodes_expanded;
  telemetry::Counter& pruned;
  telemetry::Counter& merged;
  telemetry::Counter& cost_windows;

  static SearchMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static SearchMetrics* m = new SearchMetrics{
        reg.GetCounter("search.nodes_expanded.count"),
        reg.GetCounter("search.pruned.count"),
        reg.GetCounter("search.merged.count"),
        reg.GetCounter("search.cost_windows.count")};
    return *m;
  }
};

void ApplyOption(PartitioningState* s, schema::TableId t,
                 const TablePartition& option) {
  // Idempotent on purpose: scratch states are reused across enumerations,
  // and Replicate refuses an already-replicated table.
  const TablePartition& current = s->table_partition(t);
  if (current.replicated == option.replicated &&
      current.column == option.column) {
    return;
  }
  if (option.replicated) {
    LPA_CHECK(s->Replicate(t).ok());
  } else {
    LPA_CHECK(s->PartitionBy(t, option.column).ok());
  }
}

/// A partial assignment: option index per decided level, plus its bound
/// components. f = g + h is admissible (h never overestimates a
/// completion's cost), so pruning against the incumbent is safe.
struct Node {
  std::vector<uint8_t> choice;
  double g = 0.0;
  double h = 0.0;
  double f() const { return g + h; }
};

bool NodeLess(const Node& a, const Node& b) {
  if (a.f() != b.f()) return a.f() < b.f();
  return a.choice < b.choice;  // deterministic tie-break
}

/// Relative guard against floating accumulation in the incremental g/h:
/// pruning requires the bound to clear the incumbent by this margin, so
/// rounding noise can only make the search expand more, never prune a node
/// whose true bound is below the incumbent.
constexpr double kPruneGuard = 1.0 + 1e-12;

}  // namespace

DpDesigner::DpDesigner(const schema::Schema* schema,
                       const workload::Workload* workload,
                       const partition::EdgeSet* edges,
                       QueryCostFn query_cost,
                       DpDesignerConfig config)
    : schema_(schema),
      workload_(workload),
      edges_(edges),
      query_cost_(std::move(query_cost)),
      config_(config) {}

DpResult DpDesigner::Run(const std::vector<double>& frequencies) {
  auto& metrics = SearchMetrics::Get();
  const int num_tables = schema_->num_tables();
  const int n = workload_->num_queries();
  LPA_CHECK(num_tables > 0);
  auto freq_at = [&frequencies](int j) {
    return j < static_cast<int>(frequencies.size())
               ? frequencies[static_cast<size_t>(j)]
               : 0.0;
  };

  // Decision order: descending frequency-weighted query participation, so
  // queries close (and become exactly priced) as early as possible.
  std::vector<std::vector<schema::TableId>> qtables(static_cast<size_t>(n));
  std::vector<double> participation(static_cast<size_t>(num_tables), 0.0);
  for (int j = 0; j < n; ++j) {
    qtables[static_cast<size_t>(j)] = workload_->query(j).tables();
    if (freq_at(j) <= 0.0) continue;
    for (schema::TableId t : qtables[static_cast<size_t>(j)]) {
      participation[static_cast<size_t>(t)] += freq_at(j);
    }
  }
  std::vector<schema::TableId> order(static_cast<size_t>(num_tables));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](schema::TableId a, schema::TableId b) {
                     double pa = participation[static_cast<size_t>(a)];
                     double pb = participation[static_cast<size_t>(b)];
                     if (pa != pb) return pa > pb;
                     return a < b;
                   });
  std::vector<int> level_of(static_cast<size_t>(num_tables), 0);
  for (int k = 0; k < num_tables; ++k) {
    level_of[static_cast<size_t>(order[static_cast<size_t>(k)])] = k;
  }
  std::vector<std::vector<TablePartition>> options(
      static_cast<size_t>(num_tables));
  for (int k = 0; k < num_tables; ++k) {
    options[static_cast<size_t>(k)] =
        TableDesignOptions(*schema_, order[static_cast<size_t>(k)]);
    LPA_CHECK(options[static_cast<size_t>(k)].size() <= 256);  // uint8_t choice
  }

  // A query "closes" at the level of its last-ordered table: from there on
  // its cost is exact and lives in g.
  std::vector<int> close_level(static_cast<size_t>(n), -1);
  std::vector<std::vector<int>> closing_at(static_cast<size_t>(num_tables));
  std::vector<std::vector<int>> open_touch(static_cast<size_t>(num_tables));
  std::vector<std::vector<schema::TableId>> q_by_level(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    if (freq_at(j) <= 0.0) continue;
    size_t sj = static_cast<size_t>(j);
    int close = -1;
    for (schema::TableId t : qtables[sj]) {
      close = std::max(close, level_of[static_cast<size_t>(t)]);
    }
    if (close < 0) continue;  // table-less query: never priced
    close_level[sj] = close;
    closing_at[static_cast<size_t>(close)].push_back(j);
    for (schema::TableId t : qtables[sj]) {
      int k = level_of[static_cast<size_t>(t)];
      if (k < close) open_touch[static_cast<size_t>(k)].push_back(j);
    }
    q_by_level[sj] = qtables[sj];
    std::sort(q_by_level[sj].begin(), q_by_level[sj].end(),
              [&](schema::TableId a, schema::TableId b) {
                return level_of[static_cast<size_t>(a)] <
                       level_of[static_cast<size_t>(b)];
              });
  }

  // Live decided tables per level: a decided table still referenced by an
  // open query. Nodes agreeing on the live designs have identical
  // completions (h and every future exact cost read only live designs), so
  // they merge to the lowest g.
  std::vector<int> last_use(static_cast<size_t>(num_tables), -1);
  for (int j = 0; j < n; ++j) {
    if (close_level[static_cast<size_t>(j)] < 0) continue;
    for (schema::TableId t : qtables[static_cast<size_t>(j)]) {
      last_use[static_cast<size_t>(t)] =
          std::max(last_use[static_cast<size_t>(t)],
                   close_level[static_cast<size_t>(j)]);
    }
  }
  std::vector<std::vector<schema::TableId>> live(
      static_cast<size_t>(num_tables));
  for (int k = 0; k < num_tables; ++k) {
    for (int l = 0; l <= k; ++l) {
      schema::TableId t = order[static_cast<size_t>(l)];
      if (last_use[static_cast<size_t>(t)] > k) {
        live[static_cast<size_t>(k)].push_back(t);
      }
    }
  }

  // Admissible per-query floors (unconstrained minima) — the root h and the
  // fallback whenever a clamped enumeration would exceed the cap.
  const std::vector<double> minq = ComputeQueryLowerBounds(
      *schema_, *workload_, *edges_, query_cost_, config_.max_bound_enum);

  PartitioningState scratch =
      PartitioningState::Initial(schema_, edges_);
  std::unordered_map<uint64_t, double> exact_memo;
  std::unordered_map<uint64_t, double> lb_memo;

  // Exact cost of query j under the designs scratch currently assigns to
  // its tables (all decided when called from g / final totals).
  auto exact_cost = [&](int j) {
    size_t sj = static_cast<size_t>(j);
    uint64_t key = HashCombine(Hash64(static_cast<uint64_t>(j) * 2),
                               scratch.DesignFingerprint(qtables[sj]));
    auto it = exact_memo.find(key);
    if (it != exact_memo.end()) return it->second;
    double c = query_cost_(j, scratch);
    exact_memo.emplace(key, c);
    return c;
  };

  // Clamped lower bound of open query j after levels 0..k are decided
  // (k = -1: nothing decided): the true minimum over all designs of its
  // undecided tables with the decided ones held at scratch's designs.
  // Memoized by (query, fingerprint of the decided prefix); enumeration
  // beyond the cap falls back to minq — still admissible, never larger
  // than any clamped minimum... and never returning more than a true
  // completion can cost.
  auto clamped_lb = [&](int j, int k) -> double {
    size_t sj = static_cast<size_t>(j);
    if (k < 0) return minq[sj];
    const auto& tl = q_by_level[sj];
    size_t decided = 0;
    while (decided < tl.size() &&
           level_of[static_cast<size_t>(tl[decided])] <= k) {
      ++decided;
    }
    if (decided == 0) return minq[sj];
    std::vector<schema::TableId> prefix(tl.begin(),
                                        tl.begin() + static_cast<long>(decided));
    uint64_t key = HashCombine(Hash64(static_cast<uint64_t>(j) * 2 + 1),
                               scratch.DesignFingerprint(prefix));
    auto it = lb_memo.find(key);
    if (it != lb_memo.end()) return it->second;
    long long combos = 1;
    for (size_t u = decided; u < tl.size(); ++u) {
      combos *= static_cast<long long>(
          options[static_cast<size_t>(level_of[static_cast<size_t>(tl[u])])]
              .size());
      if (combos > config_.max_bound_enum) break;
    }
    double val;
    if (combos > config_.max_bound_enum) {
      val = minq[sj];
    } else {
      std::vector<size_t> idx(tl.size() - decided, 0);
      bool first = true;
      val = 0.0;
      while (true) {
        for (size_t u = 0; u < idx.size(); ++u) {
          schema::TableId t = tl[decided + u];
          ApplyOption(&scratch, t,
                      options[static_cast<size_t>(
                          level_of[static_cast<size_t>(t)])][idx[u]]);
        }
        double c = exact_cost(j);
        if (first || c < val) val = c;
        first = false;
        size_t u = 0;
        while (u < idx.size() &&
               ++idx[u] ==
                   options[static_cast<size_t>(
                               level_of[static_cast<size_t>(tl[decided + u])])]
                       .size()) {
          idx[u] = 0;
          ++u;
        }
        if (u == idx.size()) break;
      }
    }
    lb_memo.emplace(key, val);
    return val;
  };

  // Exact total of the complete assignment scratch currently holds, reduced
  // in query order — bit-comparable with ExhaustiveOptimum.
  auto final_total = [&]() {
    double total = 0.0;
    for (int j = 0; j < n; ++j) {
      double f = freq_at(j);
      if (f <= 0.0 || close_level[static_cast<size_t>(j)] < 0) continue;
      total += f * exact_cost(j);
    }
    return total;
  };

  auto sync_scratch = [&](const std::vector<uint8_t>& choice) {
    for (size_t l = 0; l < choice.size(); ++l) {
      ApplyOption(&scratch, order[l], options[l][choice[l]]);
    }
  };

  double root_h = 0.0;
  for (int j = 0; j < n; ++j) {
    double f = freq_at(j);
    if (f <= 0.0 || close_level[static_cast<size_t>(j)] < 0) continue;
    root_h += f * minq[static_cast<size_t>(j)];
  }
  Node root{{}, 0.0, root_h};

  DpResult result{PartitioningState::Initial(schema_, edges_)};
  double incumbent = std::numeric_limits<double>::infinity();
  std::vector<uint8_t> incumbent_choice;
  double min_pruned_f = std::numeric_limits<double>::infinity();

  // Expand `parent` at level k (its choices already synced into scratch):
  // per-parent clamped LBs first (their enumerations may scribble on
  // undecided tables, including order[k]), then one pass per child option.
  auto expand = [&](const Node& parent, int k,
                    const std::function<void(Node&&)>& emit) {
    ++result.nodes_expanded;
    const auto& closing = closing_at[static_cast<size_t>(k)];
    const auto& touching = open_touch[static_cast<size_t>(k)];
    std::vector<double> lb_close(closing.size());
    for (size_t i = 0; i < closing.size(); ++i) {
      lb_close[i] = clamped_lb(closing[i], k - 1);
    }
    std::vector<double> lb_open(touching.size());
    for (size_t i = 0; i < touching.size(); ++i) {
      lb_open[i] = clamped_lb(touching[i], k - 1);
    }
    for (size_t oi = 0; oi < options[static_cast<size_t>(k)].size(); ++oi) {
      ApplyOption(&scratch, order[static_cast<size_t>(k)],
                  options[static_cast<size_t>(k)][oi]);
      Node child;
      child.choice = parent.choice;
      child.choice.push_back(static_cast<uint8_t>(oi));
      child.g = parent.g;
      child.h = parent.h;
      for (size_t i = 0; i < closing.size(); ++i) {
        double f = freq_at(closing[i]);
        child.g += f * exact_cost(closing[i]);
        child.h -= f * lb_close[i];
      }
      for (size_t i = 0; i < touching.size(); ++i) {
        double f = freq_at(touching[i]);
        child.h += f * (clamped_lb(touching[i], k) - lb_open[i]);
      }
      emit(std::move(child));
    }
  };

  // Greedy f-dive: the initial incumbent, so level-0 pruning has teeth.
  {
    Node cur = root;
    for (int k = 0; k < num_tables; ++k) {
      scratch = PartitioningState::Initial(schema_, edges_);
      sync_scratch(cur.choice);
      Node best{{}, 0.0, 0.0};
      bool have = false;
      expand(cur, k, [&](Node&& child) {
        if (!have || NodeLess(child, best)) {
          best = std::move(child);
          have = true;
        }
      });
      LPA_CHECK(have);
      cur = std::move(best);
    }
    scratch = PartitioningState::Initial(schema_, edges_);
    sync_scratch(cur.choice);
    incumbent = final_total();
    incumbent_choice = cur.choice;
  }

  // Level-synchronous B&B with ε-dominance merging and cost-window
  // expansion ordering.
  const double growth = 1.0 + std::max(config_.window_growth, 1e-6);
  std::vector<Node> frontier{root};
  for (int k = 0; k < num_tables; ++k) {
    std::sort(frontier.begin(), frontier.end(), NodeLess);
    // Advance the expansion windows (telemetry; the sort already realizes
    // the lowest-f-first schedule the windows describe).
    if (!frontier.empty()) {
      double bound = std::max(frontier.front().f(), 1e-30) * growth;
      ++result.cost_windows;
      for (const Node& node : frontier) {
        if (node.f() > bound) {
          bound = std::max(node.f(), 1e-30) * growth;
          ++result.cost_windows;
        }
      }
    }
    std::unordered_map<uint64_t, Node> merged;
    const bool last = k == num_tables - 1;
    for (const Node& parent : frontier) {
      scratch = PartitioningState::Initial(schema_, edges_);
      sync_scratch(parent.choice);
      expand(parent, k, [&](Node&& child) {
        if (last) {
          scratch = PartitioningState::Initial(schema_, edges_);
          sync_scratch(child.choice);
          double total = final_total();
          if (total < incumbent) {
            incumbent = total;
            incumbent_choice = child.choice;
          }
          return;
        }
        double f = child.f();
        if (f * (1.0 + config_.epsilon) >= incumbent * kPruneGuard) {
          ++result.nodes_pruned;
          min_pruned_f = std::min(min_pruned_f, f);
          return;
        }
        uint64_t sig =
            scratch.DesignFingerprint(live[static_cast<size_t>(k)]);
        auto [it, inserted] = merged.try_emplace(sig, std::move(child));
        if (!inserted) {
          ++result.nodes_merged;
          if (NodeLess(child, it->second)) it->second = std::move(child);
        }
      });
    }
    if (last) break;
    frontier.clear();
    frontier.reserve(merged.size());
    for (auto& [sig, node] : merged) frontier.push_back(std::move(node));
    if (frontier.size() > config_.max_frontier) {
      std::sort(frontier.begin(), frontier.end(), NodeLess);
      frontier.resize(config_.max_frontier);
      result.certified = false;  // beam degradation: bound no longer proven
    }
    // Every child pruned: each completion is provably within (1+ε) of the
    // incumbent, which therefore stands.
    if (frontier.empty()) break;
  }

  LPA_CHECK(incumbent_choice.size() == static_cast<size_t>(num_tables));
  std::vector<TablePartition> design(static_cast<size_t>(num_tables));
  for (int k = 0; k < num_tables; ++k) {
    design[static_cast<size_t>(order[static_cast<size_t>(k)])] =
        options[static_cast<size_t>(k)][incumbent_choice[static_cast<size_t>(k)]];
  }
  result.best_state = PartitioningState::FromDesign(schema_, edges_, design);
  result.best_cost = incumbent;
  result.certified_lower_bound =
      result.certified ? std::min(incumbent, min_pruned_f) : 0.0;

  metrics.nodes_expanded.Add(result.nodes_expanded);
  metrics.pruned.Add(result.nodes_pruned);
  metrics.merged.Add(result.nodes_merged);
  metrics.cost_windows.Add(result.cost_windows);
  return result;
}

std::optional<std::pair<PartitioningState, double>> ExhaustiveOptimum(
    const schema::Schema& schema, const workload::Workload& workload,
    const partition::EdgeSet& edges,
    const QueryCostFn& query_cost,
    const std::vector<double>& frequencies, long long max_states) {
  const int num_tables = schema.num_tables();
  std::vector<std::vector<TablePartition>> options(
      static_cast<size_t>(num_tables));
  long long combos = 1;
  for (schema::TableId t = 0; t < num_tables; ++t) {
    options[static_cast<size_t>(t)] = TableDesignOptions(schema, t);
    combos *= static_cast<long long>(options[static_cast<size_t>(t)].size());
    if (combos > max_states) return std::nullopt;
  }
  const int n = workload.num_queries();
  PartitioningState scratch = PartitioningState::Initial(&schema, &edges);
  std::vector<size_t> idx(static_cast<size_t>(num_tables), 0);
  double best_cost = 0.0;
  std::vector<size_t> best_idx;
  bool first = true;
  while (true) {
    for (schema::TableId t = 0; t < num_tables; ++t) {
      ApplyOption(&scratch, t,
                  options[static_cast<size_t>(t)][idx[static_cast<size_t>(t)]]);
    }
    double total = costmodel::WeightedCost(
        n, frequencies,
        [&](int j, double) { return query_cost(j, scratch); });
    if (first || total < best_cost) {
      best_cost = total;
      best_idx = idx;
    }
    first = false;
    size_t t = 0;
    while (t < idx.size() && ++idx[t] == options[t].size()) {
      idx[t] = 0;
      ++t;
    }
    if (t == idx.size()) break;
  }
  std::vector<TablePartition> design(static_cast<size_t>(num_tables));
  for (schema::TableId t = 0; t < num_tables; ++t) {
    design[static_cast<size_t>(t)] =
        options[static_cast<size_t>(t)][best_idx[static_cast<size_t>(t)]];
  }
  return std::make_pair(PartitioningState::FromDesign(&schema, &edges, design),
                        best_cost);
}

}  // namespace lpa::search
