#include "costmodel/cost_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <sstream>

#include "costmodel/weighted_cost.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace lpa::costmodel {

namespace {

/// DP-search counters; accumulated locally per search and flushed once so
/// the inner enumeration loops stay atomic-free.
struct CostModelMetrics {
  telemetry::Counter& plans;
  telemetry::Counter& plan_ns;  ///< summed wall-clock of PlanQuery
  telemetry::Counter& dp_subsets;
  telemetry::Counter& dp_splits;
  telemetry::Counter& pareto_entries;

  static CostModelMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static CostModelMetrics* m = new CostModelMetrics{
        reg.GetCounter("costmodel.plans.count"),
        reg.GetCounter("costmodel.plan_ns.count"),
        reg.GetCounter("costmodel.dp_subsets.count"),
        reg.GetCounter("costmodel.dp_splits.count"),
        reg.GetCounter("costmodel.pareto_entries.count")};
    return *m;
  }
};

using partition::PartitioningState;
using schema::ColumnRef;
using workload::QuerySpec;

/// Partitioning property of an intermediate result: replicated everywhere,
/// or hash-partitioned on an equivalence class of join columns.
struct Prop {
  bool replicated = false;
  std::vector<ColumnRef> cols;  // sorted (table, column) pairs
  int64_t distinct = 1;

  bool partitioned() const { return !replicated; }

  bool Contains(const ColumnRef& ref) const {
    return std::find(cols.begin(), cols.end(), ref) != cols.end();
  }

  void AddCol(const ColumnRef& ref) {
    if (!Contains(ref)) cols.push_back(ref);
  }

  void Canonicalize() {
    std::sort(cols.begin(), cols.end(), [](const ColumnRef& a, const ColumnRef& b) {
      return a.table != b.table ? a.table < b.table : a.column < b.column;
    });
  }

  /// Same Pareto bucket key: every replicated property matches every other;
  /// partitioned ones match on equal column lists.
  bool SameKey(const Prop& other) const {
    return replicated == other.replicated && (replicated || cols == other.cols);
  }
};

/// One Pareto entry of the DP table: a plan for a table subset with a given
/// output partitioning property.
struct Entry {
  double cost = 0.0;   // accumulated net + cpu seconds (scans added later)
  double card = 0.0;   // estimated output rows
  double width = 0.0;  // output row width in bytes
  /// Exchange-priced row width: encoded bytes/row when the model carries
  /// measured compression ratios, else equal to `width`. Shipping costs use
  /// this; output costs keep the logical `width` (results are decoded).
  double xwidth = 0.0;
  /// Bytes multiplier when this subplan is shipped over an exchange. For a
  /// base table under an engine without predicate pushdown below exchanges
  /// (Postgres-XL-like), the *unfiltered* table is shipped: factor = 1/sel.
  double ship = 1.0;
  Prop prop;
  // Provenance for plan reconstruction.
  uint32_t lset = 0, rset = 0;
  int lentry = -1, rentry = -1;
  int predicate = -1;
  JoinStrategy strategy = JoinStrategy::kCoLocated;
  int align_eq = 0;
  double net_s = 0.0, cpu_s = 0.0;  // this join's own cost split
};

/// Equality endpoints oriented so that `in_left` belongs to the left subset
/// of the current split.
struct OrientedEquality {
  ColumnRef in_left;
  ColumnRef in_right;
  int equality_index;
};

struct PredicateInfo {
  int index;                 // into QuerySpec::joins
  int local_left, local_right;  // query-local table indices
  /// Denominator of the join-cardinality estimate. For a (possibly
  /// composite) equi-join we use max over the two endpoint tables T of
  /// min(prod of the distinct counts of T's key columns, |T|): exact for
  /// single-column FK joins, and for composite keys it identifies the side
  /// on which the key is (closest to) unique.
  double denominator;
};

class PlanSearch {
 public:
  PlanSearch(const CostModel& model, const QuerySpec& query,
             const PartitioningState& state)
      : model_(model),
        schema_(model.schema()),
        hw_(model.hardware()),
        query_(query),
        state_(state) {
    int k = query.num_tables();
    LPA_CHECK(k >= 1 && k <= 16);
    for (int i = 0; i < k; ++i) local_of_[query.scans[static_cast<size_t>(i)].table] = i;
    for (size_t j = 0; j < query.joins.size(); ++j) {
      const auto& join = query.joins[j];
      PredicateInfo info;
      info.index = static_cast<int>(j);
      info.local_left = local_of_.at(join.left_table());
      info.local_right = local_of_.at(join.right_table());
      double prod_l = 1.0, prod_r = 1.0;
      for (const auto& eq : join.equalities) {
        prod_l = std::min(prod_l * static_cast<double>(
                                       schema_.column(eq.left).distinct_count),
                          1e30);
        prod_r = std::min(prod_r * static_cast<double>(
                                       schema_.column(eq.right).distinct_count),
                          1e30);
      }
      double rows_l =
          static_cast<double>(schema_.table(join.left_table()).row_count);
      double rows_r =
          static_cast<double>(schema_.table(join.right_table()).row_count);
      info.denominator =
          std::max(std::min(prod_l, rows_l), std::min(prod_r, rows_r));
      info.denominator = std::max(info.denominator, 1.0);
      preds_.push_back(info);
    }
    entries_.resize(1u << k);
  }

  QueryPlan Run() {
    const int k = query_.num_tables();
    const uint32_t full = (1u << k) - 1;
    // Base relations.
    for (int i = 0; i < k; ++i) {
      entries_[1u << i].push_back(BaseEntry(i));
    }
    // Connected-subgraph DP in ascending mask order: every proper submask is
    // numerically smaller, so its entries are already final.
    uint64_t subsets = 0, splits = 0;
    for (uint32_t mask = 1; mask <= full; ++mask) {
      if (std::popcount(mask) < 2) continue;
      ++subsets;
      uint32_t lowest = mask & (~mask + 1);
      // Enumerate splits; anchoring the lowest bit on the left halves the
      // enumeration without losing plans (strategies cover both sides).
      for (uint32_t sub = (mask - 1) & mask; sub; sub = (sub - 1) & mask) {
        if (!(sub & lowest)) continue;
        uint32_t other = mask ^ sub;
        if (entries_[sub].empty() || entries_[other].empty()) continue;
        auto connecting = ConnectingPredicates(sub, other);
        if (connecting.empty()) continue;
        ++splits;
        for (size_t li = 0; li < entries_[sub].size(); ++li) {
          for (size_t ri = 0; ri < entries_[other].size(); ++ri) {
            EmitJoins(mask, sub, other, static_cast<int>(li),
                      static_cast<int>(ri), connecting);
          }
        }
      }
    }
    LPA_CHECK(!entries_[full].empty());  // guaranteed: join graph is connected
    uint64_t kept = 0;
    for (const auto& bucket : entries_) kept += bucket.size();
    auto& cm = CostModelMetrics::Get();
    cm.dp_subsets.Add(subsets);
    cm.dp_splits.Add(splits);
    cm.pareto_entries.Add(kept);
    // Pick the cheapest full plan and assemble the QueryPlan.
    int best = 0;
    for (size_t i = 1; i < entries_[full].size(); ++i) {
      if (entries_[full][i].cost < entries_[full][static_cast<size_t>(best)].cost) {
        best = static_cast<int>(i);
      }
    }
    QueryPlan plan;
    plan.root = Reconstruct(full, best);
    const Entry& e = entries_[full][static_cast<size_t>(best)];
    AccumulateJoinCosts(full, best, &plan);
    plan.scan_seconds = ScanSeconds();
    double out_rows = e.card * query_.output_fraction;
    plan.output_seconds = out_rows * e.width / hw_.network_bytes_per_sec +
                          e.card / (hw_.num_nodes * hw_.join_tuples_per_sec);
    return plan;
  }

 private:
  Entry BaseEntry(int local) const {
    const auto& scan = query_.scans[static_cast<size_t>(local)];
    const auto& table = schema_.table(scan.table);
    Entry e;
    e.card = static_cast<double>(table.row_count) * scan.selectivity;
    e.width = static_cast<double>(table.row_width_bytes());
    e.xwidth = model_.ExchangeRowBytes(scan.table);
    if (!hw_.pushdown_filters && scan.selectivity < 1.0) {
      e.ship = 1.0 / scan.selectivity;
    }
    const auto& tp = state_.table_partition(scan.table);
    if (tp.replicated) {
      e.prop.replicated = true;
    } else {
      e.prop.AddCol(ColumnRef{scan.table, tp.column});
      e.prop.distinct =
          table.columns[static_cast<size_t>(tp.column)].distinct_count;
    }
    return e;
  }

  std::vector<PredicateInfo> ConnectingPredicates(uint32_t sub,
                                                  uint32_t other) const {
    std::vector<PredicateInfo> result;
    for (const auto& p : preds_) {
      uint32_t lbit = 1u << p.local_left;
      uint32_t rbit = 1u << p.local_right;
      if (((sub & lbit) && (other & rbit)) || ((sub & rbit) && (other & lbit))) {
        result.push_back(p);
      }
    }
    return result;
  }

  /// Orient an equality so `.in_left` is on the `sub` side of the split.
  std::vector<OrientedEquality> Orient(const PredicateInfo& p,
                                       uint32_t sub) const {
    const auto& join = query_.joins[static_cast<size_t>(p.index)];
    bool left_in_sub = (sub & (1u << p.local_left)) != 0;
    std::vector<OrientedEquality> out;
    for (size_t i = 0; i < join.equalities.size(); ++i) {
      const auto& eq = join.equalities[i];
      if (left_in_sub) {
        out.push_back({eq.left, eq.right, static_cast<int>(i)});
      } else {
        out.push_back({eq.right, eq.left, static_cast<int>(i)});
      }
    }
    return out;
  }

  void EmitJoins(uint32_t mask, uint32_t sub, uint32_t other, int li, int ri,
                 const std::vector<PredicateInfo>& connecting) {
    const Entry& L = entries_[sub][static_cast<size_t>(li)];
    const Entry& R = entries_[other][static_cast<size_t>(ri)];
    const int n = hw_.num_nodes;
    const double bw = hw_.exchange_bytes_per_sec();
    const double rate = hw_.join_tuples_per_sec;
    const int joined = std::popcount(mask);

    // Join cardinality: FK-style estimate per connecting predicate, most
    // selective equality dominating (composite keys carry functional
    // dependencies), scaled by the (possibly noisy) CardinalityScale hook.
    double card = L.card * R.card;
    for (const auto& p : connecting) {
      double scale = model_.CardinalityScale(query_, p.index, joined);
      card *= scale / p.denominator;
    }
    card = std::max(card, 1.0);
    double width = L.width + R.width;
    double xwidth = L.xwidth + R.xwidth;
    double bytes_l = L.card * L.xwidth * L.ship;
    double bytes_r = R.card * R.xwidth * R.ship;
    // The primary predicate drives alignment decisions; extra connecting
    // predicates (cyclic join graphs) only tighten cardinality.
    const PredicateInfo& prime = connecting.front();
    auto oriented = Orient(prime, sub);

    double skew_l = L.prop.partitioned() ? SkewFactor(L.prop.distinct, n) : 1.0;
    double skew_r = R.prop.partitioned() ? SkewFactor(R.prop.distinct, n) : 1.0;

    auto emit = [&](JoinStrategy strategy, int align_eq, double net_s,
                    double cpu_s, Prop prop) {
      Entry e;
      e.cost = L.cost + R.cost + net_s + cpu_s;
      e.card = card;
      e.width = width;
      e.xwidth = xwidth;
      prop.Canonicalize();
      e.prop = std::move(prop);
      e.lset = sub;
      e.rset = other;
      e.lentry = li;
      e.rentry = ri;
      e.predicate = prime.index;
      e.strategy = strategy;
      e.align_eq = align_eq;
      e.net_s = net_s;
      e.cpu_s = cpu_s;
      Insert(mask, std::move(e));
    };

    // --- Replication-based locality -------------------------------------
    if (L.prop.replicated && R.prop.replicated) {
      // Both replicated: the join is computed redundantly on one node.
      double cpu = (L.card + R.card + card) / rate;
      Prop prop;
      prop.replicated = true;
      emit(JoinStrategy::kCoLocated, 0, 0.0, cpu, prop);
      return;  // no cheaper alternative exists
    }
    if (L.prop.replicated || R.prop.replicated) {
      const Entry& part = L.prop.replicated ? R : L;
      double skew = L.prop.replicated ? skew_r : skew_l;
      double cpu = (L.card + R.card + card) * skew / (n * rate);
      emit(JoinStrategy::kCoLocated, 0, 0.0, cpu, part.prop);
      return;  // shipping data cannot beat a free local join
    }

    // --- Co-located: both sides aligned on some equality ----------------
    for (const auto& eq : oriented) {
      if (L.prop.Contains(eq.in_left) && R.prop.Contains(eq.in_right)) {
        double skew = std::max(skew_l, skew_r);
        double cpu = (L.card + R.card + card) * skew / (n * rate);
        Prop prop = L.prop;
        for (const auto& c : R.prop.cols) prop.AddCol(c);
        prop.distinct = std::max(L.prop.distinct, R.prop.distinct);
        emit(JoinStrategy::kCoLocated, eq.equality_index, 0.0, cpu, prop);
        return;  // dominated alternatives not worth emitting
      }
    }

    // --- Broadcast one side ----------------------------------------------
    {
      double net = bytes_l * (n - 1) / (n * bw);
      double cpu = (L.card + (R.card + card) * skew_r / n) / rate;
      emit(JoinStrategy::kBroadcastLeft, 0, net, cpu, R.prop);
    }
    {
      double net = bytes_r * (n - 1) / (n * bw);
      double cpu = (R.card + (L.card + card) * skew_l / n) / rate;
      emit(JoinStrategy::kBroadcastRight, 0, net, cpu, L.prop);
    }

    // --- Directed repartitioning: one side already aligned ---------------
    for (const auto& eq : oriented) {
      int64_t key_distinct =
          std::min(schema_.column(eq.in_left).distinct_count,
                   schema_.column(eq.in_right).distinct_count);
      double key_skew = SkewFactor(key_distinct, n);
      if (R.prop.Contains(eq.in_right)) {  // move L to R
        double net = bytes_l * (n - 1) / (static_cast<double>(n) * n * bw);
        double cpu = (L.card + R.card + card) * std::max(key_skew, skew_r) /
                     (n * rate);
        Prop prop = R.prop;
        prop.AddCol(eq.in_left);
        prop.AddCol(eq.in_right);
        emit(JoinStrategy::kRepartitionLeft, eq.equality_index, net, cpu, prop);
      }
      if (L.prop.Contains(eq.in_left)) {  // move R to L
        double net = bytes_r * (n - 1) / (static_cast<double>(n) * n * bw);
        double cpu = (L.card + R.card + card) * std::max(key_skew, skew_l) /
                     (n * rate);
        Prop prop = L.prop;
        prop.AddCol(eq.in_left);
        prop.AddCol(eq.in_right);
        emit(JoinStrategy::kRepartitionRight, eq.equality_index, net, cpu, prop);
      }
    }

    // --- Symmetric repartitioning on the least-skewed equality -----------
    {
      int best_eq = 0;
      int64_t best_distinct = -1;
      for (const auto& eq : oriented) {
        int64_t d = std::min(schema_.column(eq.in_left).distinct_count,
                             schema_.column(eq.in_right).distinct_count);
        if (d > best_distinct) {
          best_distinct = d;
          best_eq = eq.equality_index;
        }
      }
      const auto& eq = oriented[static_cast<size_t>(best_eq)];
      double key_skew = SkewFactor(best_distinct, n);
      double net = (bytes_l + bytes_r) * (n - 1) / (static_cast<double>(n) * n * bw);
      double cpu = (L.card + R.card + card) * key_skew / (n * rate);
      Prop prop;
      prop.AddCol(eq.in_left);
      prop.AddCol(eq.in_right);
      prop.distinct = best_distinct;
      emit(JoinStrategy::kRepartitionBoth, best_eq, net, cpu, prop);
    }
  }

  void Insert(uint32_t mask, Entry entry) {
    auto& bucket = entries_[mask];
    for (auto& existing : bucket) {
      if (existing.prop.SameKey(entry.prop)) {
        if (entry.cost < existing.cost) existing = std::move(entry);
        return;
      }
    }
    bucket.push_back(std::move(entry));
  }

  std::unique_ptr<PlanNode> Reconstruct(uint32_t mask, int idx) const {
    const Entry& e = entries_[mask][static_cast<size_t>(idx)];
    auto node = std::make_unique<PlanNode>();
    node->est_card = e.card;
    if (std::popcount(mask) == 1) {
      int local = std::countr_zero(mask);
      node->table = query_.scans[static_cast<size_t>(local)].table;
      return node;
    }
    node->predicate = e.predicate;
    node->strategy = e.strategy;
    node->align_equality = e.align_eq;
    node->left = Reconstruct(e.lset, e.lentry);
    node->right = Reconstruct(e.rset, e.rentry);
    return node;
  }

  void AccumulateJoinCosts(uint32_t mask, int idx, QueryPlan* plan) const {
    const Entry& e = entries_[mask][static_cast<size_t>(idx)];
    if (std::popcount(mask) == 1) return;
    AccumulateJoinCosts(e.lset, e.lentry, plan);
    AccumulateJoinCosts(e.rset, e.rentry, plan);
    plan->net_seconds += e.net_s;
    plan->cpu_seconds += e.cpu_s;
  }

  double ScanSeconds() const {
    double total = 0.0;
    const int n = hw_.num_nodes;
    for (const auto& scan : query_.scans) {
      const auto& table = schema_.table(scan.table);
      double bytes = static_cast<double>(table.total_bytes());
      const auto& tp = state_.table_partition(scan.table);
      if (tp.replicated) {
        // Every node holds (and for a join must scan) the full copy; the
        // scan is not distributed. This is the replicate-vs-partition
        // tradeoff of Exp 5.
        total += bytes * hw_.disk_scan_factor / hw_.scan_bytes_per_sec;
      } else {
        double skew = SkewFactor(
            table.columns[static_cast<size_t>(tp.column)].distinct_count, n);
        total += bytes * hw_.disk_scan_factor * skew /
                 (n * hw_.scan_bytes_per_sec);
      }
    }
    return total;
  }

  const CostModel& model_;
  const schema::Schema& schema_;
  const HardwareProfile& hw_;
  const QuerySpec& query_;
  const PartitioningState& state_;
  std::map<schema::TableId, int> local_of_;
  std::vector<PredicateInfo> preds_;
  std::vector<std::vector<Entry>> entries_;
};

void CollectStrategies(const PlanNode* node, std::vector<JoinStrategy>* out) {
  if (node == nullptr || node->is_scan()) return;
  CollectStrategies(node->left.get(), out);
  CollectStrategies(node->right.get(), out);
  out->push_back(node->strategy);
}

void RenderNode(const PlanNode* node, const schema::Schema& schema,
                const QuerySpec& query, int depth, std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  if (node->is_scan()) {
    *os << "scan " << schema.table(node->table).name << " (card "
        << node->est_card << ")\n";
    return;
  }
  const auto& eq =
      query.joins[static_cast<size_t>(node->predicate)]
          .equalities[static_cast<size_t>(node->align_equality)];
  *os << JoinStrategyName(node->strategy) << " on "
      << schema.table(eq.left.table).name << "." << schema.column(eq.left).name
      << "=" << schema.table(eq.right.table).name << "."
      << schema.column(eq.right).name << " (card " << node->est_card << ")\n";
  RenderNode(node->left.get(), schema, query, depth + 1, os);
  RenderNode(node->right.get(), schema, query, depth + 1, os);
}

}  // namespace

const char* JoinStrategyName(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kCoLocated: return "co-located";
    case JoinStrategy::kBroadcastLeft: return "broadcast-left";
    case JoinStrategy::kBroadcastRight: return "broadcast-right";
    case JoinStrategy::kRepartitionLeft: return "repartition-left";
    case JoinStrategy::kRepartitionRight: return "repartition-right";
    case JoinStrategy::kRepartitionBoth: return "repartition-both";
  }
  return "?";
}

std::vector<JoinStrategy> QueryPlan::JoinStrategies() const {
  std::vector<JoinStrategy> out;
  CollectStrategies(root.get(), &out);
  return out;
}

std::string QueryPlan::ToString(const schema::Schema& schema,
                                const workload::QuerySpec& query) const {
  std::ostringstream os;
  RenderNode(root.get(), schema, query, 0, &os);
  return os.str();
}

double SkewFactor(int64_t distinct, int nodes) {
  if (distinct <= 0) distinct = 1;
  double d = static_cast<double>(distinct);
  double n = static_cast<double>(nodes);
  double factor = 1.0 + std::sqrt(2.0 * std::log(n) * n / d);
  return std::min(factor, n);
}

CostModel::CostModel(const schema::Schema* schema, HardwareProfile hardware)
    : schema_(schema), hardware_(hardware) {}

double CostModel::CardinalityScale(const workload::QuerySpec&, int, int) const {
  return 1.0;
}

double CostModel::DesignCostScale(const workload::QuerySpec&,
                                  const partition::PartitioningState&) const {
  return 1.0;
}

double CostModel::QueryCost(const workload::QuerySpec& query,
                            const partition::PartitioningState& state) const {
  return PlanQuery(query, state).total_seconds() *
         DesignCostScale(query, state);
}

QueryPlan CostModel::PlanQuery(const workload::QuerySpec& query,
                               const partition::PartitioningState& state) const {
  auto& metrics = CostModelMetrics::Get();
  metrics.plans.Add();
  telemetry::NanosTimer timer(&metrics.plan_ns);
  if (query.num_tables() == 1) {
    QueryPlan plan;
    plan.root = std::make_unique<PlanNode>();
    const auto& scan = query.scans.front();
    const auto& table = schema_->table(scan.table);
    plan.root->table = scan.table;
    plan.root->est_card = static_cast<double>(table.row_count) * scan.selectivity;
    double bytes = static_cast<double>(table.total_bytes());
    const auto& tp = state.table_partition(scan.table);
    if (tp.replicated) {
      plan.scan_seconds = bytes * hardware_.disk_scan_factor / hardware_.scan_bytes_per_sec;
    } else {
      double skew = SkewFactor(
          table.columns[static_cast<size_t>(tp.column)].distinct_count,
          hardware_.num_nodes);
      plan.scan_seconds = bytes * hardware_.disk_scan_factor * skew /
                          (hardware_.num_nodes * hardware_.scan_bytes_per_sec);
    }
    double out_rows = plan.root->est_card * query.output_fraction;
    plan.output_seconds =
        out_rows * table.row_width_bytes() / hardware_.network_bytes_per_sec +
        plan.root->est_card / (hardware_.num_nodes * hardware_.join_tuples_per_sec);
    return plan;
  }
  PlanSearch search(*this, query, state);
  return search.Run();
}

double CostModel::WorkloadCost(const workload::Workload& workload,
                               const partition::PartitioningState& state) const {
  return WeightedCost(workload.num_queries(), workload.frequencies(),
                      [&](int j, double) {
                        return QueryCost(workload.query(j), state);
                      });
}

double CostModel::RepartitioningCost(
    const partition::PartitioningState& from,
    const partition::PartitioningState& to) const {
  double total = 0.0;
  const int n = hardware_.num_nodes;
  const double bw = hardware_.network_bytes_per_sec;
  for (schema::TableId t : from.DiffTables(to)) {
    const auto& table = schema_->table(t);
    double bytes = static_cast<double>(table.total_bytes());
    // Shipped bytes are encoded when the model carries compression ratios;
    // the disk rewrite below always works on decoded tuples.
    double ship_bytes =
        encoded_row_bytes_.empty()
            ? bytes
            : static_cast<double>(table.row_count) * ExchangeRowBytes(t);
    const auto& target = to.table_partition(t);
    if (target.replicated) {
      // Every node must receive the full table.
      total += ship_bytes * (n - 1) / (n * bw);
    } else {
      total += ship_bytes * (n - 1) / (static_cast<double>(n) * n * bw);
    }
    // Rewrite cost on the receiving side.
    total += bytes * hardware_.disk_scan_factor / (n * hardware_.scan_bytes_per_sec);
  }
  return total;
}

}  // namespace lpa::costmodel
