// Component microbenchmarks (google-benchmark): throughput guardrails for
// the library's hot paths — cost-model planning, featurization, NN forward/
// train, engine execution, and data generation — plus four kernels run
// after the google benchmarks: a Q-network kernel timing every GEMM shape of
// the Table 1 network and the DQN train step at 1 and 2 threads
// (BENCH_qnetwork.json), a workload-cost kernel timing the offline env's
// per-step workload cost serially and at 2 threads
// (BENCH_micro_components.json),
// a storage kernel measuring encode/decode throughput and per-column
// compression (BENCH_storage.json), and an engine kernel measuring
// pool-parallel ExecuteWorkload scaling with bit-identity checks plus the
// compressed-storage footprint (BENCH_engine.json).

#include <benchmark/benchmark.h>

#include <chrono>

#include "advisor/workload_monitor.h"
#include "bench_common.h"
#include "costmodel/cost_model.h"
#include "sql/ddl.h"
#include "sql/parser.h"
#include "engine/cluster.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "partition/featurizer.h"
#include "rl/dqn.h"
#include "rl/offline_env.h"
#include "schema/catalogs.h"
#include "storage/database.h"
#include "storage/encoded_column.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace lpa {
namespace {

struct SsbFixture {
  SsbFixture()
      : schema(schema::MakeSsbSchema()),
        wl(workload::MakeSsbWorkload(schema)),
        edges(partition::EdgeSet::Extract(schema, wl)),
        model(&schema, costmodel::HardwareProfile::DiskBased10G()),
        state(partition::PartitioningState::Initial(&schema, &edges)) {}

  schema::Schema schema;
  workload::Workload wl;
  partition::EdgeSet edges;
  costmodel::CostModel model;
  partition::PartitioningState state;
};

SsbFixture& Ssb() {
  static SsbFixture fixture;
  return fixture;
}

void BM_CostModelPlanSsbQuery(benchmark::State& s) {
  auto& f = Ssb();
  const auto& q = f.wl.query(10);  // q4.1: all five tables
  for (auto _ : s) {
    benchmark::DoNotOptimize(f.model.QueryCost(q, f.state));
  }
}
BENCHMARK(BM_CostModelPlanSsbQuery);

void BM_CostModelPlanTpcdsQuery(benchmark::State& s) {
  static schema::Schema schema = schema::MakeTpcdsSchema();
  static workload::Workload wl = workload::MakeTpcdsWorkload(schema);
  static partition::EdgeSet edges = partition::EdgeSet::Extract(schema, wl);
  static costmodel::CostModel model(&schema,
                                    costmodel::HardwareProfile::DiskBased10G());
  static auto state = partition::PartitioningState::Initial(&schema, &edges);
  const auto& q = wl.query(53);  // 6-table demographic query
  for (auto _ : s) {
    benchmark::DoNotOptimize(model.QueryCost(q, state));
  }
}
BENCHMARK(BM_CostModelPlanTpcdsQuery);

void BM_FeaturizerEncodeState(benchmark::State& s) {
  auto& f = Ssb();
  partition::Featurizer featurizer(&f.schema, &f.edges, f.wl.num_queries());
  std::vector<double> freqs(static_cast<size_t>(f.wl.num_queries()), 1.0);
  for (auto _ : s) {
    benchmark::DoNotOptimize(featurizer.EncodeState(f.state, freqs));
  }
}
BENCHMARK(BM_FeaturizerEncodeState);

void BM_LegalActions(benchmark::State& s) {
  auto& f = Ssb();
  partition::ActionSpace actions(&f.schema, &f.edges);
  for (auto _ : s) {
    benchmark::DoNotOptimize(actions.LegalActions(f.state));
  }
}
BENCHMARK(BM_LegalActions);

void BM_MlpForward128x64(benchmark::State& s) {
  nn::MlpConfig config;
  config.input_dim = 64;
  config.hidden = {128, 64};
  config.output_dim = 32;
  nn::Mlp mlp(config);
  nn::Matrix x(32, 64, 0.1);
  for (auto _ : s) {
    benchmark::DoNotOptimize(mlp.Forward(x));
  }
}
BENCHMARK(BM_MlpForward128x64);

void BM_DqnTrainStep(benchmark::State& s) {
  auto& f = Ssb();
  partition::ActionSpace actions(&f.schema, &f.edges);
  partition::Featurizer featurizer(&f.schema, &f.edges, f.wl.num_queries());
  rl::DqnConfig config;
  config.tmax = 16;
  rl::DqnAgent agent(&featurizer, &actions, config);
  std::vector<double> freqs(static_cast<size_t>(f.wl.num_queries()), 1.0);
  auto enc = featurizer.EncodeState(f.state, freqs);
  auto legal = actions.LegalActions(f.state);
  for (int i = 0; i < 64; ++i) {
    agent.Observe(rl::Transition{enc, legal[0], -1.0, enc, legal});
  }
  Rng rng(3);
  for (auto _ : s) {
    benchmark::DoNotOptimize(agent.TrainStep(&rng));
  }
}
BENCHMARK(BM_DqnTrainStep);

void BM_EngineExecuteQuery(benchmark::State& s) {
  auto& f = Ssb();
  storage::GenerationConfig gen;
  gen.fraction = 2e-4;
  gen.seed = 5;
  static engine::ClusterDatabase cluster(
      storage::Database::Generate(f.schema, f.wl, gen),
      engine::EngineConfig{costmodel::HardwareProfile::DiskBased10G(), 0.0, 5},
      &f.model);
  cluster.ApplyDesign(f.state);
  const auto& q = f.wl.query(6);  // q3.1
  for (auto _ : s) {
    benchmark::DoNotOptimize(cluster.ExecuteQuery(q));
  }
}
BENCHMARK(BM_EngineExecuteQuery);

void BM_GenerateSsbDatabase(benchmark::State& s) {
  auto& f = Ssb();
  storage::GenerationConfig gen;
  gen.fraction = 1e-4;
  gen.seed = 5;
  for (auto _ : s) {
    benchmark::DoNotOptimize(storage::Database::Generate(f.schema, f.wl, gen));
  }
}
BENCHMARK(BM_GenerateSsbDatabase);

void BM_RepartitionFactTable(benchmark::State& s) {
  auto& f = Ssb();
  storage::GenerationConfig gen;
  gen.fraction = 2e-4;
  gen.seed = 5;
  engine::ClusterDatabase cluster(
      storage::Database::Generate(f.schema, f.wl, gen),
      engine::EngineConfig{costmodel::HardwareProfile::DiskBased10G(), 0.0, 5},
      &f.model);
  auto a = partition::PartitioningState::Initial(&f.schema, &f.edges);
  auto b = a;
  schema::TableId lo = f.schema.TableIndex("lineorder");
  LPA_CHECK(b.PartitionBy(lo, f.schema.table(lo).ColumnIndex("lo_custkey")).ok());
  bool flip = false;
  for (auto _ : s) {
    benchmark::DoNotOptimize(cluster.ApplyDesign(flip ? a : b));
    flip = !flip;
  }
}
BENCHMARK(BM_RepartitionFactTable);

void BM_SqlParseQuery(benchmark::State& s) {
  auto& f = Ssb();
  const std::string sql =
      "SELECT SUM(lo_payload) FROM lineorder l, customer c, supplier su, date d "
      "WHERE l.lo_custkey = c.c_custkey AND l.lo_suppkey = su.s_suppkey "
      "AND l.lo_orderdate = d.d_datekey AND c.c_region = 1 AND su.s_nation = 7 "
      "GROUP BY d.d_year ORDER BY d.d_year LIMIT 100";
  for (auto _ : s) {
    benchmark::DoNotOptimize(sql::ParseQuery(sql, f.schema, "bench"));
  }
}
BENCHMARK(BM_SqlParseQuery);

void BM_DdlParseSchema(benchmark::State& s) {
  const std::string ddl =
      "CREATE TABLE region (r_id INT PRIMARY KEY, r_name VARCHAR(32)) ROWS 50;"
      "CREATE TABLE product (p_id INT PRIMARY KEY, "
      "p_region INT REFERENCES region(r_id), p_category INT DISTINCT 40, "
      "p_name VARCHAR(80)) ROWS 2000000;"
      "CREATE TABLE sales (s_id BIGINT PRIMARY KEY, "
      "s_product INT REFERENCES product(p_id), s_amount DECIMAL(10,2)) "
      "FACT ROWS 400000000;";
  for (auto _ : s) {
    benchmark::DoNotOptimize(sql::ParseDdl(ddl));
  }
}
BENCHMARK(BM_DdlParseSchema);

void BM_ClassifyQueryInstance(benchmark::State& s) {
  auto& f = Ssb();
  advisor::QueryClassifier classifier(&f.wl);
  Rng rng(3);
  auto instance = workload::MakeParameterizedSsbInstance(f.wl, 6, 0.3, &rng);
  for (auto _ : s) {
    benchmark::DoNotOptimize(classifier.Classify(instance));
  }
}
BENCHMARK(BM_ClassifyQueryInstance);

}  // namespace

// ---------------------------------------------------------------------------
// Q-network kernel: the GEMMs of one DQN train step on TPC-CH dimensions
// (76 state inputs, 128-64 hidden, 70 action heads, batch 32) and the whole
// DqnAgent::TrainStep, serial and on a 2-thread pool. GMAC/s counts m*k*n
// multiply-adds on dense random operands, so zero-skipping cannot inflate
// it. Each figure is the median of 7 timed batches of about 20 ms.

/// Median over 7 batches of the seconds per call of `fn`.
template <typename F>
double MedianSecondsPerCall(F&& fn) {
  using Clock = std::chrono::steady_clock;
  int calls = 1;
  for (;;) {  // size a batch to about 20 ms
    auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (s >= 0.02 || calls >= (1 << 20)) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < 7; ++b) {
    auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(std::chrono::duration<double>(Clock::now() - t0).count() /
                       calls);
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

void RunQNetworkKernel() {
  bench::BenchReport report("qnetwork");
  report.set_seed(42);
  report.set_schema("tpcch");
  report.Note("avx2_kernels", nn::HaveAvx2() ? "true" : "false");
  EvalContext two(2, 7);
  Rng rng(42);
  auto random = [&rng](size_t rows, size_t cols) {
    nn::Matrix m(rows, cols);
    for (double& v : m.data()) v = rng.Uniform(-1.0, 1.0);
    return m;
  };

  // op, m, k, n of C[m x n] = op(A) * op(B) with inner dimension k.
  struct Shape {
    const char* op;
    size_t m, k, n;
  };
  const Shape shapes[] = {
      {"Gemm (forward)", 32, 76, 128},     {"Gemm (forward)", 32, 128, 64},
      {"Gemm (forward)", 32, 64, 70},      {"GemmTransA (dW)", 76, 32, 128},
      {"GemmTransA (dW)", 128, 32, 64},    {"GemmTransA (dW)", 64, 32, 70},
      {"GemmTransB (dprev)", 32, 70, 64},  {"GemmTransB (dprev)", 32, 64, 128},
  };
  TablePrinter gemms({"op", "m x k x n", "GMAC/s 1 thread", "GMAC/s 2 threads"});
  for (const auto& sh : shapes) {
    const std::string op = sh.op;
    const bool trans_a = op.rfind("GemmTransA", 0) == 0;
    const bool trans_b = op.rfind("GemmTransB", 0) == 0;
    nn::Matrix a = trans_a ? random(sh.k, sh.m) : random(sh.m, sh.k);
    nn::Matrix b = trans_b ? random(sh.n, sh.k) : random(sh.k, sh.n);
    nn::Matrix c(sh.m, sh.n);
    std::vector<std::string> row = {
        op, std::to_string(sh.m) + "x" + std::to_string(sh.k) + "x" +
                std::to_string(sh.n)};
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), two.pool()}) {
      double s = MedianSecondsPerCall([&] {
        if (trans_a) {
          nn::GemmTransA(a, b, &c, pool);
        } else if (trans_b) {
          nn::GemmTransB(a, b, &c, pool);
        } else {
          nn::Gemm(a, b, &c, pool);
        }
        benchmark::DoNotOptimize(c.data().data());
      });
      row.push_back(FormatDouble(
          static_cast<double>(sh.m * sh.k * sh.n) / s / 1e9, 2));
    }
    gemms.AddRow(row);
  }
  report.Table("Q-network GEMM shapes (TPC-CH, batch 32)", gemms);

  // The full learner step: TD targets through the target network, masked
  // MSE forward/backward, Adam and the Polyak target update.
  const schema::Schema schema = schema::MakeTpcchSchema();
  const workload::Workload wl = workload::MakeTpcchWorkload(schema);
  const auto edges = partition::EdgeSet::Extract(schema, wl);
  partition::ActionSpace actions(&schema, &edges);
  partition::Featurizer featurizer(&schema, &edges, wl.num_queries());
  auto state = partition::PartitioningState::Initial(&schema, &edges);
  std::vector<double> freqs(static_cast<size_t>(wl.num_queries()), 1.0);
  std::vector<rl::Transition> replay;
  for (int i = 0; i < 256; ++i) {
    auto legal = actions.LegalActions(state);
    rl::Transition t;
    t.state_enc = featurizer.EncodeState(state, freqs);
    t.action_id = legal[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
    LPA_CHECK(actions.Apply(t.action_id, &state).ok());
    t.reward = rng.Uniform(-1.0, 1.0);
    t.next_enc = featurizer.EncodeState(state, freqs);
    t.next_legal = actions.LegalActions(state);
    replay.push_back(std::move(t));
  }
  TablePrinter steps({"network", "inputs", "heads", "us/step 1 thread",
                      "us/step 2 threads"});
  std::vector<std::string> row = {"128-64 multi-head",
                                  std::to_string(featurizer.state_dim()),
                                  std::to_string(actions.size())};
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), two.pool()}) {
    rl::DqnAgent agent(&featurizer, &actions, rl::DqnConfig{});
    for (const auto& t : replay) agent.Observe(t);
    Rng step_rng(3);
    double s = MedianSecondsPerCall(
        [&] { benchmark::DoNotOptimize(agent.TrainStep(&step_rng, pool)); });
    row.push_back(FormatDouble(s * 1e6, 1));
  }
  steps.AddRow(row);
  report.Table("DqnAgent::TrainStep (TPC-CH dimensions, batch 32)", steps);
}

// ---------------------------------------------------------------------------
// Workload-cost kernel: OfflineEnv::WorkloadCost per training step.
//
// Replays one seeded random action walk through a fresh offline environment
// (cold cost cache) once serially and once on a 2-thread context, where the
// cache misses of a step are planned across the pool, and reports cost-cache
// probes per step, ns per step, and the digest of the per-step totals. The
// digests MUST match: the fan-out is bit-identical by contract.

void RunWorkloadCostKernel() {
  bench::BenchReport report("micro_components");
  report.set_seed(42);
  const int steps = std::max(32, 4096 / bench::BenchScale());
  report.Note("workload_cost_steps", std::to_string(steps));

  TablePrinter table(
      {"schema", "threads", "probes/step", "ns/step", "total digest"});
  for (const std::string& name : {std::string("ssb"), std::string("tpcch")}) {
    auto tb = bench::MakeTestbed(name, bench::EngineKind::kDiskBased,
                                 /*fraction=*/1e-4);
    partition::ActionSpace actions(tb.schema.get(), tb.edges.get());
    std::vector<double> freqs(
        static_cast<size_t>(tb.workload->num_queries()), 1.0);

    // One shared walk so both rows price the identical state sequence.
    std::vector<int> walk;
    {
      Rng rng(42);
      auto state = tb.Initial();
      for (int i = 0; i < steps; ++i) {
        auto legal = actions.LegalActions(state);
        int action = legal[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
        LPA_CHECK(actions.Apply(action, &state).ok());
        walk.push_back(action);
      }
    }

    auto run = [&](int threads) {
      // Fresh env per row: both start from a cold cost cache.
      rl::OfflineEnv env(tb.exact_model.get(), tb.workload.get());
      EvalContext ctx(threads, /*seed=*/42);
      auto state = tb.Initial();
      std::vector<double> totals;
      totals.reserve(walk.size());
      size_t probes_before = env.evaluations();
      auto t0 = std::chrono::steady_clock::now();
      for (int action : walk) {
        LPA_CHECK(actions.Apply(action, &state).ok());
        totals.push_back(env.WorkloadCost(state, freqs, &ctx));
      }
      auto t1 = std::chrono::steady_clock::now();
      double ns_per_step =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()) /
          static_cast<double>(walk.size());
      double probes_per_step =
          static_cast<double>(env.evaluations() - probes_before) /
          static_cast<double>(walk.size());
      table.AddRow({name, std::to_string(threads),
                    FormatDouble(probes_per_step, 2),
                    FormatDouble(ns_per_step, 0),
                    bench::RewardDigest(totals)});
      return totals;
    };

    auto serial = run(1);
    auto pooled = run(2);
    LPA_CHECK(serial == pooled);  // the fan-out is bit-identical
  }
  report.Table("Workload cost per training step (full recompute)", table);
}

// ---------------------------------------------------------------------------
// Storage kernel: encoding throughput and per-column compression.
//
// Part 1 times EncodedColumn encode/decode on synthetic columns shaped for
// each encoding (constant -> RLE, sorted -> FOR, low-cardinality -> Dict,
// random -> Plain) and reports MB/s over the *raw* byte volume plus the
// achieved compression ratio. Part 2 encodes every column of the SSB and
// TPC-CH testbed databases with the stats-driven chooser and reports the
// pick and ratio per column. Emits BENCH_storage.json.

void RunStorageKernel() {
  using storage::EncodedColumn;
  bench::BenchReport report("storage");
  report.set_seed(42);
  const size_t n =
      static_cast<size_t>(4 << 20) / static_cast<size_t>(bench::BenchScale());
  report.Note("storage_kernel_values", std::to_string(n));

  std::vector<std::pair<std::string, std::vector<int64_t>>> shapes;
  shapes.emplace_back("constant", std::vector<int64_t>(n, 42));
  {
    std::vector<int64_t> sorted(n);
    for (size_t i = 0; i < n; ++i) sorted[i] = 1000 + 3 * static_cast<int64_t>(i);
    shapes.emplace_back("sorted", std::move(sorted));
  }
  {
    Rng rng(42);
    std::vector<int64_t> lowcard(n);
    for (auto& v : lowcard) v = rng.UniformInt(0, 199) * 1'000'003;
    shapes.emplace_back("low-card", std::move(lowcard));
  }
  {
    std::vector<int64_t> random(n);
    for (size_t i = 0; i < n; ++i) {
      random[i] = static_cast<int64_t>(Hash64(i ^ 0xabcdef12345ULL));
    }
    shapes.emplace_back("random", std::move(random));
  }

  const double raw_mb = static_cast<double>(n) * 8.0 / (1024.0 * 1024.0);
  const int reps = 3;
  TablePrinter tput(
      {"shape", "encoding", "encode MB/s", "decode MB/s", "ratio"});
  for (const auto& [label, values] : shapes) {
    EncodedColumn col;
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      col = EncodedColumn::Encode(values);
      benchmark::DoNotOptimize(col);
    }
    auto t1 = std::chrono::steady_clock::now();
    std::vector<int64_t> decoded;
    for (int r = 0; r < reps; ++r) {
      decoded = col.Decode();
      benchmark::DoNotOptimize(decoded);
    }
    auto t2 = std::chrono::steady_clock::now();
    LPA_CHECK(decoded == values);  // lossless, always
    auto mbps = [&](std::chrono::steady_clock::duration d) {
      double secs = std::chrono::duration<double>(d).count() / reps;
      return FormatDouble(raw_mb / secs, 0);
    };
    tput.AddRow({label, storage::EncodingName(col.encoding()), mbps(t1 - t0),
                 mbps(t2 - t1),
                 FormatDouble(static_cast<double>(col.raw_bytes()) /
                                  static_cast<double>(col.encoded_bytes()),
                              1) +
                     "x"});
  }
  report.Table("Encoding throughput (over raw bytes) and compression ratio",
               tput);

  TablePrinter cols({"column", "rows", "encoding", "raw KB", "enc KB", "ratio"});
  for (const std::string& name : {std::string("ssb"), std::string("tpcch")}) {
    const auto schema = name == "ssb" ? schema::MakeSsbSchema()
                                      : schema::MakeTpcchSchema();
    const auto wl = name == "ssb" ? workload::MakeSsbWorkload(schema)
                                  : workload::MakeTpcchWorkload(schema);
    storage::GenerationConfig gen;
    gen.fraction = bench::DefaultFraction(name);
    gen.small_table_threshold = 64;
    gen.seed = 42;
    auto db = storage::Database::Generate(schema, wl, gen);
    size_t total_raw = 0, total_enc = 0;
    for (schema::TableId t = 0; t < schema.num_tables(); ++t) {
      const auto& table = schema.table(t);
      const auto& data = db.table(t);
      for (schema::ColumnId c = 0;
           c < static_cast<schema::ColumnId>(table.columns.size()); ++c) {
        auto col = EncodedColumn::Encode(data.column(c));
        total_raw += col.raw_bytes();
        total_enc += col.encoded_bytes();
        cols.AddRow(
            {name + "." + table.name + "." + table.columns[c].name,
             std::to_string(col.size()),
             storage::EncodingName(col.encoding()),
             FormatDouble(static_cast<double>(col.raw_bytes()) / 1024.0, 1),
             FormatDouble(static_cast<double>(col.encoded_bytes()) / 1024.0, 1),
             FormatDouble(static_cast<double>(col.raw_bytes()) /
                              static_cast<double>(col.encoded_bytes()),
                          1) +
                 "x"});
      }
      auto rid_col = EncodedColumn::Encode(data.rids());
      total_raw += rid_col.raw_bytes();
      total_enc += rid_col.encoded_bytes();
    }
    double ratio =
        static_cast<double>(total_raw) / static_cast<double>(total_enc);
    cols.AddRow({name + " TOTAL (incl. rids)", "",
                 "", FormatDouble(static_cast<double>(total_raw) / 1024.0, 1),
                 FormatDouble(static_cast<double>(total_enc) / 1024.0, 1),
                 FormatDouble(ratio, 2) + "x"});
    report.Note(name + "_compression_ratio", FormatDouble(ratio, 3));
  }
  report.Table("Per-column compression (chooser picks, testbed data)", cols);
}

// ---------------------------------------------------------------------------
// Engine kernel: pool-parallel ExecuteWorkload vs the serial path.
//
// Runs the full SSB workload on the materialized cluster at 1/2/8 threads,
// reporting wall-clock per workload pass and the speedup over serial. The
// per-query seconds digests MUST match across thread counts: the parallel
// engine is bit-identical by contract (order-fixed merges, forked RNG-free
// noise). Emits BENCH_engine.json.

void RunEngineKernel() {
  bench::BenchReport report("engine");
  report.set_seed(42);
  report.set_schema("ssb");
  report.set_engine_profile(bench::EngineName(bench::EngineKind::kDiskBased));
  auto tb = bench::MakeTestbed("ssb", bench::EngineKind::kDiskBased,
                               bench::DefaultFraction("ssb"));
  tb.cluster->ApplyDesign(tb.Initial());
  const int reps = std::max(2, 16 / bench::BenchScale());
  report.Note("engine_kernel_reps", std::to_string(reps));

  // Compressed-storage footprint of the deployed testbed (docs/INTERNALS.md
  // §11). The pre-compression engine measured 268.433 ms/workload serial on
  // this kernel (ROADMAP.md); the encoded engine must not regress it.
  {
    double resident = static_cast<double>(tb.cluster->storage_resident_bytes());
    double raw = static_cast<double>(tb.cluster->storage_raw_bytes());
    report.Note("storage_bytes_resident", FormatDouble(resident, 0));
    report.Note("storage_bytes_raw", FormatDouble(raw, 0));
    report.Note("storage_compression_ratio", FormatDouble(raw / resident, 3));
    report.Note("serial_ms_pre_compression_baseline", "268.433");
  }

  auto& reg = telemetry::MetricsRegistry::Global();
  uint64_t probes0 = reg.GetCounter("engine.join_probes.count").value();

  TablePrinter table({"threads", "ms/workload", "speedup", "per-query digest"});
  double serial_ms = 0.0;
  std::string serial_digest;
  for (int threads : {1, 2, 8}) {
    EvalContext ctx(threads, 7);
    EvalContext* pctx = threads > 1 ? &ctx : nullptr;
    // One warm-up pass so every mode times execution, not planning (the plan
    // cache is shared across modes anyway).
    tb.cluster->ExecuteWorkload(*tb.workload, pctx);
    std::vector<double> per_query;
    for (int i = 0; i < tb.workload->num_queries(); ++i) {
      per_query.push_back(
          tb.cluster->ExecuteQuery(tb.workload->query(i), pctx).seconds);
    }
    std::string digest = bench::RewardDigest(per_query);
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      benchmark::DoNotOptimize(tb.cluster->ExecuteWorkload(*tb.workload, pctx));
    }
    auto t1 = std::chrono::steady_clock::now();
    double ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count()) /
        1000.0 / static_cast<double>(reps);
    if (threads == 1) {
      serial_ms = ms;
      serial_digest = digest;
      report.Note("serial_ms_per_workload", FormatDouble(ms, 3));
    }
    LPA_CHECK(digest == serial_digest);  // parallel must not change results
    table.AddRow({std::to_string(threads), FormatDouble(ms, 2),
                  FormatDouble(serial_ms / ms, 2) + "x", digest});
  }
  report.Table(
      "Engine kernel: ExecuteWorkload wall-clock vs threads "
      "(digests must be identical)",
      table);
  report.Note("join_probes",
              std::to_string(
                  reg.GetCounter("engine.join_probes.count").value() - probes0));
  report.Note(
      "plan_cache_hits",
      std::to_string(reg.GetCounter("engine.plan_cache_hits.count").value()));

  // Exchange-pricing sweep: the same testbed with price_encoded_bytes ships
  // measured encoded bytes instead of logical row widths. This intentionally
  // re-prices net_seconds / bytes_shuffled, so its digest is a *fresh
  // baseline* (recorded here), never compared against the raw-priced one.
  {
    auto priced = bench::MakeTestbed("ssb", bench::EngineKind::kDiskBased,
                                     bench::DefaultFraction("ssb"), 42, 0.02,
                                     /*encode_storage=*/true,
                                     /*price_encoded_bytes=*/true);
    priced.cluster->ApplyDesign(priced.Initial());
    TablePrinter pricing(
        {"pricing", "bytes shuffled", "simulated s", "per-query digest"});
    auto sweep = [&](engine::ClusterDatabase& cluster, const char* label) {
      uint64_t bytes = 0;
      double secs = 0.0;
      std::vector<double> per_query;
      for (int i = 0; i < tb.workload->num_queries(); ++i) {
        auto stats = cluster.ExecuteQuery(tb.workload->query(i));
        bytes += stats.bytes_shuffled;
        secs += stats.seconds;
        per_query.push_back(stats.seconds);
      }
      pricing.AddRow({label, std::to_string(bytes), FormatDouble(secs, 4),
                      bench::RewardDigest(per_query)});
      return bytes;
    };
    uint64_t raw_priced = sweep(*tb.cluster, "logical widths");
    uint64_t enc_priced = sweep(*priced.cluster, "encoded bytes");
    LPA_CHECK(enc_priced < raw_priced);  // compression must shrink exchanges
    report.Table(
        "Exchange pricing: logical row widths vs measured encoded bytes",
        pricing);
  }

  // Compression headroom: an encoded testbed materialized at 3x the fraction
  // still fits under the *uncompressed* testbed's resident footprint — the
  // same memory budget now holds a larger scale-factor slice.
  {
    auto plain = bench::MakeTestbed("ssb", bench::EngineKind::kDiskBased,
                                    bench::DefaultFraction("ssb"), 42, 0.02,
                                    /*encode_storage=*/false);
    auto big = bench::MakeTestbed("ssb", bench::EngineKind::kDiskBased,
                                  3.0 * bench::DefaultFraction("ssb"));
    plain.cluster->ApplyDesign(plain.Initial());
    big.cluster->ApplyDesign(big.Initial());
    schema::TableId lo = tb.schema->TableIndex("lineorder");
    auto mb = [](size_t bytes) {
      return FormatDouble(static_cast<double>(bytes) / (1024.0 * 1024.0), 2);
    };
    TablePrinter headroom(
        {"testbed", "fraction", "lineorder rows", "resident MB", "raw MB"});
    headroom.AddRow({"plain", FormatDouble(bench::DefaultFraction("ssb"), 4),
                     std::to_string(plain.cluster->TableRows(lo)),
                     mb(plain.cluster->storage_resident_bytes()),
                     mb(plain.cluster->storage_raw_bytes())});
    headroom.AddRow({"encoded 3x",
                     FormatDouble(3.0 * bench::DefaultFraction("ssb"), 4),
                     std::to_string(big.cluster->TableRows(lo)),
                     mb(big.cluster->storage_resident_bytes()),
                     mb(big.cluster->storage_raw_bytes())});
    LPA_CHECK(big.cluster->storage_resident_bytes() <
              plain.cluster->storage_resident_bytes());
    report.Note("headroom_3x_fits", "true");
    report.Table(
        "Compression headroom: 3x materialized fraction vs plain footprint",
        headroom);
  }
}

}  // namespace lpa

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  lpa::RunQNetworkKernel();
  lpa::RunWorkloadCostKernel();
  lpa::RunStorageKernel();
  lpa::RunEngineKernel();
  return 0;
}
