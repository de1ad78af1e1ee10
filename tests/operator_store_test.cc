#include "osharing/operator_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/baselines.h"
#include "core/workload.h"
#include "osharing/osharing.h"
#include "qsharing/qsharing.h"
#include "reformulation/reformulator.h"
#include "service/query_service.h"
#include "tests/paper_fixture.h"

namespace urm {
namespace osharing {
namespace {

using algebra::CmpOp;
using algebra::MakeProduct;
using algebra::MakeScan;
using algebra::MakeSelect;
using algebra::PlanPtr;
using algebra::Predicate;
using relational::Relation;
using relational::RelationPtr;
using relational::Row;
using relational::Value;

RelationPtr MakeIntRelation(std::vector<int64_t> ints) {
  relational::RelationSchema schema;
  EXPECT_TRUE(schema
                  .AddColumn(relational::ColumnDef{
                      "v", relational::ValueType::kInt64})
                  .ok());
  Relation rel(schema);
  for (int64_t i : ints) EXPECT_TRUE(rel.AddRow(Row{Value(i)}).ok());
  return std::make_shared<const Relation>(std::move(rel));
}

OperatorKey KeyFor(uint64_t op_hash, const void* input = nullptr) {
  OperatorKey key;
  key.catalog = reinterpret_cast<const void*>(0x1);
  key.epoch = 0;
  key.input = input;
  key.op_hash = op_hash;
  return key;
}

TEST(OperatorStoreTest, ComputesOnceThenHits) {
  OperatorStore store;
  std::atomic<int> computes{0};
  auto compute = [&]() -> Result<RelationPtr> {
    computes++;
    return MakeIntRelation({1, 2, 3});
  };
  bool shared = false;
  auto first = store.GetOrCompute(KeyFor(7), "op", nullptr, compute, &shared);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(shared);
  auto second = store.GetOrCompute(KeyFor(7), "op", nullptr, compute, &shared);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(shared);
  // Zero-copy: hits return the identical materialization.
  EXPECT_EQ(first.ValueOrDie().get(), second.ValueOrDie().get());
  EXPECT_EQ(computes.load(), 1);
  OperatorStoreStats stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.bytes_reused, second.ValueOrDie()->ApproxBytes());
}

TEST(OperatorStoreTest, HashCollisionFallsBackToUncachedCompute) {
  OperatorStore store;
  auto a = store.GetOrCompute(KeyFor(7), "op-a", nullptr,
                              [] { return MakeIntRelation({1}); });
  ASSERT_TRUE(a.ok());
  // Same key, different rendering: must not reuse a's result.
  auto b = store.GetOrCompute(KeyFor(7), "op-b", nullptr,
                              [] { return MakeIntRelation({2}); });
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.ValueOrDie()->rows()[0][0], Value(int64_t{2}));
}

TEST(OperatorStoreTest, FailedComputesAreNotCached) {
  OperatorStore store;
  std::atomic<int> computes{0};
  auto failing = [&]() -> Result<RelationPtr> {
    computes++;
    return Status::Internal("boom");
  };
  EXPECT_FALSE(store.GetOrCompute(KeyFor(9), "op", nullptr, failing).ok());
  EXPECT_FALSE(store.GetOrCompute(KeyFor(9), "op", nullptr, failing).ok());
  EXPECT_EQ(computes.load(), 2);  // retried, not served a cached error
  EXPECT_EQ(store.stats().entries, 0u);
}

TEST(OperatorStoreTest, ByteBudgetEvictsLeastRecentlyUsed) {
  OperatorStoreOptions options;
  options.num_shards = 1;  // one shard => deterministic LRU order
  options.max_bytes = 2 * 8;  // two one-int relations (8 bytes each)
  OperatorStore store(options);
  auto insert = [&](uint64_t h) {
    auto r = store.GetOrCompute(KeyFor(h), "op" + std::to_string(h),
                                nullptr, [] { return MakeIntRelation({1}); });
    ASSERT_TRUE(r.ok());
  };
  insert(1);
  insert(2);
  insert(3);  // evicts key 1
  OperatorStoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 16u);
  EXPECT_EQ(stats.evictions, 1u);
  // Key 1 recomputes; key 3 still resident.
  bool shared = true;
  ASSERT_TRUE(store
                  .GetOrCompute(KeyFor(1), "op1", nullptr,
                                [] { return MakeIntRelation({1}); }, &shared)
                  .ok());
  EXPECT_FALSE(shared);
  ASSERT_TRUE(store
                  .GetOrCompute(KeyFor(3), "op3", nullptr,
                                [] { return MakeIntRelation({1}); }, &shared)
                  .ok());
  EXPECT_TRUE(shared);
}

TEST(OperatorStoreTest, OversizedEntryStaysResidentAndServesRepeats) {
  OperatorStoreOptions options;
  options.num_shards = 1;
  options.max_bytes = 8;  // smaller than the 3-int relation below
  OperatorStore store(options);
  auto insert = [&](bool* shared) {
    return store.GetOrCompute(
        KeyFor(1), "op", nullptr,
        [] { return MakeIntRelation({1, 2, 3}); }, shared);
  };
  ASSERT_TRUE(insert(nullptr).ok());
  // The just-inserted entry is never its own eviction victim: it stays
  // (alone) over budget and serves repeats.
  EXPECT_EQ(store.stats().entries, 1u);
  EXPECT_EQ(store.stats().evictions, 0u);
  bool shared = false;
  ASSERT_TRUE(insert(&shared).ok());
  EXPECT_TRUE(shared);
}

TEST(OperatorStoreTest, PinnedInputCountsTowardTheByteBudget) {
  OperatorStoreOptions options;
  options.num_shards = 1;
  OperatorStore store(options);
  auto base = store.GetOrCompute(KeyFor(1), "scan", nullptr, [] {
    return MakeIntRelation({1, 2, 3});
  });
  ASSERT_TRUE(base.ok());
  RelationPtr input = base.ValueOrDie();
  size_t scan_bytes = store.stats().bytes;
  ASSERT_GT(scan_bytes, 0u);
  // A selection entry weighs its result plus the input it pins (the
  // budget bounds retained memory, conservatively counting a shared
  // input per entry — see Entry::bytes).
  auto sel = store.GetOrCompute(KeyFor(2, input.get()), "sel", input, [] {
    return MakeIntRelation({2});
  });
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(store.stats().bytes, scan_bytes +
                                     sel.ValueOrDie()->ApproxBytes() +
                                     input->ApproxBytes());
}

TEST(OperatorStoreTest, FenceEpochIsForwardOnly) {
  OperatorStore store;
  store.FenceEpoch(2);
  OperatorKey key = KeyFor(4);
  key.epoch = 2;
  ASSERT_TRUE(store
                  .GetOrCompute(key, "op", nullptr,
                                [] { return MakeIntRelation({1}); })
                  .ok());
  EXPECT_EQ(store.stats().entries, 1u);
  // A worker that loaded its epoch before the reconfiguration fences
  // late: it must not clear entries valid under the newer epoch.
  store.FenceEpoch(1);
  EXPECT_EQ(store.stats().entries, 1u);
}

TEST(OperatorStoreTest, StaleEpochResultDoesNotRepopulateFencedStore) {
  OperatorStore store;
  store.FenceEpoch(7);  // a reconfiguration has already been fenced
  // An evaluation that began before the reconfiguration still looks up
  // with its old epoch. It must get its result — but must not leave an
  // entry behind: no current-epoch lookup could reach it, and no
  // future FenceEpoch(7) would ever drop it.
  auto r = store.GetOrCompute(KeyFor(3), "op", nullptr,
                              [] { return MakeIntRelation({1}); });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(store.stats().entries, 0u);
}

TEST(OperatorStoreTest, FenceEpochDropsEntries) {
  OperatorStore store;
  ASSERT_TRUE(store
                  .GetOrCompute(KeyFor(5), "op", nullptr,
                                [] { return MakeIntRelation({1}); })
                  .ok());
  EXPECT_EQ(store.stats().entries, 1u);
  store.FenceEpoch(0);  // same epoch: no-op
  EXPECT_EQ(store.stats().entries, 1u);
  store.FenceEpoch(1);
  EXPECT_EQ(store.stats().entries, 0u);
}

TEST(OperatorStoreTest, SingleFlightComputesOnceAcrossThreads) {
  OperatorStore store;
  std::atomic<int> computes{0};
  auto slow_compute = [&]() -> Result<RelationPtr> {
    computes++;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return MakeIntRelation({42});
  };
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<RelationPtr> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto r = store.GetOrCompute(KeyFor(11), "op", nullptr, slow_compute);
      ASSERT_TRUE(r.ok());
      results[t] = r.ValueOrDie();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].get(), results[0].get());
  }
  OperatorStoreStats stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<size_t>(kThreads - 1));
}

// ---------------------------------------------------------------------
// Engine-level sharing and recursive parallelism on the paper fixture.

class StoreEngineTest : public ::testing::Test {
 protected:
  StoreEngineTest() : ex_(urm::testing::MakePaperExample()) {}

  reformulation::TargetQueryInfo Analyze(const PlanPtr& q) {
    auto info = reformulation::AnalyzeTargetQuery(q, ex_.target_schema);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    return info.ValueOrDie();
  }

  /// (σ_addr='hk' σ_phone='123' Person) × Order — the paper's Fig. 5
  /// query: three operators over the five skewed mappings
  /// (.3/.2/.2/.2/.1) give a multi-level, uneven partition tree.
  PlanPtr Q2Paper() {
    PlanPtr person = MakeScan("Person", "person");
    person = MakeSelect(
        person, Predicate::AttrCmpValue("person.phone", CmpOp::kEq, "123"));
    person = MakeSelect(
        person, Predicate::AttrCmpValue("person.addr", CmpOp::kEq, "hk"));
    return MakeProduct(person, MakeScan("Order", "order"));
  }

  urm::testing::PaperExample ex_;
};

/// Records the exact leaf sequence (row values + probabilities in
/// visit order) for bit-identity comparisons.
class RecordingVisitor : public LeafVisitor {
 public:
  struct Leaf {
    std::vector<Row> rows;
    double probability = 0.0;
  };

  bool OnLeaf(const algebra::DistinctCover& cover,
              double probability) override {
    Leaf leaf{{}, probability};
    cover.AppendRows(&leaf.rows);
    leaves.push_back(std::move(leaf));
    return true;
  }

  std::vector<Leaf> leaves;
};

void ExpectIdenticalLeafSequences(const std::vector<RecordingVisitor::Leaf>& a,
                                  const std::vector<RecordingVisitor::Leaf>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Bit-identical: exact double equality on the partition mass and
    // value equality on every row, in the same order.
    EXPECT_EQ(a[i].probability, b[i].probability) << "leaf " << i;
    ASSERT_EQ(a[i].rows.size(), b[i].rows.size()) << "leaf " << i;
    for (size_t r = 0; r < a[i].rows.size(); ++r) {
      EXPECT_TRUE(relational::RowsEqual(a[i].rows[r], b[i].rows[r]))
          << "leaf " << i << " row " << r;
    }
  }
}

TEST_F(StoreEngineTest, RecursiveParallelLeafSequenceBitIdentical) {
  auto info = Analyze(Q2Paper());
  ThreadPool pool(4);
  for (StrategyKind strategy : {StrategyKind::kSEF, StrategyKind::kSNF}) {
    OSharingOptions sequential;
    sequential.strategy = strategy;
    RecordingVisitor seq_leaves;
    {
      auto tree = qsharing::PartitionTree::Build(info, ex_.mappings);
      ASSERT_TRUE(tree.ok());
      double unanswerable = 0.0;
      auto reps = qsharing::Represent(tree.ValueOrDie(), &unanswerable);
      OSharingEngine engine(info, ex_.catalog, sequential);
      ASSERT_TRUE(engine.Init().ok());
      ASSERT_TRUE(engine.Run(reps, &seq_leaves).ok());
    }

    // Recursive fan-out forced at every multi-partition node.
    OSharingOptions parallel = sequential;
    parallel.parallelism = 4;
    parallel.pool = &pool;
    parallel.max_parallel_depth = 8;
    parallel.parallel_grain = 1;
    RecordingVisitor par_leaves;
    size_t seq_count = 0;
    {
      auto tree = qsharing::PartitionTree::Build(info, ex_.mappings);
      ASSERT_TRUE(tree.ok());
      double unanswerable = 0.0;
      auto reps = qsharing::Represent(tree.ValueOrDie(), &unanswerable);
      OSharingEngine engine(info, ex_.catalog, parallel);
      ASSERT_TRUE(engine.Init().ok());
      ASSERT_TRUE(engine.RunParallel(reps, &par_leaves, &pool).ok());
      seq_count = engine.leaves_visited();
    }
    ASSERT_GT(seq_leaves.leaves.size(), 1u) << StrategyName(strategy);
    ExpectIdenticalLeafSequences(seq_leaves.leaves, par_leaves.leaves);
    EXPECT_EQ(seq_count, seq_leaves.leaves.size()) << StrategyName(strategy);
  }
}

TEST_F(StoreEngineTest, SharedStoreDoesNotChangeAnswersAndRecordsHits) {
  auto info = Analyze(Q2Paper());
  OperatorStore store;

  OSharingOptions without;
  auto baseline = RunOSharing(info, ex_.mappings, ex_.catalog, without);
  ASSERT_TRUE(baseline.ok());

  OSharingOptions with;
  with.store = &store;
  auto first = RunOSharing(info, ex_.mappings, ex_.catalog, with);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(baseline.ValueOrDie().answers.ApproxEquals(
      first.ValueOrDie().answers));

  // A second evaluation over the same store reuses its
  // materializations: cross-query o-sharing.
  auto second = RunOSharing(info, ex_.mappings, ex_.catalog, with);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(baseline.ValueOrDie().answers.ApproxEquals(
      second.ValueOrDie().answers));
  EXPECT_GT(second.ValueOrDie().stats.store_hits, 0u);
  EXPECT_GT(store.stats().hits, 0u);
}

TEST_F(StoreEngineTest, SelectionOverFusedJoinPinsOnlyTheReadColumns) {
  // Both mappings agree on the join (pname = cid, sname = ocid) and on
  // addr, but match phone to ophone and hphone. SEF runs the product,
  // then the join (one partition), then the phone filter (two) over
  // the fused factor: each filter's store entry pins that factor. It
  // keeps only what the branch reads, ophone, hphone and oaddr, where
  // a full-width fusion would keep all eleven columns.
  auto mapping = [](const std::string& phone) {
    mapping::Mapping m;
    EXPECT_TRUE(m.Add("Person.pname", "customer.cid").ok());
    EXPECT_TRUE(m.Add("Person.phone", phone).ok());
    EXPECT_TRUE(m.Add("Person.addr", "customer.oaddr").ok());
    EXPECT_TRUE(m.Add("Order.sname", "c_order.ocid").ok());
    m.set_probability(0.5);
    return m;
  };
  const std::vector<mapping::Mapping> mappings = {
      mapping("customer.ophone"), mapping("customer.hphone")};
  PlanPtr q = MakeSelect(
      MakeProduct(MakeScan("Person", "person"), MakeScan("Order", "order")),
      Predicate::AttrCmpAttr("person.pname", CmpOp::kEq, "order.sname"));
  q = MakeSelect(q, Predicate::AttrCmpValue("person.phone", CmpOp::kEq,
                                            "789"));
  auto info = Analyze(algebra::MakeProject(q, {"person.addr"}));

  OperatorStore store;
  OSharingOptions options;
  options.strategy = StrategyKind::kSEF;
  options.store = &store;
  auto result = RunOSharing(info, mappings, ex_.catalog, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  reformulation::Reformulator reformulator(ex_.source_schema);
  auto basic = baselines::RunBasic(info, baselines::AsWeighted(mappings),
                                   ex_.catalog, reformulator);
  ASSERT_TRUE(basic.ok()) << basic.status().ToString();
  EXPECT_TRUE(basic.ValueOrDie().answers.ApproxEquals(
      result.ValueOrDie().answers));

  // The same entries at full width: two scans (result plus pinned base
  // relation) and the two filters over the full fused join.
  auto eval = [&](const PlanPtr& plan) {
    auto rel = algebra::Evaluate(plan, ex_.catalog);
    EXPECT_TRUE(rel.ok()) << rel.status().ToString();
    return std::move(rel).ValueOrDie();
  };
  RelationPtr customer = eval(MakeScan("customer", "person$customer"));
  RelationPtr c_order = eval(MakeScan("c_order", "order$c_order"));
  RelationPtr fused = eval(MakeSelect(
      MakeProduct(algebra::MakeRelationLeaf(customer, "l"),
                  algebra::MakeRelationLeaf(c_order, "r")),
      Predicate::AttrCmpAttr("person$customer.cid", CmpOp::kEq,
                             "order$c_order.ocid")));
  ASSERT_EQ(fused->schema().num_columns(), 11u);
  const size_t scans = 2 * (customer->ApproxBytes() + c_order->ApproxBytes());
  size_t full_width = scans;
  for (const char* phone :
       {"person$customer.ophone", "person$customer.hphone"}) {
    RelationPtr filtered = eval(MakeSelect(
        algebra::MakeRelationLeaf(fused, "f"),
        Predicate::AttrCmpValue(phone, CmpOp::kEq, "789")));
    full_width += fused->ApproxBytes() + filtered->ApproxBytes();
  }
  ASSERT_EQ(store.stats().entries, 4u);
  ASSERT_GT(store.stats().bytes, scans);
  // Three of the eleven columns survive, so the filter entries weigh
  // well under half their full-width bytes.
  EXPECT_LT(2 * (store.stats().bytes - scans), full_width - scans);
}

TEST_F(StoreEngineTest, ScopedStoreSharesAtReconfiguredEpoch) {
  auto info = Analyze(Q2Paper());
  ThreadPool pool(4);
  OSharingOptions options;
  options.parallelism = 4;
  options.pool = &pool;
  options.max_parallel_depth = 8;
  options.parallel_grain = 1;
  // As after a UseTopMappings reconfiguration: keys carry a nonzero
  // epoch, ahead of the fresh evaluation-scoped store's fence (0).
  // Ahead-of-fence insertions must be kept, or sibling branches would
  // silently stop sharing after any reconfiguration.
  options.store_epoch = 3;
  auto result = RunOSharing(info, ex_.mappings, ex_.catalog, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.ValueOrDie().stats.store_hits, 0u);
}

// ---------------------------------------------------------------------
// Service-level concurrent sharing (the TSan-covered scenario): N
// identical + M overlapping queries over one QueryService share store
// entries and still produce exactly the engine's answers.

core::Engine* SharedServiceEngine() {
  static std::unique_ptr<core::Engine> engine = [] {
    core::Engine::Options options;
    options.target_mb = 0.1;
    options.num_mappings = 12;
    options.target_schema = datagen::TargetSchemaId::kExcel;
    auto created = core::Engine::Create(options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    return std::move(created).ValueOrDie();
  }();
  return engine.get();
}

TEST(OperatorStoreServiceTest, ConcurrentQueriesShareStoreWithCorrectResults) {
  core::Engine* engine = SharedServiceEngine();
  service::ServiceOptions options;
  options.num_threads = 4;
  options.cache_capacity = 0;  // force evaluation: sharing must come
                               // from the operator store, not the
                               // answer cache
  service::QueryService service(engine, options);

  // M overlapping queries (selection chains share scan + prefix
  // selections, plus two workload queries) and N identical repeats.
  std::vector<core::Request> distinct;
  for (int n = 1; n <= 4; ++n) {
    distinct.push_back(core::Request::MethodEval(
        core::SelectionChainQuery(n), core::Method::kOSharing));
  }
  distinct.push_back(core::Request::MethodEval(core::QueryById("Q1").query,
                                               core::Method::kOSharing));
  distinct.push_back(core::Request::MethodEval(core::QueryById("Q2").query,
                                               core::Method::kOSharing));

  // Reference answers from plain engine runs (no store involved).
  std::vector<reformulation::AnswerSet> expected;
  for (const auto& request : distinct) {
    auto direct = engine->Evaluate(request.query, core::Method::kOSharing);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    expected.push_back(direct.ValueOrDie().answers);
  }

  // Two concurrent waves: every query of wave two repeats wave one
  // (identical requests), so wave two must hit the store heavily.
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::future<service::QueryResponse>> futures;
    for (const auto& request : distinct) {
      futures.push_back(service.SubmitAsync(request));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      auto response = futures[i].get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ASSERT_NE(response.result, nullptr);
      EXPECT_TRUE(expected[i].ApproxEquals(response.result->answers))
          << "wave " << wave << " request " << i << "\nexpected:\n"
          << expected[i].ToString() << "got:\n"
          << response.result->answers.ToString();
    }
  }

  osharing::OperatorStoreStats stats = service.operator_store_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.entries, 0u);
}

TEST(OperatorStoreServiceTest, StoreSurvivesReconfigurationFence) {
  core::Engine::Options engine_options;
  engine_options.target_mb = 0.05;
  engine_options.num_mappings = 8;
  auto owned = core::Engine::Create(engine_options);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  core::Engine* engine = owned.ValueOrDie().get();

  service::ServiceOptions options;
  options.num_threads = 0;
  options.cache_capacity = 0;
  service::QueryService service(engine, options);
  auto request = core::Request::MethodEval(core::QueryById("Q1").query,
                                           core::Method::kOSharing);
  ASSERT_TRUE(service.Submit(request).status.ok());
  EXPECT_GT(service.operator_store_stats().entries, 0u);

  engine->UseTopMappings(4);  // stop-the-world reconfiguration
  auto after = service.Submit(request);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  // The fence dropped pre-reconfiguration materializations, and the
  // answers still match a plain evaluation of the reconfigured engine.
  auto direct = engine->Evaluate(request.query, core::Method::kOSharing);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct.ValueOrDie().answers.ApproxEquals(
      after.result->answers));
}

}  // namespace
}  // namespace osharing
}  // namespace urm
