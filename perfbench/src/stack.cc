#include "stack.h"

#include <utility>

#include "datagen/target_schemas.h"
#include "datagen/tpch.h"
#include "mapping/generator.h"
#include "matching/matcher.h"

namespace perfbench {

using urm::datagen::TargetSchemaId;

const std::array<TargetSchemaId, kSchemas>& Schemas() {
  static const std::array<TargetSchemaId, kSchemas> kAll = {
      TargetSchemaId::kExcel, TargetSchemaId::kNoris,
      TargetSchemaId::kParagon};
  return kAll;
}

size_t SchemaIndex(TargetSchemaId id) {
  for (size_t i = 0; i < kSchemas; ++i) {
    if (Schemas()[i] == id) return i;
  }
  return 0;
}

namespace {

/// The three component calls Engine::Create makes, made again from
/// outside under one span each (traced runs only).
urm::Status TraceComponents(TargetSchemaId schema, Tracer* tracer,
                            int64_t parent) {
  int64_t t0 = NowNs();
  urm::datagen::TpchOptions tpch;
  tpch.target_mb = kDataMb;
  tpch.seed = kDataSeed;
  auto catalog = urm::datagen::GenerateTpch(tpch);
  if (!catalog.ok()) return catalog.status();
  int64_t t1 = NowNs();
  tracer->Add("datagen.generate", -1, parent, t0, t1);

  urm::datagen::TargetSchemaBundle bundle =
      urm::datagen::GetTargetSchema(schema);
  urm::matching::MatcherOptions matcher_options;
  matcher_options.threshold = urm::core::Engine::Options().matcher_threshold;
  urm::matching::NameMatcher matcher(
      urm::matching::SynonymDictionary::Default(), matcher_options);
  auto correspondences = matcher.Match(urm::datagen::TpchSchema(),
                                       bundle.schema, bundle.seeds);
  int64_t t2 = NowNs();
  tracer->Add("matching.match", -1, parent, t1, t2);

  urm::mapping::MappingGenOptions gen;
  gen.h = kMappings;
  auto mappings = urm::mapping::GenerateMappings(correspondences, gen);
  if (!mappings.ok()) return mappings.status();
  tracer->Add("mapping.generate", -1, parent, t2, NowNs());
  return urm::Status::OK();
}

}  // namespace

urm::Result<Engines> BuildEngines(Tracer* tracer) {
  Engines engines;
  for (size_t i = 0; i < kSchemas; ++i) {
    urm::core::Engine::Options options;
    options.target_mb = kDataMb;
    options.num_mappings = kMappings;
    options.seed = kDataSeed;
    options.target_schema = Schemas()[i];
    int64_t t0 = NowNs();
    auto engine = urm::core::Engine::Create(options);
    if (!engine.ok()) return engine.status();
    engines[i] = std::move(engine).ValueOrDie();
    int64_t t1 = NowNs();
    if (tracer->enabled()) {
      const std::string schema =
          urm::datagen::TargetSchemaName(Schemas()[i]);
      tracer->Add("setup.engine_create." + schema, -1, -1, t0, t1);
      int64_t parent =
          tracer->Add("setup.components." + schema, -1, -1, t1, t1);
      urm::Status traced = TraceComponents(Schemas()[i], tracer, parent);
      if (!traced.ok()) return traced;
      tracer->Close(parent, NowNs());
    }
  }
  return engines;
}

BenchHub::BenchHub(const Engines& engines, urm::obs::Registry* registry) {
  for (size_t i = 0; i < kSchemas; ++i) {
    // urm_server's defaults: 4 pool threads, 256 entries / 64 MB of
    // answer cache, a 256 MB operator store, no intra-query parallelism,
    // no sharding, metrics on.
    urm::service::ServiceOptions options;
    options.metrics_registry = registry;
    options.metric_labels = {
        {"schema", urm::datagen::TargetSchemaName(Schemas()[i])}};
    services_[i] = std::make_unique<urm::service::QueryService>(
        engines[i].get(), options);
    urm::live::IngestOptions ingest_options;
    ingest_options.metrics_registry = registry;
    ingest_options.metric_labels = options.metric_labels;
    ingest_[i] = std::make_unique<urm::live::IngestController>(
        engines[i].get(), services_[i].get(), ingest_options);
  }
}

namespace {
/// Set by IngestFor on the loop thread: the ingest handler resolves the
/// service right after the controller, and that ForSchema belongs to
/// the ingest, not to a query.
thread_local bool resolving_ingest = false;
}  // namespace

urm::service::QueryService* BenchHub::ForSchema(TargetSchemaId schema) {
  if (resolving_ingest) {
    resolving_ingest = false;
  } else {
    int64_t t = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    if (recording_) events_.push_back({t, false});
  }
  return services_[SchemaIndex(schema)].get();
}

void BenchHub::VisitServices(
    const std::function<void(TargetSchemaId, urm::service::QueryService*)>&
        fn) {
  for (size_t i = 0; i < kSchemas; ++i) fn(Schemas()[i], services_[i].get());
}

urm::live::IngestController* BenchHub::IngestFor(TargetSchemaId schema) {
  int64_t t = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (recording_) events_.push_back({t, true});
  }
  resolving_ingest = true;
  return ingest_[SchemaIndex(schema)].get();
}

void BenchHub::set_recording(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  recording_ = on;
}

std::vector<HubEvent> BenchHub::TakeEvents() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(events_);
}

ServingCounters ReadCounters(BenchHub* hub) {
  ServingCounters out;
  for (size_t i = 0; i < kSchemas; ++i) {
    urm::service::QueryService* svc = hub->service(i);
    urm::service::CacheStats cache = svc->cache_stats();
    out.cache.hits += cache.hits;
    out.cache.misses += cache.misses;
    out.cache.evictions += cache.evictions;
    out.cache.bytes += cache.bytes;
    urm::osharing::OperatorStoreStats store = svc->operator_store_stats();
    out.store.hits += store.hits;
    out.store.misses += store.misses;
    out.store.evictions += store.evictions;
    out.store.bytes += store.bytes;
    out.pool_tasks += svc->pool_stats().tasks_executed;
    urm::service::QueryService::StorageScanStats scans =
        svc->storage_scan_stats();
    out.scans.bytes_scanned += scans.bytes_scanned;
    out.scans.logical_bytes_scanned += scans.logical_bytes_scanned;
    out.scans.columnar_scans += scans.columnar_scans;
    out.scans.row_scans += scans.row_scans;
    urm::live::IngestStats ingest = hub->ingest(i)->stats();
    out.ingest.batches += ingest.batches;
    out.ingest.rows_inserted += ingest.rows_inserted;
    out.ingest.rows_deleted += ingest.rows_deleted;
    out.ingest.fenced_answers += ingest.fenced_answers;
    out.ingest.fenced_operators += ingest.fenced_operators;
  }
  return out;
}

urm::Result<std::unique_ptr<ServingStack>> StartServing(Engines engines) {
  auto stack = std::make_unique<ServingStack>();
  stack->engines = std::move(engines);
  stack->hub = std::make_unique<BenchHub>(stack->engines, &stack->registry);
  urm::net::ServerOptions options;
  options.listener.port = 0;
  options.dosguard.requests_per_second = 0.0;
  options.metrics_registry = &stack->registry;
  stack->server = std::make_unique<urm::net::HttpServer>(options);
  urm::net::api::ApiOptions api_options;
  api_options.metrics_registry = &stack->registry;
  urm::net::api::RegisterRoutes(stack->server.get(), stack->hub.get(),
                                api_options);
  urm::Status started = stack->server->Start();
  if (!started.ok()) return started;
  return stack;
}

std::vector<urm::relational::Row> IngestRows(uint64_t seed) {
  std::vector<urm::relational::Row> rows;
  for (int64_t i = 0; i < 8; ++i) {
    // Fractions of a power of two keep every double exact through the
    // JSON round trip, so a delete matches the inserted image.
    int64_t salt = static_cast<int64_t>((seed * 31 + i * 7) % 997);
    rows.push_back({"perfbench-o" + std::to_string(seed) + "-" +
                        std::to_string(i),
                    "perfbench-p" + std::to_string(salt),
                    "perfbench-s" + std::to_string(i), int64_t{1 + i % 7},
                    int64_t{1 + salt % 50}, 1000.0 + salt + 0.25,
                    0.0625, 0.03125, "N", "O", "1995-06-17"});
  }
  return rows;
}

urm::relational::DeltaBatch IngestBatch(
    const std::vector<urm::relational::Row>& rows, bool insert) {
  urm::relational::DeltaBatch batch;
  for (const urm::relational::Row& row : rows) {
    urm::relational::DeltaOp op;
    op.kind = insert ? urm::relational::DeltaOpKind::kInsert
                     : urm::relational::DeltaOpKind::kDelete;
    op.relation = "lineitem";
    op.row = row;
    batch.ops.push_back(std::move(op));
  }
  return batch;
}

std::string IngestBody(const std::vector<urm::relational::Row>& rows,
                       bool insert) {
  urm::json::Value ops = urm::json::Value::Array();
  for (const urm::relational::Row& row : rows) {
    urm::json::Value op = urm::json::Value::Object();
    op.Set("op", urm::json::Value::Str(insert ? "insert" : "delete"));
    op.Set("relation", urm::json::Value::Str("lineitem"));
    op.Set("row", urm::net::api::RowToJson(row));
    ops.Append(std::move(op));
  }
  urm::json::Value root = urm::json::Value::Object();
  root.Set("version", urm::json::Value::Int(1));
  root.Set("schema", urm::json::Value::Str("Excel"));
  root.Set("ops", std::move(ops));
  return root.Serialize();
}

}  // namespace perfbench
