#include "net/api.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "core/workload.h"
#include "live/ingest.h"
#include "net/http.h"
#include "reformulation/answer.h"

namespace urm {
namespace net {
namespace api {

namespace {

/// The paper workload, resolved once: Q1..Q10 with their target
/// schemas. Plans are immutable shared_ptrs, safe to hand to
/// concurrent evaluations.
const std::vector<core::WorkloadQuery>& Workload() {
  static const std::vector<core::WorkloadQuery>* workload =
      new std::vector<core::WorkloadQuery>(core::PaperWorkload());
  return *workload;
}

const core::WorkloadQuery* FindQuery(const std::string& id) {
  for (const core::WorkloadQuery& q : Workload()) {
    if (q.id == id) return &q;
  }
  return nullptr;
}

bool Fail(ApiError* error, int http_status, std::string code,
          std::string message) {
  error->http_status = http_status;
  error->code = std::move(code);
  error->message = std::move(message);
  return false;
}

bool ParseMethod(const std::string& name, core::Method* out) {
  static const core::Method kAll[] = {
      core::Method::kBasic, core::Method::kEBasic, core::Method::kEMqo,
      core::Method::kQSharing, core::Method::kOSharing};
  for (core::Method m : kAll) {
    if (http::EqualsIgnoreCase(name, core::MethodName(m))) {
      *out = m;
      return true;
    }
  }
  return false;
}

bool ParseSetOp(const std::string& name, core::SetOpKind* out) {
  static const core::SetOpKind kAll[] = {core::SetOpKind::kUnion,
                                         core::SetOpKind::kIntersect,
                                         core::SetOpKind::kExcept};
  for (core::SetOpKind op : kAll) {
    if (http::EqualsIgnoreCase(name, core::SetOpName(op))) {
      *out = op;
      return true;
    }
  }
  return false;
}

/// Member as a string, or nullptr when absent / not a string.
const std::string* FindString(const json::Value& object,
                              std::string_view key) {
  const json::Value* v = object.Find(key);
  if (v == nullptr || !v->is_string()) return nullptr;
  return &v->AsString();
}

bool ParseTargetSchema(const std::string& name,
                       datagen::TargetSchemaId* out) {
  for (datagen::TargetSchemaId id : datagen::AllTargetSchemas()) {
    if (http::EqualsIgnoreCase(name, datagen::TargetSchemaName(id))) {
      *out = id;
      return true;
    }
  }
  return false;
}

/// One JSON row cell onto a relational value. Numbers map to Int64
/// when integral, Double otherwise; booleans have no relational type.
bool ParseCell(const json::Value& cell, relational::Value* out) {
  if (cell.is_null()) {
    *out = relational::Value::Null();
    return true;
  }
  if (cell.is_string()) {
    *out = relational::Value(cell.AsString());
    return true;
  }
  if (cell.is_number()) {
    *out = cell.is_integral() ? relational::Value(cell.AsInt64())
                              : relational::Value(cell.AsDouble());
    return true;
  }
  return false;
}

bool ParseDeltaRow(const json::Value& row_json, relational::Row* out) {
  if (!row_json.is_array()) return false;
  out->clear();
  out->reserve(row_json.AsArray().size());
  for (const json::Value& cell : row_json.AsArray()) {
    relational::Value value;
    if (!ParseCell(cell, &value)) return false;
    out->push_back(std::move(value));
  }
  return true;
}

json::Value CellToJson(const relational::Value& cell) {
  switch (cell.type()) {
    case relational::ValueType::kNull:
      return json::Value::Null();
    case relational::ValueType::kInt64:
      return json::Value::Int(cell.AsInt64());
    case relational::ValueType::kDouble:
      return json::Value::Number(cell.AsDouble());
    case relational::ValueType::kString:
      return json::Value::Str(cell.AsString());
  }
  return json::Value::Null();
}

json::Value EvaluateResultJson(const baselines::MethodResult& result,
                               size_t max_rows) {
  json::Value out = json::Value::Object();
  json::Value columns = json::Value::Array();
  for (const std::string& name : result.answers.column_names()) {
    columns.Append(json::Value::Str(name));
  }
  out.Set("columns", std::move(columns));
  const auto& tuples = result.answers.tuples();
  json::Value rows = json::Value::Array();
  size_t emitted = 0;
  for (const auto& tuple : tuples) {
    if (emitted >= max_rows) break;
    json::Value row = json::Value::Object();
    row.Set("values", RowToJson(tuple.values));
    row.Set("probability", json::Value::Number(tuple.probability));
    rows.Append(std::move(row));
    ++emitted;
  }
  out.Set("tuples", std::move(rows));
  out.Set("row_count", json::Value::Int(static_cast<int64_t>(tuples.size())));
  if (emitted < tuples.size()) out.Set("truncated", json::Value::Bool(true));
  out.Set("null_probability",
          json::Value::Number(result.answers.null_probability()));
  out.Set("total_seconds", json::Value::Number(result.TotalSeconds()));
  out.Set("source_queries",
          json::Value::Int(static_cast<int64_t>(result.source_queries)));
  out.Set("partitions",
          json::Value::Int(static_cast<int64_t>(result.partitions)));
  return out;
}

template <typename Entries>
json::Value BoundedTuplesJson(const Entries& entries, size_t max_rows,
                              size_t* emitted) {
  json::Value rows = json::Value::Array();
  *emitted = 0;
  for (const auto& entry : entries) {
    if (*emitted >= max_rows) break;
    json::Value row = json::Value::Object();
    row.Set("values", RowToJson(entry.values));
    row.Set("lower_bound", json::Value::Number(entry.lower_bound));
    row.Set("upper_bound", json::Value::Number(entry.upper_bound));
    rows.Append(std::move(row));
    ++(*emitted);
  }
  return rows;
}

json::Value TopKResultJson(const topk::TopKResult& result, size_t max_rows) {
  json::Value out = json::Value::Object();
  size_t emitted = 0;
  out.Set("tuples", BoundedTuplesJson(result.tuples, max_rows, &emitted));
  out.Set("row_count",
          json::Value::Int(static_cast<int64_t>(result.tuples.size())));
  if (emitted < result.tuples.size()) {
    out.Set("truncated", json::Value::Bool(true));
  }
  out.Set("early_terminated", json::Value::Bool(result.early_terminated));
  out.Set("leaves_visited",
          json::Value::Int(static_cast<int64_t>(result.leaves_visited)));
  out.Set("seconds", json::Value::Number(result.seconds));
  return out;
}

json::Value ThresholdResultJson(const topk::ThresholdResult& result,
                                size_t max_rows) {
  json::Value out = json::Value::Object();
  size_t emitted = 0;
  out.Set("tuples", BoundedTuplesJson(result.tuples, max_rows, &emitted));
  out.Set("row_count",
          json::Value::Int(static_cast<int64_t>(result.tuples.size())));
  if (emitted < result.tuples.size()) {
    out.Set("truncated", json::Value::Bool(true));
  }
  out.Set("early_terminated", json::Value::Bool(result.early_terminated));
  out.Set("leaves_visited",
          json::Value::Int(static_cast<int64_t>(result.leaves_visited)));
  out.Set("seconds", json::Value::Number(result.seconds));
  return out;
}

std::string WsErrorFrame(std::string_view code, std::string_view message) {
  json::Value error = json::Value::Object();
  error.Set("code", json::Value::Str(std::string(code)));
  error.Set("message", json::Value::Str(std::string(message)));
  json::Value root = json::Value::Object();
  root.Set("type", json::Value::Str("error"));
  root.Set("error", std::move(error));
  return root.Serialize();
}

/// Streams u-trace leaves onto the WebSocket as {"type":"leaf"}
/// frames. Runs on the evaluating thread; unsubscribes (returns false)
/// once the session closes so an abandoned stream stops paying the
/// serialization cost.
class StreamSink : public core::AnswerSink {
 public:
  explicit StreamSink(std::shared_ptr<WsSession> session)
      : session_(std::move(session)) {}

  bool OnAnswer(const std::vector<relational::Row>& rows,
                double probability) override {
    if (session_->closed()) return false;
    json::Value frame = json::Value::Object();
    frame.Set("type", json::Value::Str("leaf"));
    frame.Set("seq", json::Value::Int(static_cast<int64_t>(seq_)));
    frame.Set("probability", json::Value::Number(probability));
    json::Value rows_json = json::Value::Array();
    for (const relational::Row& row : rows) rows_json.Append(RowToJson(row));
    frame.Set("rows", std::move(rows_json));
    session_->SendText(frame.Serialize());
    ++seq_;
    return true;
  }

  size_t leaves() const { return seq_; }

 private:
  std::shared_ptr<WsSession> session_;
  size_t seq_ = 0;
};

json::Value StatsJson(HttpServer* server, ServiceHub* hub) {
  json::Value root = json::Value::Object();

  ServerStats server_stats = server->stats();
  json::Value srv = json::Value::Object();
  srv.Set("open_connections",
          json::Value::Int(static_cast<int64_t>(server_stats.open_connections)));
  srv.Set("pending_requests",
          json::Value::Int(static_cast<int64_t>(server_stats.pending_requests)));
  srv.Set("requests_started",
          json::Value::Int(static_cast<int64_t>(server_stats.requests_started)));
  srv.Set("ws_messages_received",
          json::Value::Int(
              static_cast<int64_t>(server_stats.ws_messages_received)));
  srv.Set("ws_frames_sent",
          json::Value::Int(static_cast<int64_t>(server_stats.ws_frames_sent)));
  srv.Set("bytes_read",
          json::Value::Int(static_cast<int64_t>(server_stats.bytes_read)));
  srv.Set("bytes_written",
          json::Value::Int(static_cast<int64_t>(server_stats.bytes_written)));
  root.Set("server", std::move(srv));

  DosGuardStats guard = server->dosguard_stats();
  json::Value guard_json = json::Value::Object();
  guard_json.Set("connections_admitted",
                 json::Value::Int(static_cast<int64_t>(guard.connections_admitted)));
  guard_json.Set("connections_rejected",
                 json::Value::Int(static_cast<int64_t>(guard.connections_rejected)));
  guard_json.Set("requests_admitted",
                 json::Value::Int(static_cast<int64_t>(guard.requests_admitted)));
  guard_json.Set("requests_rejected",
                 json::Value::Int(static_cast<int64_t>(guard.requests_rejected)));
  guard_json.Set("tracked_clients",
                 json::Value::Int(static_cast<int64_t>(guard.tracked_clients)));
  root.Set("dosguard", std::move(guard_json));

  // Two phases: per-service blocks are built under VisitServices (hubs
  // hold their registry lock across the visit), then the ingest blocks
  // are attached via IngestFor AFTER the visit returns — IngestFor
  // takes the same hub lock, so calling it from inside the visit
  // callback would self-deadlock.
  std::vector<std::pair<datagen::TargetSchemaId, json::Value>> entries;
  hub->VisitServices([&entries](datagen::TargetSchemaId id,
                                service::QueryService* svc) {
    json::Value entry = json::Value::Object();
    entry.Set("schema", json::Value::Str(datagen::TargetSchemaName(id)));
    service::CacheStats cache = svc->cache_stats();
    json::Value cache_json = json::Value::Object();
    cache_json.Set("hits", json::Value::Int(static_cast<int64_t>(cache.hits)));
    cache_json.Set("misses",
                   json::Value::Int(static_cast<int64_t>(cache.misses)));
    cache_json.Set("entries",
                   json::Value::Int(static_cast<int64_t>(cache.entries)));
    cache_json.Set("bytes", json::Value::Int(static_cast<int64_t>(cache.bytes)));
    entry.Set("cache", std::move(cache_json));
    PoolStats pool = svc->pool_stats();
    json::Value pool_json = json::Value::Object();
    pool_json.Set("threads",
                  json::Value::Int(static_cast<int64_t>(pool.threads)));
    pool_json.Set("queue_depth",
                  json::Value::Int(static_cast<int64_t>(pool.queue_depth)));
    pool_json.Set("tasks_executed",
                  json::Value::Int(static_cast<int64_t>(pool.tasks_executed)));
    entry.Set("pool", std::move(pool_json));
    osharing::OperatorStoreStats store = svc->operator_store_stats();
    json::Value store_json = json::Value::Object();
    store_json.Set("hits", json::Value::Int(static_cast<int64_t>(store.hits)));
    store_json.Set("misses",
                   json::Value::Int(static_cast<int64_t>(store.misses)));
    store_json.Set("bytes_reused",
                   json::Value::Int(static_cast<int64_t>(store.bytes_reused)));
    entry.Set("operator_store", std::move(store_json));
    // Compressed-storage footprint of the schema's catalog plus the
    // service's scan-byte accounting (see docs/STORAGE.md and the
    // docs/TUNING.md glossary).
    relational::Catalog::StorageStats storage =
        svc->engine().catalog().Storage();
    service::QueryService::StorageScanStats scans =
        svc->storage_scan_stats();
    json::Value storage_json = json::Value::Object();
    storage_json.Set(
        "encoded_bytes",
        json::Value::Int(static_cast<int64_t>(storage.encoded_bytes)));
    storage_json.Set(
        "logical_bytes",
        json::Value::Int(static_cast<int64_t>(storage.logical_bytes)));
    storage_json.Set(
        "compression_ratio",
        json::Value::Number(
            storage.encoded_bytes > 0
                ? static_cast<double>(storage.logical_bytes) /
                      static_cast<double>(storage.encoded_bytes)
                : 1.0));
    storage_json.Set(
        "bytes_scanned",
        json::Value::Int(static_cast<int64_t>(scans.bytes_scanned)));
    storage_json.Set("logical_bytes_scanned",
                     json::Value::Int(static_cast<int64_t>(
                         scans.logical_bytes_scanned)));
    storage_json.Set(
        "columnar_scans",
        json::Value::Int(static_cast<int64_t>(scans.columnar_scans)));
    storage_json.Set(
        "row_scans",
        json::Value::Int(static_cast<int64_t>(scans.row_scans)));
    entry.Set("storage", std::move(storage_json));
    entries.emplace_back(id, std::move(entry));
  });
  json::Value schemas = json::Value::Array();
  for (auto& [id, entry] : entries) {
    // Live-update accounting, when this hub serves ingest (see
    // docs/LIVE.md).
    if (live::IngestController* ingest = hub->IngestFor(id)) {
      live::IngestStats in = ingest->stats();
      json::Value ingest_json = json::Value::Object();
      ingest_json.Set("batches",
                      json::Value::Int(static_cast<int64_t>(in.batches)));
      ingest_json.Set(
          "rejected_batches",
          json::Value::Int(static_cast<int64_t>(in.rejected_batches)));
      ingest_json.Set(
          "rows_inserted",
          json::Value::Int(static_cast<int64_t>(in.rows_inserted)));
      ingest_json.Set(
          "rows_updated",
          json::Value::Int(static_cast<int64_t>(in.rows_updated)));
      ingest_json.Set(
          "rows_deleted",
          json::Value::Int(static_cast<int64_t>(in.rows_deleted)));
      ingest_json.Set(
          "fenced_answers",
          json::Value::Int(static_cast<int64_t>(in.fenced_answers)));
      ingest_json.Set(
          "fenced_operators",
          json::Value::Int(static_cast<int64_t>(in.fenced_operators)));
      ingest_json.Set(
          "reconfigurations",
          json::Value::Int(static_cast<int64_t>(in.reconfigurations)));
      ingest_json.Set("data_epoch",
                      json::Value::Int(static_cast<int64_t>(in.data_epoch)));
      entry.Set("ingest", std::move(ingest_json));
    }
    schemas.Append(std::move(entry));
  }
  root.Set("schemas", std::move(schemas));
  return root;
}

}  // namespace

json::Value RowToJson(const relational::Row& row) {
  json::Value out = json::Value::Array();
  for (const relational::Value& cell : row) out.Append(CellToJson(cell));
  return out;
}

bool ParseQueryBody(const std::string& body, ParsedQuery* out,
                    ApiError* error) {
  Result<json::Value> parsed = json::Parse(body);
  if (!parsed.ok()) {
    return Fail(error, 400, "bad_json", parsed.status().message());
  }
  const json::Value& root = parsed.ValueOrDie();
  if (!root.is_object()) {
    return Fail(error, 400, "bad_json", "request body must be a JSON object");
  }

  const json::Value* version = root.Find("version");
  if (version == nullptr) {
    return Fail(error, 400, "missing_version",
                "request must carry \"version\": 1");
  }
  if (!version->is_number() || version->AsInt64() != 1 ||
      version->AsDouble() != 1.0) {
    return Fail(error, 400, "unsupported_version",
                "this server supports API version 1");
  }

  const std::string* query_id = FindString(root, "query");
  if (query_id == nullptr) {
    return Fail(error, 400, "missing_query",
                "request must name a workload query, e.g. \"query\": \"Q4\"");
  }
  const core::WorkloadQuery* query = FindQuery(*query_id);
  if (query == nullptr) {
    return Fail(error, 404, "unknown_query",
                "unknown query '" + *query_id + "' (known: Q1..Q10)");
  }
  out->query_id = query->id;
  out->schema = query->schema;

  std::string kind = "evaluate";
  if (const std::string* k = FindString(root, "kind")) kind = *k;

  if (kind == "evaluate") {
    core::Method method = core::Method::kOSharing;
    if (const std::string* name = FindString(root, "method")) {
      if (!ParseMethod(*name, &method)) {
        return Fail(error, 400, "bad_method",
                    "unknown method '" + *name +
                        "' (one of: basic, e-basic, e-MQO, q-sharing, "
                        "o-sharing)");
      }
    } else if (root.Find("method") != nullptr) {
      return Fail(error, 400, "bad_method", "\"method\" must be a string");
    }
    out->request = core::Request::MethodEval(query->query, method);
  } else if (kind == "topk") {
    const json::Value* k = root.Find("k");
    if (k == nullptr || !k->is_number() || k->AsDouble() < 1.0 ||
        k->AsDouble() != static_cast<double>(k->AsInt64())) {
      return Fail(error, 400, "bad_k",
                  "topk requires an integer \"k\" >= 1");
    }
    out->request =
        core::Request::TopK(query->query, static_cast<size_t>(k->AsInt64()));
  } else if (kind == "setop") {
    const std::string* right_id = FindString(root, "right");
    if (right_id == nullptr) {
      return Fail(error, 400, "missing_right",
                  "setop requires \"right\": a workload query id");
    }
    const core::WorkloadQuery* right = FindQuery(*right_id);
    if (right == nullptr) {
      return Fail(error, 404, "unknown_query",
                  "unknown query '" + *right_id + "' (known: Q1..Q10)");
    }
    if (right->schema != query->schema) {
      return Fail(error, 400, "cross_schema_set_op",
                  "setop operands must target the same schema (" +
                      std::string(datagen::TargetSchemaName(query->schema)) +
                      " vs " +
                      std::string(datagen::TargetSchemaName(right->schema)) +
                      ")");
    }
    core::SetOpKind op = core::SetOpKind::kUnion;
    if (const std::string* name = FindString(root, "set_op")) {
      if (!ParseSetOp(*name, &op)) {
        return Fail(error, 400, "bad_set_op",
                    "unknown set_op '" + *name +
                        "' (one of: union, intersect, except)");
      }
    }
    out->request = core::Request::SetOp(query->query, right->query, op);
  } else if (kind == "threshold") {
    const json::Value* threshold = root.Find("threshold");
    if (threshold == nullptr || !threshold->is_number() ||
        !(threshold->AsDouble() > 0.0 && threshold->AsDouble() <= 1.0)) {
      return Fail(error, 400, "bad_threshold",
                  "threshold requires \"threshold\" in (0, 1]");
    }
    out->request =
        core::Request::Threshold(query->query, threshold->AsDouble());
  } else {
    return Fail(error, 400, "bad_kind",
                "unknown kind '" + kind +
                    "' (one of: evaluate, topk, setop, threshold)");
  }

  Status valid = core::ValidateRequest(out->request);
  if (!valid.ok()) {
    return Fail(error, 400, "invalid_request", valid.message());
  }
  return true;
}

bool ParseIngestBody(const std::string& body, size_t max_ops,
                     ParsedIngest* out, ApiError* error) {
  Result<json::Value> parsed = json::Parse(body);
  if (!parsed.ok()) {
    return Fail(error, 400, "bad_json", parsed.status().message());
  }
  const json::Value& root = parsed.ValueOrDie();
  if (!root.is_object()) {
    return Fail(error, 400, "bad_json", "request body must be a JSON object");
  }

  const json::Value* version = root.Find("version");
  if (version == nullptr) {
    return Fail(error, 400, "missing_version",
                "request must carry \"version\": 1");
  }
  if (!version->is_number() || version->AsInt64() != 1 ||
      version->AsDouble() != 1.0) {
    return Fail(error, 400, "unsupported_version",
                "this server supports API version 1");
  }

  out->schema = datagen::TargetSchemaId::kExcel;
  if (const std::string* schema = FindString(root, "schema")) {
    if (!ParseTargetSchema(*schema, &out->schema)) {
      return Fail(error, 404, "unknown_schema",
                  "unknown target schema '" + *schema +
                      "' (one of: Excel, Noris, Paragon)");
    }
  } else if (root.Find("schema") != nullptr) {
    return Fail(error, 400, "bad_schema", "\"schema\" must be a string");
  }

  const json::Value* ops = root.Find("ops");
  if (ops == nullptr || !ops->is_array() || ops->AsArray().empty()) {
    return Fail(error, 400, "missing_ops",
                "request must carry a non-empty \"ops\" array");
  }
  if (max_ops > 0 && ops->AsArray().size() > max_ops) {
    return Fail(error, 413, "batch_too_large",
                "batch of " + std::to_string(ops->AsArray().size()) +
                    " ops exceeds the limit of " + std::to_string(max_ops));
  }

  out->batch.ops.clear();
  out->batch.ops.reserve(ops->AsArray().size());
  for (const json::Value& op_json : ops->AsArray()) {
    if (!op_json.is_object()) {
      return Fail(error, 400, "bad_op", "each op must be a JSON object");
    }
    relational::DeltaOp op;
    const std::string* kind = FindString(op_json, "op");
    if (kind == nullptr) {
      return Fail(error, 400, "bad_op",
                  "each op must carry \"op\": insert | update | delete");
    }
    if (*kind == "insert") {
      op.kind = relational::DeltaOpKind::kInsert;
    } else if (*kind == "update") {
      op.kind = relational::DeltaOpKind::kUpdate;
    } else if (*kind == "delete") {
      op.kind = relational::DeltaOpKind::kDelete;
    } else {
      return Fail(error, 400, "bad_op",
                  "unknown op '" + *kind +
                      "' (one of: insert, update, delete)");
    }
    const std::string* relation = FindString(op_json, "relation");
    if (relation == nullptr) {
      return Fail(error, 400, "bad_op",
                  "each op must name its \"relation\"");
    }
    op.relation = *relation;
    const json::Value* row = op_json.Find("row");
    if (row == nullptr || !ParseDeltaRow(*row, &op.row)) {
      return Fail(error, 400, "bad_op",
                  "each op must carry \"row\": an array of null / number "
                  "/ string cells");
    }
    if (op.kind == relational::DeltaOpKind::kUpdate) {
      const json::Value* new_row = op_json.Find("new_row");
      if (new_row == nullptr || !ParseDeltaRow(*new_row, &op.new_row)) {
        return Fail(error, 400, "bad_op",
                    "update ops must carry \"new_row\": an array of null "
                    "/ number / string cells");
      }
    } else if (op_json.Find("new_row") != nullptr) {
      return Fail(error, 400, "bad_op",
                  "\"new_row\" is only valid on update ops");
    }
    out->batch.ops.push_back(std::move(op));
  }
  return true;
}

void AppendResponseJson(const service::QueryResponse& response,
                        json::Value* target, size_t max_rows) {
  target->Set("kind", json::Value::Str(
                          core::RequestKindName(response.response->kind)));
  target->Set("cache_hit", json::Value::Bool(response.cache_hit));
  target->Set("shared", json::Value::Bool(response.shared_in_batch));
  switch (response.response->kind) {
    case core::RequestKind::kEvaluate:
    case core::RequestKind::kSetOp:
      target->Set("result",
                  EvaluateResultJson(response.response->evaluate, max_rows));
      break;
    case core::RequestKind::kTopK:
      target->Set("result", TopKResultJson(response.response->top_k, max_rows));
      break;
    case core::RequestKind::kThreshold:
      target->Set("result",
                  ThresholdResultJson(response.response->threshold, max_rows));
      break;
  }
}

void RegisterRoutes(HttpServer* server, ServiceHub* hub, ApiOptions options) {
  obs::Registry* registry = options.metrics_registry != nullptr
                                ? options.metrics_registry
                                : &obs::DefaultRegistry();
  const size_t max_rows = options.max_rows;

  server->Handle("GET", "/metrics",
                 [registry](const http::Request&, const std::string&,
                            RespondFn respond) {
                   respond(http::Response::Text(200, registry->ExposeText()));
                 });

  server->Handle("GET", "/v1/stats",
                 [server, hub](const http::Request&, const std::string&,
                               RespondFn respond) {
                   respond(http::Response::Json(
                       200, StatsJson(server, hub).Serialize()));
                 });

  server->Handle(
      "POST", "/v1/query",
      [hub, max_rows](const http::Request& request, const std::string&,
                      RespondFn respond) {
        ParsedQuery parsed;
        ApiError error;
        if (!ParseQueryBody(request.body, &parsed, &error)) {
          respond(http::Response::Json(
              error.http_status, JsonErrorBody(error.code, error.message)));
          return;
        }
        service::QueryService* service = hub->ForSchema(parsed.schema);
        if (service == nullptr) {
          respond(http::Response::Json(
              500, JsonErrorBody("internal_error",
                                 "no service for target schema")));
          return;
        }
        std::string query_id = parsed.query_id;
        // The completion callback runs on the evaluating thread (or
        // inline for cache hits); respond marshals back to the loop.
        service->SubmitAsync(
            parsed.request, nullptr,
            [respond, query_id, max_rows](
                const service::QueryResponse& outcome) {
              if (!outcome.status.ok()) {
                respond(http::Response::Json(
                    500, JsonErrorBody("evaluation_failed",
                                       outcome.status.message())));
                return;
              }
              json::Value root = json::Value::Object();
              root.Set("query", json::Value::Str(query_id));
              AppendResponseJson(outcome, &root, max_rows);
              respond(http::Response::Json(200, root.Serialize()));
            });
      });

  const size_t max_ingest_ops = options.max_ingest_ops;
  server->Handle(
      "POST", "/v1/ingest",
      [hub, max_ingest_ops](const http::Request& request, const std::string&,
                            RespondFn respond) {
        ParsedIngest parsed;
        ApiError error;
        if (!ParseIngestBody(request.body, max_ingest_ops, &parsed, &error)) {
          respond(http::Response::Json(
              error.http_status, JsonErrorBody(error.code, error.message)));
          return;
        }
        live::IngestController* ingest = hub->IngestFor(parsed.schema);
        if (ingest == nullptr) {
          respond(http::Response::Json(
              501, JsonErrorBody("ingest_unavailable",
                                 "this server does not serve live updates")));
          return;
        }
        service::QueryService* service = hub->ForSchema(parsed.schema);
        if (service == nullptr) {
          respond(http::Response::Json(
              500, JsonErrorBody("internal_error",
                                 "no service for target schema")));
          return;
        }
        // Applying a batch re-encodes columnar backings — never on the
        // loop thread; respond marshals back to the loop.
        auto batch = std::make_shared<relational::DeltaBatch>(
            std::move(parsed.batch));
        service->pool().Submit([ingest, batch, respond] {
          auto applied = ingest->Apply(*batch);
          if (!applied.ok()) {
            const Status& status = applied.status();
            const char* code =
                status.code() == StatusCode::kNotFound ? "unknown_relation"
                                                       : "schema_mismatch";
            respond(http::Response::Json(
                status.code() == StatusCode::kNotFound ? 404 : 400,
                JsonErrorBody(code, status.message())));
            return;
          }
          const live::IngestReport& report = applied.ValueOrDie();
          json::Value root = json::Value::Object();
          root.Set("data_epoch", json::Value::Int(static_cast<int64_t>(
                                     report.data_epoch)));
          json::Value relations = json::Value::Array();
          for (const std::string& name : report.relations) {
            relations.Append(json::Value::Str(name));
          }
          root.Set("relations", std::move(relations));
          json::Value rows = json::Value::Object();
          rows.Set("inserted", json::Value::Int(static_cast<int64_t>(
                                   report.rows_inserted)));
          rows.Set("updated", json::Value::Int(static_cast<int64_t>(
                                  report.rows_updated)));
          rows.Set("deleted", json::Value::Int(static_cast<int64_t>(
                                  report.rows_deleted)));
          root.Set("rows", std::move(rows));
          json::Value fenced = json::Value::Object();
          fenced.Set("answers", json::Value::Int(static_cast<int64_t>(
                                    report.fenced_answers)));
          fenced.Set("operators", json::Value::Int(static_cast<int64_t>(
                                      report.fenced_operators)));
          root.Set("fenced", std::move(fenced));
          root.Set("encode_seconds",
                   json::Value::Number(report.encode_seconds));
          respond(http::Response::Json(200, root.Serialize()));
        });
      });

  server->HandleWebSocket(
      "/v1/stream",
      [hub, max_rows](std::shared_ptr<WsSession> session, std::string message,
                      std::function<void()> done) {
        ParsedQuery parsed;
        ApiError error;
        if (!ParseQueryBody(message, &parsed, &error)) {
          session->SendText(WsErrorFrame(error.code, error.message));
          done();
          return;
        }
        service::QueryService* service = hub->ForSchema(parsed.schema);
        if (service == nullptr) {
          session->SendText(
              WsErrorFrame("internal_error", "no service for target schema"));
          done();
          return;
        }
        auto sink = std::make_shared<StreamSink>(session);
        std::string query_id = parsed.query_id;
        // sink is captured by the callback, keeping it alive for the
        // whole evaluation (callbacks fire after the last OnAnswer).
        service->SubmitAsync(
            parsed.request, sink.get(),
            [session, sink, done, query_id, max_rows](
                const service::QueryResponse& outcome) {
              if (!outcome.status.ok()) {
                session->SendText(WsErrorFrame("evaluation_failed",
                                               outcome.status.message()));
                done();
                return;
              }
              json::Value root = json::Value::Object();
              root.Set("type", json::Value::Str("complete"));
              root.Set("query", json::Value::Str(query_id));
              root.Set("leaves",
                       json::Value::Int(static_cast<int64_t>(sink->leaves())));
              AppendResponseJson(outcome, &root, max_rows);
              session->SendText(root.Serialize());
              done();
            });
      });
}

}  // namespace api
}  // namespace net
}  // namespace urm
