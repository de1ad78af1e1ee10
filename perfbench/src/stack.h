#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/engine.h"
#include "harness.h"
#include "live/ingest.h"
#include "net/api.h"
#include "net/server.h"
#include "relational/delta.h"
#include "service/query_service.h"

/// \file stack.h
/// The set-up every workload shares: the paper's three target schemas
/// built as engines at one fixed scale, and, for the serving workloads,
/// a QueryService + IngestController per schema behind an in-process
/// HttpServer with the JSON API routes.

namespace perfbench {

/// |D| in MB, h and the data seed of every engine the benchmark builds.
constexpr double kDataMb = 0.3;
constexpr int kMappings = 100;
constexpr uint64_t kDataSeed = 42;

constexpr size_t kSchemas = 3;
const std::array<urm::datagen::TargetSchemaId, kSchemas>& Schemas();
size_t SchemaIndex(urm::datagen::TargetSchemaId id);

using Engines = std::array<std::unique_ptr<urm::core::Engine>, kSchemas>;

/// Builds Excel, Noris and Paragon with Engine::Create. With a live
/// tracer it also calls GenerateTpch, NameMatcher::Match and
/// GenerateMappings once per schema beside each Create, under setup
/// spans, so their cost is measured from outside the engine.
urm::Result<Engines> BuildEngines(Tracer* tracer);

/// A hub-callback timestamp: when the API handler resolved the service
/// (ForSchema) or the ingest controller (IngestFor) for a request.
struct HubEvent {
  int64_t t = 0;
  bool ingest = false;
};

/// ServiceHub over the three prebuilt engines, with urm_server's
/// service defaults. While recording, it timestamps every ForSchema /
/// IngestFor call the API handlers make, which marks where a request
/// leaves the network tier's parse-and-route stage.
class BenchHub : public urm::net::api::ServiceHub {
 public:
  BenchHub(const Engines& engines, urm::obs::Registry* registry);

  urm::service::QueryService* ForSchema(
      urm::datagen::TargetSchemaId schema) override;
  void VisitServices(
      const std::function<void(urm::datagen::TargetSchemaId,
                               urm::service::QueryService*)>& fn) override;
  urm::live::IngestController* IngestFor(
      urm::datagen::TargetSchemaId schema) override;

  urm::service::QueryService* service(size_t i) { return services_[i].get(); }
  urm::live::IngestController* ingest(size_t i) { return ingest_[i].get(); }

  void set_recording(bool on);
  std::vector<HubEvent> TakeEvents();

 private:
  std::array<std::unique_ptr<urm::service::QueryService>, kSchemas> services_;
  std::array<std::unique_ptr<urm::live::IngestController>, kSchemas> ingest_;
  std::mutex mu_;
  bool recording_ = false;
  std::vector<HubEvent> events_;
};

/// Sums of the serving tier's own counters over the three schemas.
struct ServingCounters {
  urm::service::CacheStats cache;
  urm::osharing::OperatorStoreStats store;
  uint64_t pool_tasks = 0;
  urm::service::QueryService::StorageScanStats scans;
  urm::live::IngestStats ingest;
};
ServingCounters ReadCounters(BenchHub* hub);

/// Engines + hub + a started HttpServer on an ephemeral loopback port,
/// reporting metrics into a registry of their own. Members are declared
/// so teardown drains the server before the services and engines it
/// calls into go away.
struct ServingStack {
  urm::obs::Registry registry;
  Engines engines;
  std::unique_ptr<BenchHub> hub;
  std::unique_ptr<urm::net::HttpServer> server;
};

/// Starts the server over `engines` (taking ownership). DosGuard keeps
/// its connection and in-flight caps but has no per-client rate limit:
/// the closed loop all comes from one loopback address.
urm::Result<std::unique_ptr<ServingStack>> StartServing(Engines engines);

/// The eight lineitem rows the ingest workloads insert and delete,
/// seeded from the workload seed. Their keys cannot collide with the
/// generated instance's, so a delete removes exactly these rows.
std::vector<urm::relational::Row> IngestRows(uint64_t seed);
/// The JSON body of one ingest batch (insert or delete of `rows`).
std::string IngestBody(const std::vector<urm::relational::Row>& rows,
                       bool insert);
urm::relational::DeltaBatch IngestBatch(
    const std::vector<urm::relational::Row>& rows, bool insert);

}  // namespace perfbench
