#include "core/request.h"

#include <cstring>

namespace urm {
namespace core {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kBasic:
      return "basic";
    case Method::kEBasic:
      return "e-basic";
    case Method::kEMqo:
      return "e-MQO";
    case Method::kQSharing:
      return "q-sharing";
    case Method::kOSharing:
      return "o-sharing";
  }
  return "?";
}

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kEvaluate:
      return "evaluate";
    case RequestKind::kTopK:
      return "top-k";
    case RequestKind::kSetOp:
      return "set-op";
    case RequestKind::kThreshold:
      return "threshold";
  }
  return "?";
}

Request Request::MethodEval(algebra::PlanPtr query, Method method) {
  Request request;
  request.kind = RequestKind::kEvaluate;
  request.query = std::move(query);
  request.method = method;
  return request;
}

Request Request::TopK(algebra::PlanPtr query, size_t k) {
  Request request;
  request.kind = RequestKind::kTopK;
  request.query = std::move(query);
  request.k = k;
  return request;
}

Request Request::SetOp(algebra::PlanPtr left, algebra::PlanPtr right,
                       SetOpKind op) {
  Request request;
  request.kind = RequestKind::kSetOp;
  request.query = std::move(left);
  request.right = std::move(right);
  request.set_op = op;
  return request;
}

Request Request::Threshold(algebra::PlanPtr query, double threshold) {
  Request request;
  request.kind = RequestKind::kThreshold;
  request.query = std::move(query);
  request.threshold = threshold;
  return request;
}

Status ValidateRequest(const Request& request) {
  if (request.query == nullptr) {
    return Status::InvalidArgument("null query plan");
  }
  switch (request.kind) {
    case RequestKind::kEvaluate:
      return Status::OK();
    case RequestKind::kTopK:
      if (request.k == 0) {
        return Status::InvalidArgument("k must be positive");
      }
      return Status::OK();
    case RequestKind::kSetOp:
      if (request.right == nullptr) {
        return Status::InvalidArgument("null right plan for set-op");
      }
      return Status::OK();
    case RequestKind::kThreshold:
      if (!(request.threshold > 0.0 && request.threshold <= 1.0)) {
        return Status::InvalidArgument("threshold must be in (0, 1]");
      }
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

algebra::PlanFingerprint FingerprintRequest(const Request& request,
                                            uint64_t context_hash) {
  using algebra::MixHash;
  uint64_t h = algebra::HashPlan(request.query);
  h = MixHash(h, static_cast<uint64_t>(request.kind) + 1);
  switch (request.kind) {
    case RequestKind::kEvaluate:
      h = MixHash(h, static_cast<uint64_t>(request.method) + 1);
      break;
    case RequestKind::kTopK:
      h = MixHash(h, static_cast<uint64_t>(request.k));
      break;
    case RequestKind::kSetOp:
      h = MixHash(h, algebra::HashPlan(request.right));
      h = MixHash(h, static_cast<uint64_t>(request.set_op) + 1);
      break;
    case RequestKind::kThreshold: {
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(request.threshold), "");
      std::memcpy(&bits, &request.threshold, sizeof(bits));
      h = MixHash(h, bits);
      break;
    }
  }
  // The strategy override changes which u-trace is taken (and thereby
  // top-k/threshold bound tightness), so it is part of the identity —
  // but only for the kinds that consume it; elsewhere a stray override
  // must not split the cache/dedup key of identical evaluations.
  const bool strategy_applies =
      request.kind == RequestKind::kTopK ||
      request.kind == RequestKind::kThreshold ||
      (request.kind == RequestKind::kEvaluate &&
       request.method == Method::kOSharing);
  h = MixHash(h, strategy_applies && request.strategy.has_value()
                     ? static_cast<uint64_t>(*request.strategy) + 1
                     : 0);
  algebra::PlanFingerprint fp;
  fp.plan_hash = h;
  fp.context_hash = context_hash;
  return fp;
}

}  // namespace core
}  // namespace urm
