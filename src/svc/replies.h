// Reply-document helpers shared by the service core (engine-side command
// handlers) and the event loop (connection-side parse/overload errors). Every
// reply is an object with "ok" plus either result fields or "code"/"error".
#ifndef SRC_SVC_REPLIES_H_
#define SRC_SVC_REPLIES_H_

#include <cstdint>
#include <string>

#include "src/common/json.h"
#include "src/common/status.h"

namespace lyra::svc {

inline const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kDataLoss:
      return "data_loss";
  }
  return "unknown";
}

inline JsonValue ErrorReply(const char* code, const std::string& message) {
  JsonValue reply = JsonValue::MakeObject();
  reply.Set("ok", JsonValue::MakeBool(false));
  reply.Set("code", JsonValue::MakeString(code));
  reply.Set("error", JsonValue::MakeString(message));
  return reply;
}

// The not_found for a job id that names no job, in the client's id.
inline JsonValue NoSuchJob(std::int64_t id) {
  return ErrorReply("not_found", "no such job: " + std::to_string(id));
}

inline JsonValue StatusReply(const Status& status) {
  return ErrorReply(CodeName(status.code()), status.message());
}

inline JsonValue OkReply() {
  JsonValue reply = JsonValue::MakeObject();
  reply.Set("ok", JsonValue::MakeBool(true));
  return reply;
}

// Copies a numeric "seq" field from `request` into `reply`, so pipelining
// clients can assert per-connection reply order without parsing result
// fields. Replies without a requesting "seq" are unchanged.
inline void EchoSeq(const JsonValue& request, JsonValue& reply) {
  const JsonValue* seq = request.Find("seq");
  if (seq != nullptr && seq->is_number()) {
    reply.Set("seq", JsonValue::MakeNumber(seq->AsDouble()));
  }
}

}  // namespace lyra::svc

#endif  // SRC_SVC_REPLIES_H_
