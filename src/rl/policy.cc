#include "src/rl/policy.h"

#include "src/common/check.h"
#include "src/common/envelope.h"
#include "src/common/hash.h"

namespace lyra::rl {
namespace {

LstmOptions HeadOptions(const PolicyOptions& options, std::uint64_t seed) {
  LstmOptions head;
  head.window = options.feature_count;
  head.hidden = options.hidden;
  head.layers = options.layers;
  head.learning_rate = options.learning_rate;
  head.seed = seed;
  return head;
}

Status ReadParameters(Reader& in, LstmNetwork* net, const char* head) {
  std::uint32_t count = 0;
  Status status = in.U32(&count);
  if (!status.ok()) {
    return status;
  }
  if (count != static_cast<std::uint32_t>(net->num_parameters())) {
    return Status::DataLoss(std::string("LYRAPOL ") + head +
                            " parameter count mismatch: file has " +
                            std::to_string(count) + ", architecture needs " +
                            std::to_string(net->num_parameters()));
  }
  std::vector<double> params(count);
  for (double& p : params) {
    status = in.F64(&p);
    if (!status.ok()) {
      return status;
    }
  }
  net->ImportParameters(params);
  return Status::Ok();
}

void WriteParameters(std::string& out, const LstmNetwork& net) {
  const std::vector<double> params = net.ExportParameters();
  PutU32(out, static_cast<std::uint32_t>(params.size()));
  for (double p : params) {
    PutF64(out, p);
  }
}

}  // namespace

PolicyNet::PolicyNet(const PolicyOptions& options)
    : options_(options),
      priority_(HeadOptions(options, options.seed)),
      workers_(HeadOptions(options, options.seed ^ 0x9e3779b97f4a7c15ull)) {
  LYRA_CHECK_GE(options.feature_count, 1);
}

double PolicyNet::PriorityScore(const std::vector<double>& obs) {
  LYRA_CHECK_EQ(obs.size(), static_cast<std::size_t>(options_.feature_count));
  return priority_.Forward(obs);
}

double PolicyNet::WorkerScore(const std::vector<double>& obs) {
  LYRA_CHECK_EQ(obs.size(), static_cast<std::size_t>(options_.feature_count));
  return workers_.Forward(obs);
}

void PolicyNet::ZeroGradients() {
  priority_.ZeroGradients();
  workers_.ZeroGradients();
}

void PolicyNet::AccumulatePriorityGradient(const std::vector<double>& obs,
                                           double d_output) {
  priority_.AccumulateGradient(obs, d_output);
}

void PolicyNet::AccumulateWorkerGradient(const std::vector<double>& obs,
                                         double d_output) {
  workers_.AccumulateGradient(obs, d_output);
}

void PolicyNet::ApplyAdam() {
  priority_.ApplyAdam();
  workers_.ApplyAdam();
}

int PolicyNet::num_parameters() const {
  return priority_.num_parameters() + workers_.num_parameters();
}

std::string PolicyNet::Encode() const {
  std::string payload;
  PutU32(payload, static_cast<std::uint32_t>(options_.feature_count));
  PutU32(payload, static_cast<std::uint32_t>(options_.hidden));
  PutU32(payload, static_cast<std::uint32_t>(options_.layers));
  PutU64(payload, options_.seed);
  PutF64(payload, options_.learning_rate);
  WriteParameters(payload, priority_);
  WriteParameters(payload, workers_);

  return SealEnvelope(kPolicyMagic, kPolicyVersion, payload);
}

StatusOr<PolicyNet> PolicyNet::Decode(const std::string& bytes) {
  StatusOr<std::string> opened =
      OpenEnvelope(bytes, kPolicyMagic, kPolicyVersion, "policy weights");
  if (!opened.ok()) {
    return opened.status();
  }
  const std::string payload = std::move(opened).value();

  Reader in(payload);
  std::uint32_t feature_count = 0;
  std::uint32_t hidden = 0;
  std::uint32_t layers = 0;
  PolicyOptions options;
  Status status = in.U32(&feature_count);
  if (status.ok()) status = in.U32(&hidden);
  if (status.ok()) status = in.U32(&layers);
  if (status.ok()) status = in.U64(&options.seed);
  if (status.ok()) status = in.F64(&options.learning_rate);
  if (!status.ok()) {
    return status;
  }
  if (feature_count == 0 || feature_count > 4096 || hidden == 0 ||
      hidden > 4096 || layers == 0 || layers > 64) {
    return Status::DataLoss("LYRAPOL architecture out of range");
  }
  // Both heads share one shape; each is a u32 count plus its f64 values.
  // Check that the payload carries exactly that before building the heads,
  // whose size a small hostile header could otherwise push to many GB.
  const std::uint64_t head_parameters = LstmNetwork::ParameterCount(hidden, layers);
  if (in.remaining() != 2 * (4 + 8 * head_parameters)) {
    return Status::DataLoss("LYRAPOL payload size does not match its architecture");
  }
  options.feature_count = static_cast<int>(feature_count);
  options.hidden = static_cast<int>(hidden);
  options.layers = static_cast<int>(layers);

  PolicyNet policy(options);
  status = ReadParameters(in, &policy.priority_, "priority");
  if (status.ok()) status = ReadParameters(in, &policy.workers_, "worker");
  if (!status.ok()) {
    return status;
  }
  return policy;
}

std::uint64_t PolicyNet::WeightsHash() const { return Fnv1a(Encode()); }

Status PolicyNet::Save(const std::string& path) const {
  return WriteFileAtomic(path, Encode());
}

StatusOr<PolicyNet> PolicyNet::Load(const std::string& path) {
  StatusOr<std::string> file = ReadFile(path);
  if (!file.ok()) {
    return file.status();
  }
  return Decode(file.value());
}

}  // namespace lyra::rl
