// Policy network for the learned scheduler (DESIGN.md §12).
//
// A PolicyNet is two small LSTM heads built from the predict/lstm primitives:
// a priority head scoring each pending job (higher = launch earlier) and a
// worker head emitting the mean of a Gaussian over each elastic job's
// scale-out fraction. Both consume the same fixed-width observation vector
// (cluster + queue + per-job features, see env.h), treated as a length-F
// scalar sequence so the LSTM cells are reused unchanged.
//
// Weights persist in the `LYRAPOL_` container: the checksummed envelope of
// src/common/envelope.h, shared with the service snapshots, so corruption,
// truncation and trailing bytes are detected rather than silently loaded.
#ifndef SRC_RL_POLICY_H_
#define SRC_RL_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/predict/lstm.h"

namespace lyra::rl {

// Width of the observation vector fed to both heads (see BuildObservation in
// learned_scheduler.h for the feature list).
inline constexpr int kFeatureCount = 14;

inline constexpr char kPolicyMagic[] = "LYRAPOL_";  // 8 bytes on disk
inline constexpr std::uint32_t kPolicyVersion = 1;

struct PolicyOptions {
  int feature_count = kFeatureCount;
  int hidden = 8;
  int layers = 1;
  double learning_rate = 0.05;  // Adam step size for both heads
  std::uint64_t seed = 1;

  friend bool operator==(const PolicyOptions&, const PolicyOptions&) = default;
};

class PolicyNet {
 public:
  explicit PolicyNet(const PolicyOptions& options = {});

  const PolicyOptions& options() const { return options_; }

  // Head outputs. Non-const because the LSTM forward pass reuses internal
  // buffers; neither mutates weights.
  double PriorityScore(const std::vector<double>& obs);
  double WorkerScore(const std::vector<double>& obs);

  // REINFORCE plumbing: zero, accumulate d(loss)/d(head output) per visited
  // observation, then take one Adam step on both heads.
  void ZeroGradients();
  void AccumulatePriorityGradient(const std::vector<double>& obs, double d_output);
  void AccumulateWorkerGradient(const std::vector<double>& obs, double d_output);
  void ApplyAdam();

  int num_parameters() const;

  // Full LYRAPOL byte stream (header + payload + checksum).
  std::string Encode() const;
  static StatusOr<PolicyNet> Decode(const std::string& bytes);

  // FNV-1a over Encode(); equal seeds + equal training ⇒ equal hash.
  std::uint64_t WeightsHash() const;

  // Atomic (tmp + rename) write / checksum-verified read of a LYRAPOL file.
  Status Save(const std::string& path) const;
  static StatusOr<PolicyNet> Load(const std::string& path);

 private:
  PolicyOptions options_;
  LstmNetwork priority_;
  LstmNetwork workers_;
};

}  // namespace lyra::rl

#endif  // SRC_RL_POLICY_H_
