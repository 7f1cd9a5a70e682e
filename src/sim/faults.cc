#include "src/sim/faults.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/check.h"

namespace lyra {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kServerCrash:
      return "server_crash";
    case FaultKind::kServerRecovery:
      return "server_recovery";
    case FaultKind::kWorkerFailure:
      return "worker_failure";
    case FaultKind::kRevocationStorm:
      return "revocation_storm";
    case FaultKind::kStragglerStart:
      return "straggler_start";
    case FaultKind::kStragglerEnd:
      return "straggler_end";
  }
  return "?";
}

FaultInjector::FaultInjector(const FaultOptions& options)
    : options_(options), rng_(options.seed) {
  LYRA_CHECK(options_.enabled);
  LYRA_CHECK_GT(options_.server_mttr, 0.0);
  LYRA_CHECK_GT(options_.storm_fraction, 0.0);
  LYRA_CHECK_GT(options_.straggler_factor, 0.0);
  LYRA_CHECK_LT(options_.straggler_factor, 1.0);
  LYRA_CHECK_GT(options_.straggler_duration, 0.0);
  LYRA_CHECK_GE(options_.worker_restart_delay, 0.0);
}

TimeSec FaultInjector::NextAfter(TimeSec now, TimeSec mtbf) {
  if (mtbf <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return now + rng_.NextExponential(1.0 / mtbf);
}

TimeSec FaultInjector::DrawRecovery(TimeSec now) {
  return now + rng_.NextExponential(1.0 / options_.server_mttr);
}

std::size_t FaultInjector::PickIndex(std::size_t n) {
  LYRA_CHECK_GT(n, 0u);
  return static_cast<std::size_t>(
      rng_.UniformInt(0, static_cast<std::int64_t>(n) - 1));
}

int FaultInjector::StormSize(int loaned) const {
  LYRA_CHECK_GT(loaned, 0);
  return std::max(
      1, std::min(loaned, static_cast<int>(std::lround(options_.storm_fraction *
                                                       loaned))));
}

void FaultInjector::Record(const FaultRecord& record) {
  log_.push_back(record);
  std::uint64_t time_bits = 0;
  static_assert(sizeof(time_bits) == sizeof(record.time));
  std::memcpy(&time_bits, &record.time, sizeof(time_bits));
  hash_ = Fnv1aU64(time_bits, hash_);
  hash_ = Fnv1aU64(static_cast<std::uint64_t>(record.kind), hash_);
  hash_ = Fnv1aU64(static_cast<std::uint64_t>(record.target), hash_);
  hash_ = Fnv1aU64(static_cast<std::uint64_t>(record.jobs_affected), hash_);
  switch (record.kind) {
    case FaultKind::kServerCrash:
      ++stats_.server_crashes;
      stats_.jobs_killed += record.jobs_affected;
      break;
    case FaultKind::kServerRecovery:
      ++stats_.server_recoveries;
      break;
    case FaultKind::kWorkerFailure:
      ++stats_.worker_failures;
      break;
    case FaultKind::kRevocationStorm:
      ++stats_.revocation_storms;
      stats_.storm_servers_revoked += static_cast<int>(record.target);
      break;
    case FaultKind::kStragglerStart:
      ++stats_.stragglers;
      break;
    case FaultKind::kStragglerEnd:
      break;
  }
}

}  // namespace lyra
