#include "src/svc/snapshot.h"

#include <algorithm>

#include "src/common/envelope.h"

namespace lyra::svc {
namespace {

constexpr std::string_view kMagic = "LYRASNAP";
constexpr std::string_view kShardMagic = "LYRASHRD";
constexpr std::string_view kFedMagic = "LYRAFED_";

void PutConfig(std::string& out, const EngineConfig& config) {
  PutString(out, config.scheduler);
  PutString(out, config.reclaim);
  PutString(out, config.policy_weights);
  PutU8(out, config.info_agnostic ? 1 : 0);
  PutU8(out, config.tuned ? 1 : 0);
  PutU8(out, config.loaning ? 1 : 0);
  PutU8(out, config.lstm ? 1 : 0);
  PutU8(out, config.faults ? 1 : 0);
  PutF64(out, config.scale);
  PutF64(out, config.horizon_days);
  PutU64(out, config.seed);
}

Status ReadConfig(Reader& in, EngineConfig* config) {
  Status status = in.Str(&config->scheduler);
  if (status.ok()) status = in.Str(&config->reclaim);
  if (status.ok()) status = in.Str(&config->policy_weights);
  if (status.ok()) status = in.Bool(&config->info_agnostic);
  if (status.ok()) status = in.Bool(&config->tuned);
  if (status.ok()) status = in.Bool(&config->loaning);
  if (status.ok()) status = in.Bool(&config->lstm);
  if (status.ok()) status = in.Bool(&config->faults);
  if (status.ok()) status = in.F64(&config->scale);
  if (status.ok()) status = in.F64(&config->horizon_days);
  if (status.ok()) status = in.U64(&config->seed);
  return status;
}

void PutCommand(std::string& out, const LoggedCommand& cmd) {
  PutU8(out, static_cast<std::uint8_t>(cmd.kind));
  PutF64(out, cmd.stamp);
  switch (cmd.kind) {
    case CommandKind::kSubmit: {
      const JobSpec& spec = cmd.spec;
      PutF64(out, spec.submit_time);
      PutU32(out, static_cast<std::uint32_t>(spec.gpus_per_worker));
      PutU32(out, static_cast<std::uint32_t>(spec.min_workers));
      PutU32(out, static_cast<std::uint32_t>(spec.max_workers));
      PutU32(out, static_cast<std::uint32_t>(spec.requested_workers));
      PutU8(out, spec.fungible ? 1 : 0);
      PutU8(out, spec.heterogeneous ? 1 : 0);
      PutU8(out, spec.checkpointing ? 1 : 0);
      PutU8(out, static_cast<std::uint8_t>(spec.model));
      PutF64(out, spec.total_work);
      break;
    }
    case CommandKind::kCancel:
      PutI64(out, cmd.job);
      break;
    case CommandKind::kAdvance:
    case CommandKind::kDrain:
      break;
  }
}

Status ReadCommand(Reader& in, LoggedCommand* cmd) {
  std::uint8_t kind = 0;
  Status status = in.U8(&kind);
  if (!status.ok()) {
    return status;
  }
  if (kind < 1 || kind > 4) {
    return Status::DataLoss("unknown command kind in snapshot: " +
                            std::to_string(kind));
  }
  cmd->kind = static_cast<CommandKind>(kind);
  status = in.F64(&cmd->stamp);
  if (!status.ok()) {
    return status;
  }
  switch (cmd->kind) {
    case CommandKind::kSubmit: {
      JobSpec& spec = cmd->spec;
      std::uint32_t u = 0;
      std::uint8_t model = 0;
      status = in.F64(&spec.submit_time);
      if (status.ok()) {
        status = in.U32(&u);
        spec.gpus_per_worker = static_cast<int>(u);
      }
      if (status.ok()) {
        status = in.U32(&u);
        spec.min_workers = static_cast<int>(u);
      }
      if (status.ok()) {
        status = in.U32(&u);
        spec.max_workers = static_cast<int>(u);
      }
      if (status.ok()) {
        status = in.U32(&u);
        spec.requested_workers = static_cast<int>(u);
      }
      if (status.ok()) status = in.Bool(&spec.fungible);
      if (status.ok()) status = in.Bool(&spec.heterogeneous);
      if (status.ok()) status = in.Bool(&spec.checkpointing);
      if (status.ok()) {
        status = in.U8(&model);
        if (model > static_cast<std::uint8_t>(ModelFamily::kOther)) {
          return Status::DataLoss("unknown model family in snapshot");
        }
        spec.model = static_cast<ModelFamily>(model);
      }
      if (status.ok()) status = in.F64(&spec.total_work);
      return status;
    }
    case CommandKind::kCancel:
      return in.I64(&cmd->job);
    case CommandKind::kAdvance:
    case CommandKind::kDrain:
      return Status::Ok();
  }
  return Status::Ok();
}

}  // namespace

const char* CommandKindName(CommandKind kind) {
  switch (kind) {
    case CommandKind::kSubmit:
      return "submit";
    case CommandKind::kCancel:
      return "cancel";
    case CommandKind::kAdvance:
      return "advance";
    case CommandKind::kDrain:
      return "drain";
  }
  return "?";
}

std::string EncodeSnapshot(const ServiceSnapshot& snapshot) {
  std::string payload;
  PutConfig(payload, snapshot.config);
  PutU64(payload, snapshot.commands.size());
  for (const LoggedCommand& cmd : snapshot.commands) {
    PutCommand(payload, cmd);
  }
  PutF64(payload, snapshot.horizon);
  return SealEnvelope(kMagic, kSnapshotVersion, payload);
}

Status SaveSnapshot(const ServiceSnapshot& snapshot, const std::string& path) {
  return WriteFileAtomic(path, EncodeSnapshot(snapshot));
}

StatusOr<ServiceSnapshot> LoadSnapshot(const std::string& path) {
  StatusOr<std::string> file = ReadFile(path);
  if (!file.ok()) {
    return file.status();
  }
  return DecodeSnapshot(file.value(), path);
}

StatusOr<ServiceSnapshot> DecodeSnapshot(const std::string& image,
                                         const std::string& origin) {
  StatusOr<std::string> opened =
      OpenEnvelope(image, kMagic, kSnapshotVersion, origin);
  if (!opened.ok()) {
    return opened.status();
  }
  const std::string payload = std::move(opened).value();

  ServiceSnapshot snapshot;
  Reader reader(payload);
  Status status = ReadConfig(reader, &snapshot.config);
  if (!status.ok()) {
    return status;
  }
  std::uint64_t count = 0;
  status = reader.U64(&count);
  if (!status.ok()) {
    return status;
  }
  // Every command is at least 9 bytes (kind + stamp), so a hostile count
  // cannot reserve more than the payload could hold.
  snapshot.commands.reserve(
      std::min<std::uint64_t>(count, reader.remaining() / 9));
  for (std::uint64_t i = 0; i < count; ++i) {
    LoggedCommand cmd;
    status = ReadCommand(reader, &cmd);
    if (!status.ok()) {
      return status;
    }
    snapshot.commands.push_back(cmd);
  }
  status = reader.F64(&snapshot.horizon);
  if (!status.ok()) {
    return status;
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes in snapshot payload: " + origin);
  }
  return snapshot;
}

std::string EncodeMultiSnapshot(const MultiSnapshot& snapshot) {
  if (snapshot.shard_images.size() == 1) {
    // Bit-compatible with the unsharded service: one shard writes the plain
    // LYRASNAP image, so existing tooling keeps working on shards=1 files.
    return snapshot.shard_images.front();
  }
  std::string payload;
  PutU32(payload, static_cast<std::uint32_t>(snapshot.shard_images.size()));
  PutU64(payload, snapshot.submit_seq);
  for (const std::string& image : snapshot.shard_images) {
    PutU64(payload, image.size());
    payload += image;
  }
  return SealEnvelope(kShardMagic, kMultiSnapshotVersion, payload);
}

Status SaveMultiSnapshot(const MultiSnapshot& snapshot,
                         const std::string& path) {
  if (snapshot.shard_images.empty()) {
    return Status::InvalidArgument("multi-snapshot has no shards");
  }
  return WriteFileAtomic(path, EncodeMultiSnapshot(snapshot));
}

StatusOr<MultiSnapshot> DecodeMultiSnapshot(const std::string& image,
                                            const std::string& origin) {
  // A plain LYRASNAP image is a valid one-shard snapshot: the sequence number
  // never influenced routing at one shard, so 0 is exact, not a guess.
  if (image.compare(0, kMagic.size(), kMagic) == 0) {
    MultiSnapshot snapshot;
    snapshot.shard_images.push_back(image);
    return snapshot;
  }

  StatusOr<std::string> opened =
      OpenEnvelope(image, kShardMagic, kMultiSnapshotVersion, origin);
  if (!opened.ok()) {
    return opened.status();
  }
  const std::string payload = std::move(opened).value();

  MultiSnapshot snapshot;
  Reader reader(payload);
  std::uint32_t shard_count = 0;
  Status status = reader.U32(&shard_count);
  if (!status.ok()) {
    return status;
  }
  if (shard_count == 0 ||
      shard_count > static_cast<std::uint32_t>(kMaxEngines)) {
    return Status::DataLoss("snapshot shard count must be in [1, " +
                            std::to_string(kMaxEngines) + "], got " +
                            std::to_string(shard_count) + ": " + origin);
  }
  status = reader.U64(&snapshot.submit_seq);
  if (!status.ok()) {
    return status;
  }
  snapshot.shard_images.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    std::uint64_t image_size = 0;
    status = reader.U64(&image_size);
    if (!status.ok()) {
      return status;
    }
    std::string shard_image;
    status = reader.Bytes(&shard_image, image_size);
    if (!status.ok()) {
      return status;
    }
    snapshot.shard_images.push_back(std::move(shard_image));
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes in snapshot payload: " + origin);
  }
  return snapshot;
}

StatusOr<MultiSnapshot> LoadMultiSnapshot(const std::string& path) {
  StatusOr<std::string> read = ReadFile(path);
  if (!read.ok()) {
    return read.status();
  }
  return DecodeMultiSnapshot(read.value(), path);
}

std::string EncodeFedSnapshot(const FedSnapshot& snapshot) {
  std::string payload;
  PutU64(payload, snapshot.submit_seq);
  PutU64(payload, snapshot.ledger.next_loan_id);
  PutU64(payload, snapshot.ledger.total_granted);
  PutU64(payload, snapshot.ledger.total_reclaimed);
  PutU64(payload, snapshot.ledger.total_returned);
  PutU64(payload, snapshot.ledger.ledger_hash);
  PutU32(payload, static_cast<std::uint32_t>(snapshot.ledger.loans.size()));
  for (const FedLoan& loan : snapshot.ledger.loans) {
    PutU64(payload, loan.id);
    PutU32(payload, loan.lender);
    PutU32(payload, loan.borrower);
    PutI64(payload, loan.gpus);
    PutF64(payload, loan.granted_at);
  }
  PutU32(payload, static_cast<std::uint32_t>(snapshot.clusters.size()));
  for (const FedClusterImage& cluster : snapshot.clusters) {
    PutString(payload, cluster.name);
    PutU8(payload, cluster.kind);
    PutI64(payload, cluster.loan_priority);
    PutU32(payload, cluster.shards);
    PutU64(payload, cluster.image.size());
    payload += cluster.image;
  }
  return SealEnvelope(kFedMagic, kFedSnapshotVersion, payload);
}

Status SaveFedSnapshot(const FedSnapshot& snapshot, const std::string& path) {
  if (snapshot.clusters.empty()) {
    return Status::InvalidArgument("federation snapshot has no clusters");
  }
  return WriteFileAtomic(path, EncodeFedSnapshot(snapshot));
}

StatusOr<FedSnapshot> DecodeFedSnapshot(const std::string& image,
                                        const std::string& origin) {
  StatusOr<std::string> opened =
      OpenEnvelope(image, kFedMagic, kFedSnapshotVersion, origin);
  if (!opened.ok()) {
    return opened.status();
  }
  const std::string payload = std::move(opened).value();

  FedSnapshot snapshot;
  Reader reader(payload);
  Status status = reader.U64(&snapshot.submit_seq);
  if (status.ok()) status = reader.U64(&snapshot.ledger.next_loan_id);
  if (status.ok()) status = reader.U64(&snapshot.ledger.total_granted);
  if (status.ok()) status = reader.U64(&snapshot.ledger.total_reclaimed);
  if (status.ok()) status = reader.U64(&snapshot.ledger.total_returned);
  if (status.ok()) status = reader.U64(&snapshot.ledger.ledger_hash);
  if (!status.ok()) {
    return status;
  }
  std::uint32_t loan_count = 0;
  status = reader.U32(&loan_count);
  if (!status.ok()) {
    return status;
  }
  if (loan_count > 1 << 20) {
    return Status::DataLoss("implausible loan count in snapshot: " +
                            std::to_string(loan_count));
  }
  snapshot.ledger.loans.reserve(loan_count);
  for (std::uint32_t i = 0; i < loan_count; ++i) {
    FedLoan loan;
    status = reader.U64(&loan.id);
    if (status.ok()) status = reader.U32(&loan.lender);
    if (status.ok()) status = reader.U32(&loan.borrower);
    if (status.ok()) status = reader.I64(&loan.gpus);
    if (status.ok()) status = reader.F64(&loan.granted_at);
    if (!status.ok()) {
      return status;
    }
    snapshot.ledger.loans.push_back(loan);
  }
  std::uint32_t cluster_count = 0;
  status = reader.U32(&cluster_count);
  if (!status.ok()) {
    return status;
  }
  if (cluster_count == 0 || cluster_count > 256) {
    return Status::DataLoss("implausible cluster count in snapshot: " +
                            std::to_string(cluster_count));
  }
  snapshot.clusters.reserve(cluster_count);
  std::uint64_t engines = 0;
  for (std::uint32_t i = 0; i < cluster_count; ++i) {
    FedClusterImage cluster;
    status = reader.Str(&cluster.name);
    if (status.ok()) status = reader.U8(&cluster.kind);
    if (status.ok()) status = reader.I64(&cluster.loan_priority);
    if (status.ok()) status = reader.U32(&cluster.shards);
    if (!status.ok()) {
      return status;
    }
    // Checked here, before a restore constructs any engine.
    engines += cluster.shards;
    if (cluster.shards == 0 ||
        engines > static_cast<std::uint64_t>(kMaxEngines)) {
      return Status::DataLoss("federation engine count must be in [1, " +
                              std::to_string(kMaxEngines) + "]: " + origin);
    }
    std::uint64_t image_size = 0;
    status = reader.U64(&image_size);
    if (status.ok()) status = reader.Bytes(&cluster.image, image_size);
    if (!status.ok()) {
      return status;
    }
    snapshot.clusters.push_back(std::move(cluster));
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes in snapshot payload: " + origin);
  }
  return snapshot;
}

StatusOr<FedSnapshot> LoadFedSnapshot(const std::string& path) {
  StatusOr<std::string> read = ReadFile(path);
  if (!read.ok()) {
    return read.status();
  }
  return DecodeFedSnapshot(read.value(), path);
}

}  // namespace lyra::svc
