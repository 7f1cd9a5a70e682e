// Versioned binary snapshot of the online scheduler service (DESIGN.md §8).
//
// A snapshot is *logical*, not a memory image: it stores the EngineConfig and
// the ordered log of mutating commands (submit / cancel / advance / drain),
// each stamped with the virtual time it was applied at, plus the engine's
// position (horizon) when the snapshot was taken. Restore rebuilds the engine
// from the config and replays the log — StepUntil(stamp) then re-apply, the
// exact discipline the live service uses — then steps to the horizon. Because
// the engine is seed-deterministic and StepUntil chunk boundaries never change
// behaviour, the restored service's decision log and fault-log hash are
// byte-identical to an uninterrupted run's (ctest-enforced).
//
// File layout: the checksummed envelope of src/common/envelope.h with magic
// "LYRASNAP" and version kSnapshotVersion around the payload (EngineConfig,
// command count, commands, horizon; integers little-endian, doubles as
// IEEE-754 bit patterns).
#ifndef SRC_SVC_SNAPSHOT_H_
#define SRC_SVC_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/svc/registry.h"
#include "src/workload/job.h"

namespace lyra::svc {

// v2 added EngineConfig::policy_weights (the learned scheduler's LYRAPOL
// path). Decoding is strict: any other version is rejected, not migrated.
inline constexpr std::uint32_t kSnapshotVersion = 2;

enum class CommandKind : std::uint8_t {
  kSubmit = 1,
  kCancel = 2,
  kAdvance = 3,  // explicit StepUntil(stamp)
  kDrain = 4,    // run to quiescence
};

const char* CommandKindName(CommandKind kind);

// One mutating command, as replayed on restore. `stamp` is the virtual time
// the command was applied at (the engine steps to it before re-applying).
struct LoggedCommand {
  CommandKind kind = CommandKind::kSubmit;
  TimeSec stamp = 0.0;
  JobSpec spec;            // kSubmit only (id is reassigned on replay)
  std::int64_t job = -1;   // kCancel only

  friend bool operator==(const LoggedCommand&, const LoggedCommand&) = default;
};

struct ServiceSnapshot {
  EngineConfig config;
  std::vector<LoggedCommand> commands;
  // Engine position when the snapshot was taken; restore steps here after
  // the replay so the service resumes exactly where it left off.
  TimeSec horizon = 0.0;
};

Status SaveSnapshot(const ServiceSnapshot& snapshot, const std::string& path);

// NotFound for a missing file, InvalidArgument on bad magic or an
// unsupported version, DataLoss on a truncated file, a checksum mismatch or
// trailing bytes.
StatusOr<ServiceSnapshot> LoadSnapshot(const std::string& path);

// String-level codec for the exact LYRASNAP file image (magic + version +
// payload + checksum). SaveSnapshot == EncodeSnapshot + atomic file write;
// LoadSnapshot == file read + DecodeSnapshot. Exposed so the multi-shard
// container below can carry each shard's image byte-for-byte, and so tests
// can round-trip snapshots without touching the filesystem. `origin` only
// flavors error messages (a path or a "shard k" tag).
std::string EncodeSnapshot(const ServiceSnapshot& snapshot);
StatusOr<ServiceSnapshot> DecodeSnapshot(const std::string& image,
                                         const std::string& origin);

// Multi-shard snapshot container (DESIGN.md §10). Wraps N complete LYRASNAP
// images — one per engine shard, stored byte-identically — plus the front
// end's submit-routing sequence number, so a warm restart resumes routing
// keyless submits to the same shards an uninterrupted run would have.
//
// File layout: the src/common/envelope.h envelope with magic "LYRASHRD"
// around the payload u32 shard count, u64 submit_seq, then per shard: u64
// image size + LYRASNAP image bytes.
inline constexpr std::uint32_t kMultiSnapshotVersion = 1;

// Most engines one process runs: the shards of one fleet, or all shards of
// all clusters in a federation. Builders refuse more, and the decoders
// reject a snapshot holding more before any engine is constructed.
inline constexpr int kMaxEngines = 64;

struct MultiSnapshot {
  std::uint64_t submit_seq = 0;
  std::vector<std::string> shard_images;  // one LYRASNAP file image per shard
};

// One shard degrades to a plain LYRASNAP file (bit-identical with what the
// unsharded service writes); two or more get the LYRASHRD envelope.
Status SaveMultiSnapshot(const MultiSnapshot& snapshot, const std::string& path);

// Accepts both formats: a plain LYRASNAP file loads as a one-shard
// MultiSnapshot with submit_seq 0. Error classes match LoadSnapshot.
StatusOr<MultiSnapshot> LoadMultiSnapshot(const std::string& path);

// String-level codec for the multi-shard container, mirroring
// EncodeSnapshot/DecodeSnapshot: EncodeMultiSnapshot returns the exact bytes
// SaveMultiSnapshot would write (a plain LYRASNAP image at one shard, the
// LYRASHRD envelope otherwise); DecodeMultiSnapshot accepts both. Exposed so
// the federation container below can nest per-cluster images byte-for-byte.
std::string EncodeMultiSnapshot(const MultiSnapshot& snapshot);
StatusOr<MultiSnapshot> DecodeMultiSnapshot(const std::string& image,
                                            const std::string& origin);

// Federation snapshot container (DESIGN.md §11). Wraps one complete
// LYRASHRD/LYRASNAP image per cluster — stored byte-identically, so each
// cluster warm-restarts exactly as a standalone fleet would — plus the
// federation front end's submit-routing sequence number and the loan
// broker's ledger (active loans + rolling event hash), so a restart resumes
// routing, granting, and reclaiming exactly where the killed process was.
//
// File layout: the src/common/envelope.h envelope with magic "LYRAFED_"
// around the payload u64 submit_seq, broker ledger, u32 cluster count, then
// per cluster: name, u8 kind, i64 loan_priority, u32 shards, u64 image size
// + image bytes.
inline constexpr std::uint32_t kFedSnapshotVersion = 1;

// One outstanding cross-cluster loan, as carried in the broker ledger.
struct FedLoan {
  std::uint64_t id = 0;
  std::uint32_t lender = 0;    // inference cluster index
  std::uint32_t borrower = 0;  // training cluster index
  std::int64_t gpus = 0;
  double granted_at = 0.0;

  friend bool operator==(const FedLoan&, const FedLoan&) = default;
};

// Broker ledger totals + active loans; ledger_hash is the rolling FNV-1a of
// every event line the broker ever emitted (the byte-identity witness).
struct FedLedger {
  std::uint64_t next_loan_id = 0;
  std::uint64_t total_granted = 0;
  std::uint64_t total_reclaimed = 0;
  std::uint64_t total_returned = 0;
  std::uint64_t ledger_hash = 0;
  std::vector<FedLoan> loans;

  friend bool operator==(const FedLedger&, const FedLedger&) = default;
};

struct FedClusterImage {
  std::string name;
  std::uint8_t kind = 0;  // ClusterKind as a byte (0 inference, 1 training)
  std::int64_t loan_priority = 0;
  std::uint32_t shards = 1;
  std::string image;  // complete LYRASHRD/LYRASNAP file image
};

struct FedSnapshot {
  std::uint64_t submit_seq = 0;
  FedLedger ledger;
  std::vector<FedClusterImage> clusters;
};

Status SaveFedSnapshot(const FedSnapshot& snapshot, const std::string& path);
StatusOr<FedSnapshot> LoadFedSnapshot(const std::string& path);
std::string EncodeFedSnapshot(const FedSnapshot& snapshot);
StatusOr<FedSnapshot> DecodeFedSnapshot(const std::string& image,
                                        const std::string& origin);

}  // namespace lyra::svc

#endif  // SRC_SVC_SNAPSHOT_H_
