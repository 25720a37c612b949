// MirroredStrategy: real data-parallel training over in-process replicas.
//
// The paper's data-parallel path replicates the model on every GPU
// (tf.MirroredStrategy within a node, Ray.SGD across nodes) and splits
// each global batch across replicas, synchronizing gradients with an
// allreduce every step. Here replicas are threads: each owns a full
// model copy (identical initialization via a shared seed) and runs its
// own ModelStep (train/trainer.hpp) on its shard, with the gradient sync
// plugged in before the optimizer step: the chunked ring allreduce
// from dmis_comm — by default through GradBucketer, which packs them
// into flat buckets and launches each bucket's allreduce asynchronously
// as soon as backward finishes producing it (bucket_bytes = 0 restores
// the blocking per-tensor path) — weighted by per-replica sample counts
// so ragged final batches remain exact. Because every replica then
// applies the same averaged gradient to the same parameters with the
// same optimizer state, the replicas stay bit-identical — exactly the
// mirrored-variable invariant of the TF strategy.
//
// fit() runs the shared loop with one global step: split the batch, run
// the replica threads, capture failures. Replica 0 leads: it drives the
// lr schedule, is validated and is what checkpoint_path saves. Gradient
// accumulation is rejected: the bucketer fires collectives in backward.
//
// Failure semantics. A replica that dies mid-step poisons the comm
// group (see comm/communicator.hpp), so every other replica surfaces a
// typed comm::CommError instead of deadlocking in the ring. What
// happens next depends on the mode:
//  * fail-fast (default): fit() rethrows the first error — the whole
//    strategy is one unit of failure, and the tune layer's trial retry
//    owns recovery.
//  * elastic (MirroredOptions::elastic or DMIS_ELASTIC=1): survivors
//    run the comm agreement round to seal an identical dead-rank set,
//    abandon in-flight gradient buckets, rebuild the group over the
//    survivors (rescaling the linear-scaled learning rate to the new
//    world size), restore model + optimizer state from the last
//    step-consistent checkpoint in `elastic_dir`, fast-forward the
//    batch stream to the checkpointed position, and keep training at
//    the reduced world size. Recovery replays from the latest
//    checkpoint, so with the default every-step cadence at most one
//    step of work is lost per failure.
//
// Scale-UP (MirroredOptions::elastic_grow or DMIS_ELASTIC_GROW=1, on
// top of elastic): a comm::MembershipService (per-rank leases renewed
// off the collective heartbeat table, DMIS_COMM_LEASE_MS) accepts join
// requests from returning workers — request_rejoin() files one, and
// the FaultInjector restart action lets chaos tests kill a rank with
// its rejoin already scheduled. At each epoch boundary (in-flight
// buckets drained, no collective live) the driver renews survivor
// leases, validates parked joiners against the world's checkpoint
// signature (mismatches get a typed MembershipError, never a
// broadcast), appends fresh replicas, rebuilds the communicator over
// the enlarged world (fresh AlgoTuner calibration and StragglerDetector
// baselines), broadcasts rank 0's weights + optimizer slots +
// __progress__ to everyone, rescales the learning rate back up,
// re-imports the survivors' top-k error-feedback residuals (the bucket
// layout is parameter-determined, so exported state fits the rebuilt
// bucketers exactly; joiners start with zero residual), and commits
// the membership transition — survivors and joiners leave the barrier
// agreeing on the new world. Both shrink and grow emit a tagged
// flight-recorder dump and update the train.elastic.world_size gauge.
//
// The step-consistent checkpoint piggybacks on nn::save_checkpoint
// (temp file + fsync + atomic rename, CRC-protected): it stores replica
// 0's checkpoint_params(), the optimizer slot state, and a __progress__
// rider (epoch / step / optimizer step count / running loss sum), and
// is written by the driver thread between steps — never mid-collective
// — which is what makes it step-consistent. Mid-epoch restores assume
// the batch stream replays the same batch sequence after reset()
// (true for the deterministic pipelines used here).
//
// Batch-norm note: like the TF strategy (without SyncBatchNorm), batch
// statistics are computed per replica on its local shard; running stats
// therefore diverge slightly across replicas, and evaluation uses
// replica 0. With batch_norm disabled the strategy is numerically
// equivalent to single-device training on the global batch (tested).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/algorithms.hpp"
#include "comm/compress.hpp"
#include "common/knobs.hpp"
#include "train/trainer.hpp"

namespace dmis::comm {
class MembershipService;
}  // namespace dmis::comm

namespace dmis::train {

struct MirroredOptions {
  int num_replicas = 2;
  TrainOptions train;
  /// Scale the learning rate (the constant rate, or the cyclic base and
  /// max) linearly with the replica count (the paper's 1e-4 x #GPUs
  /// rule). In elastic mode the rate is rescaled to the surviving world
  /// size after a shrink.
  bool scale_lr = true;
  /// Gradient-bucket size cap for the fused, compute-overlapped
  /// allreduce (see train/grad_bucketer.hpp). 0 selects the legacy
  /// blocking per-tensor allreduce.
  size_t bucket_bytes = knobs::default_value<size_t>(Knob::kBucketBytes);
  /// Survive replica failure by shrinking to the survivors and
  /// restoring from the last step-consistent checkpoint, instead of
  /// failing the whole fit(). Requires `elastic_dir`.
  bool elastic = knobs::default_value<bool>(Knob::kElastic);
  /// Directory for the elastic step-consistent checkpoint (created if
  /// missing; stale *.tmp files from crashed saves are swept on fit()
  /// entry).
  std::string elastic_dir;
  /// Re-admit returning ranks at epoch boundaries (see file comment).
  /// Requires elastic mode.
  bool elastic_grow = knobs::default_value<bool>(Knob::kElasticGrow);
  /// Membership lease duration in ms handed to the MembershipService.
  /// A survivor whose collective heartbeat is older than this at an
  /// epoch boundary vetoes admission (the group is not healthy enough
  /// to grow).
  std::optional<int64_t> lease_ms;
  /// How long a request_rejoin() agent waits to be admitted before
  /// giving up with MembershipError{kTimeout}.
  int64_t join_timeout_ms = 120'000;
  /// Per-collective deadline handed to the comm group, in milliseconds
  /// (0 = no deadline). A deadline is what turns a *hung* (not crashed)
  /// rank into a typed failure.
  std::optional<int64_t> comm_timeout_ms;
  /// All-reduce schedule for gradient sync (comm/algorithms.hpp): ring
  /// by default, the bitwise-stable choice; kAuto engages the
  /// calibrated tuner. An elastic rebuild carries the same choice to
  /// the shrunken group.
  std::optional<comm::AllReduceAlgo> comm_algo;
  /// Logical ranks per node handed to the comm group topology (for the
  /// hierarchical algorithm and the tuner); 0 = flat single-node.
  std::optional<int> comm_ranks_per_node;
  /// Gradient compression for the bucketed sync path
  /// (comm/compress.hpp): fp16 wire or top-k with error feedback. An
  /// elastic rebuild keeps the codec and carries the error-feedback
  /// residuals of the surviving replicas into the shrunken group.
  comm::CompressOptions compress;
  /// Optimizer steps between step-consistent checkpoints in elastic
  /// mode (epoch boundaries always checkpoint). 1 = every step.
  int64_t checkpoint_every_steps = 1;
  /// Grace (ms) survivors wait in the post-abort agreement round for
  /// peers to register before condemning them.
  int64_t agree_grace_ms = 250;
};

class MirroredStrategy {
 public:
  /// Builds `num_replicas` identical models from `model_options`.
  MirroredStrategy(const nn::UNet3dOptions& model_options,
                   const MirroredOptions& options);
  ~MirroredStrategy();

  MirroredStrategy(const MirroredStrategy&) = delete;
  MirroredStrategy& operator=(const MirroredStrategy&) = delete;

  /// Trains on `train` (its batch size is the GLOBAL batch, split across
  /// replicas each step); validates on `val` with replica 0. In elastic
  /// mode a replica failure shrinks the group and training continues;
  /// otherwise (or when no survivor remains) the first error rethrows.
  TrainReport fit(data::BatchStream& train, data::BatchStream* val,
                  const EpochCallback& callback = nullptr);

  /// Replica 0's model (the canonical trained weights; after an elastic
  /// shrink, the first surviving replica).
  nn::UNet3d& model() { return *replicas_.front(); }

  /// A specific replica's model, by current rank. The mirrored-variable
  /// invariant (and the grow broadcast) make every replica bit-identical
  /// to rank 0 after fit(); tests assert exactly that.
  nn::UNet3d& replica(int rank) { return *replicas_.at(rank); }

  /// The replica count fit() was configured with.
  int num_replicas() const { return options_.num_replicas; }

  /// Replicas currently alive (shrinks on elastic recovery).
  int world_size() const { return static_cast<int>(replicas_.size()); }

  /// True when elastic recovery is enabled (option or DMIS_ELASTIC).
  bool elastic() const;

  /// True when elastic scale-up is enabled (option or DMIS_ELASTIC_GROW).
  bool elastic_grow() const;

  /// Elastic recoveries performed so far by this strategy.
  int64_t recoveries() const;

  /// Elastic grow transitions (re-admissions) performed so far.
  int64_t grows() const;

  /// The membership service (elastic_grow only — throws otherwise).
  /// Tests use it to file joins directly, e.g. with a bad signature.
  comm::MembershipService& membership();

  /// Files a join request for one returning rank: a joiner agent thread
  /// requests admission with the world's true checkpoint signature and
  /// parks until an epoch boundary admits it (or fit() ends and the
  /// shutdown rejects it). The FaultInjector restart action calls this
  /// from the dying rank, so a chaos kill deterministically schedules
  /// its own return. Requires elastic_grow.
  void request_rejoin();

  /// Effective learning rate after the linear scaling rule, for the
  /// *current* world size.
  double effective_lr() const;

 private:
  struct Impl;

  /// (Re)creates comms / replica steps / bucketers for the replicas
  /// currently in `replicas_` — at construction and after an elastic
  /// shrink or grow.
  void build_group();

  MirroredOptions options_;
  /// Kept so elastic grow can construct joiner replicas identical to
  /// the originals (same seed -> same initial weights, overwritten by
  /// the state broadcast anyway; same shapes is what matters).
  nn::UNet3dOptions model_options_;
  std::vector<std::unique_ptr<nn::UNet3d>> replicas_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dmis::train
