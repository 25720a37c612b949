// Lease-based group membership — the elastic scale-UP half of fault
// tolerance.
//
// The shrink direction (communicator.hpp: poison pill + sealed
// failure agreement) lets survivors continue without a dead rank, but a
// recovered node had no way back in: every fault permanently degraded
// the world. This module is the missing admission protocol, modeled on
// the lease/heartbeat membership services of elastic training systems
// (Horovod Elastic, TorchElastic's rendezvous):
//
//  * Leases. Every rank of the current world holds a *lease* that must
//    be renewed within `lease_ms` (DMIS_COMM_LEASE_MS).
//    The driver renews leases off the communicator's existing heartbeat
//    table (CollectiveContext::last_beat_us — stamped at every
//    collective entry), so a rank that stops making collective progress
//    lets its lease lapse without any new instrumentation in the hot
//    path. An expired lease vetoes admission: a group that cannot even
//    keep its own leases fresh must not take on joiners.
//
//  * Join requests. A (re)joining worker files request_join() with the
//    *signature* of the world it expects — the ordered (name, shape)
//    list of the checkpoint it will be handed — and parks in
//    await_admission(). Signature validation is what turns a
//    mismatched joiner (stale binary, wrong model config) into a typed
//    MembershipError{kShapeMismatch} instead of a broadcast that
//    corrupts or deadlocks the group.
//
//  * Epoch-boundary barrier. Admission is two-phase and driven by the
//    survivors at a step-consistent point (an epoch boundary, where no
//    collective is in flight): admit_pending() validates every parked
//    join request and assigns the admitted ones their new ranks
//    (appended after the survivors); the driver then rebuilds the
//    communicator over the enlarged world and transfers state; finally
//    commit_transition() bumps the membership epoch, installs fresh
//    leases for the new world, and releases the admitted joiners —
//    survivors and joiners leave the barrier agreeing on the same
//    (world, epoch) pair. Only *parked* requests are admitted, so the
//    commit never waits on a joiner that changed its mind; a request
//    that arrives mid-transition simply waits for the next boundary.
//
// Thread model: request_join()/await_admission() are called by joiner
// threads; everything else by the single driver thread that owns the
// training loop. shutdown() (also run by the destructor) rejects every
// parked waiter so teardown can never deadlock on a forgotten joiner.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace dmis::comm {

/// Why a join request failed.
enum class MembershipErrorKind {
  kShapeMismatch,  ///< Joiner's checkpoint signature differs from the world's.
  kRejected,       ///< Refused by policy (expired leases, explicit veto).
  kTimeout,        ///< await_admission() deadline passed while still pending.
  kShutdown,       ///< The membership service was torn down.
};

const char* membership_error_kind_name(MembershipErrorKind kind);

/// Typed failure of the join protocol. A joiner must treat this as
/// "not part of the group" — never retry into a live collective.
class MembershipError : public Error {
 public:
  MembershipError(MembershipErrorKind kind, const std::string& what)
      : Error(what), kind_(kind) {}
  MembershipErrorKind kind() const { return kind_; }

 private:
  MembershipErrorKind kind_;
};

/// One parameter of the world's checkpoint contract: name + shape.
struct ParamSig {
  std::string name;
  std::vector<int64_t> dims;

  bool operator==(const ParamSig& other) const = default;
};

/// The ordered checkpoint contract a joiner must match to be handed the
/// broadcast state (weights + optimizer slots) safely.
using WorldSignature = std::vector<ParamSig>;

/// Human-readable first difference between two signatures ("" if equal).
std::string describe_signature_mismatch(const WorldSignature& world,
                                        const WorldSignature& joiner);

/// Handle for one join request; pass back to await_admission().
struct JoinTicket {
  int64_t id = -1;
};

class MembershipService {
 public:
  MembershipService(int world, WorldSignature signature,
                    std::optional<int64_t> lease_ms = std::nullopt);
  ~MembershipService();

  MembershipService(const MembershipService&) = delete;
  MembershipService& operator=(const MembershipService&) = delete;

  /// Resolved lease duration in milliseconds.
  int64_t lease_ms() const { return lease_ms_; }

  /// Current committed world size.
  int world() const;

  /// Membership generation: bumped by every commit_transition() and
  /// set_world() — survivors and joiners observing the same epoch are
  /// talking about the same group.
  int64_t epoch() const;

  /// The world's checkpoint signature (what joiners are validated against).
  const WorldSignature& signature() const { return signature_; }

  // --- leases -----------------------------------------------------------

  /// Stamps `rank`'s lease from a heartbeat timestamp (µs, the
  /// obs::Tracer::now_us clock that CollectiveContext::beat uses).
  void renew(int rank, int64_t beat_us);

  /// True when `rank`'s lease was renewed within lease_ms of `now_us`.
  bool lease_valid(int rank, int64_t now_us) const;

  /// Ranks whose leases have lapsed as of `now_us` (sorted).
  std::vector<int> expired_ranks(int64_t now_us) const;

  /// Resets the lease table for a resized world (elastic shrink uses
  /// this; grow goes through commit_transition). Every new lease starts
  /// freshly renewed at `now_us` and the epoch is bumped.
  void set_world(int world, int64_t now_us);

  // --- join protocol ----------------------------------------------------

  /// Joiner side: files an admission request carrying the joiner's
  /// checkpoint signature. Never blocks.
  JoinTicket request_join(WorldSignature signature);

  /// Joiner side: parks until the driver admits and commits this ticket
  /// (returns the assigned rank) or rejects it (throws MembershipError
  /// with the typed reason). `timeout_ms` bounds the *pending* wait; an
  /// admitted ticket waits for the imminent commit without a deadline,
  /// and shutdown() wakes it with kShutdown either way.
  int await_admission(const JoinTicket& ticket, int64_t timeout_ms);

  /// Requests currently pending (filed, not yet admitted or rejected).
  size_t pending() const;

  /// Pending requests whose joiner thread is parked in await_admission()
  /// — the ones admit_pending() will consider.
  size_t parked() const;

  /// Driver side, at an epoch boundary: validates every *parked* pending
  /// request against the world signature. Mismatches are rejected with
  /// kShapeMismatch (their waiter throws); matches become admitted and
  /// are assigned ranks world(), world()+1, ... in request order.
  /// Returns the number admitted this call.
  int admit_pending();

  /// Driver side: completes the transition admit_pending() started —
  /// grows the world by the admitted count, installs fresh leases (all
  /// renewed at `now_us`), bumps the epoch, and releases the admitted
  /// joiners with their ranks. Returns the new world size.
  int commit_transition(int64_t now_us);

  /// Rejects every pending/admitted request with kShutdown and wakes
  /// all waiters; further request_join() calls are rejected on arrival.
  /// Idempotent; run by the destructor.
  void shutdown();

 private:
  enum class JoinState { kPending, kAdmitted, kCommitted, kRejected };

  struct Join {
    int64_t id = -1;
    WorldSignature signature;
    JoinState state = JoinState::kPending;
    bool parked = false;  // a thread waits in await_admission()
    int rank = -1;
    MembershipErrorKind reject_kind = MembershipErrorKind::kRejected;
    std::string reject_why;
  };

  Join* find_locked(int64_t id);

  const WorldSignature signature_;
  int64_t lease_ms_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  int world_ = 0;
  int64_t epoch_ = 0;
  std::vector<int64_t> lease_us_;  // last renewal per rank, world_ entries
  std::vector<Join> joins_;
  int64_t next_ticket_ = 1;
  bool shutdown_ = false;
};

}  // namespace dmis::comm
