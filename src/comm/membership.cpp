#include "comm/membership.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/knobs.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace dmis::comm {
namespace {

std::string dims_str(const std::vector<int64_t>& dims) {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < dims.size(); ++i) {
    if (i != 0) os << ',';
    os << dims[i];
  }
  os << ']';
  return os.str();
}

}  // namespace

const char* membership_error_kind_name(MembershipErrorKind kind) {
  switch (kind) {
    case MembershipErrorKind::kShapeMismatch: return "SHAPE_MISMATCH";
    case MembershipErrorKind::kRejected: return "REJECTED";
    case MembershipErrorKind::kTimeout: return "TIMEOUT";
    case MembershipErrorKind::kShutdown: return "SHUTDOWN";
  }
  return "?";
}

std::string describe_signature_mismatch(const WorldSignature& world,
                                        const WorldSignature& joiner) {
  if (world.size() != joiner.size()) {
    std::ostringstream os;
    os << "parameter count differs: world has " << world.size()
       << ", joiner has " << joiner.size();
    return os.str();
  }
  for (size_t i = 0; i < world.size(); ++i) {
    if (world[i].name != joiner[i].name) {
      return "parameter " + std::to_string(i) + " name differs: world '" +
             world[i].name + "' vs joiner '" + joiner[i].name + "'";
    }
    if (world[i].dims != joiner[i].dims) {
      return "parameter '" + world[i].name + "' shape differs: world " +
             dims_str(world[i].dims) + " vs joiner " +
             dims_str(joiner[i].dims);
    }
  }
  return "";
}

MembershipService::MembershipService(int world, WorldSignature signature,
                                     std::optional<int64_t> lease_ms)
    : signature_(std::move(signature)),
      lease_ms_(knobs::get<int64_t>(Knob::kCommLeaseMs, lease_ms)),
      world_(world),
      lease_us_(static_cast<size_t>(world), 0) {
  DMIS_CHECK(world >= 1, "membership needs >= 1 rank, got " << world);
  DMIS_CHECK(lease_ms_ > 0, "lease_ms must be > 0, got " << lease_ms_);
}

MembershipService::~MembershipService() { shutdown(); }

int MembershipService::world() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return world_;
}

int64_t MembershipService::epoch() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

void MembershipService::renew(int rank, int64_t beat_us) {
  const std::lock_guard<std::mutex> lock(mutex_);
  DMIS_CHECK(rank >= 0 && rank < world_,
             "lease renewal for rank " << rank << " outside world "
                                       << world_);
  auto& lease = lease_us_[static_cast<size_t>(rank)];
  lease = std::max(lease, beat_us);
}

bool MembershipService::lease_valid(int rank, int64_t now_us) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  DMIS_CHECK(rank >= 0 && rank < world_,
             "lease query for rank " << rank << " outside world " << world_);
  return now_us - lease_us_[static_cast<size_t>(rank)] <= lease_ms_ * 1000;
}

std::vector<int> MembershipService::expired_ranks(int64_t now_us) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> out;
  for (int r = 0; r < world_; ++r) {
    if (now_us - lease_us_[static_cast<size_t>(r)] > lease_ms_ * 1000) {
      out.push_back(r);
    }
  }
  return out;
}

void MembershipService::set_world(int world, int64_t now_us) {
  DMIS_CHECK(world >= 1, "membership needs >= 1 rank, got " << world);
  const std::lock_guard<std::mutex> lock(mutex_);
  world_ = world;
  lease_us_.assign(static_cast<size_t>(world), now_us);
  ++epoch_;
}

MembershipService::Join* MembershipService::find_locked(int64_t id) {
  for (Join& j : joins_) {
    if (j.id == id) return &j;
  }
  return nullptr;
}

JoinTicket MembershipService::request_join(WorldSignature signature) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Join join;
  join.id = next_ticket_++;
  join.signature = std::move(signature);
  if (shutdown_) {
    join.state = JoinState::kRejected;
    join.reject_kind = MembershipErrorKind::kShutdown;
    join.reject_why = "membership service shut down";
  }
  joins_.push_back(std::move(join));
  obs::MetricsRegistry::instance().counter("comm.membership.join_requests")
      .add(1);
  return JoinTicket{joins_.back().id};
}

int MembershipService::await_admission(const JoinTicket& ticket,
                                       int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  Join* join = find_locked(ticket.id);
  DMIS_CHECK(join != nullptr, "unknown join ticket " << ticket.id);
  join->parked = true;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // The deadline only bounds the *pending* wait. Once admitted, the
  // driver is mid-transition and the commit is imminent — bailing out
  // here would leave the enlarged world one joiner short — so an
  // admitted ticket waits for commit (or shutdown) without a timeout.
  while (true) {
    join = find_locked(ticket.id);  // joins_ may have been compacted
    DMIS_CHECK(join != nullptr, "join ticket " << ticket.id << " vanished");
    if (join->state == JoinState::kRejected) {
      const MembershipErrorKind kind = join->reject_kind;
      const std::string why = join->reject_why;
      joins_.erase(joins_.begin() + (join - joins_.data()));
      throw MembershipError(kind, "join rejected (" +
                                      std::string(membership_error_kind_name(
                                          kind)) +
                                      "): " + why);
    }
    if (join->state == JoinState::kCommitted) {
      const int rank = join->rank;
      joins_.erase(joins_.begin() + (join - joins_.data()));
      return rank;
    }
    if (join->state == JoinState::kPending) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        join = find_locked(ticket.id);
        DMIS_CHECK(join != nullptr,
                   "join ticket " << ticket.id << " vanished");
        if (join->state == JoinState::kPending) {
          joins_.erase(joins_.begin() + (join - joins_.data()));
          throw MembershipError(
              MembershipErrorKind::kTimeout,
              "join not admitted within " + std::to_string(timeout_ms) +
                  " ms (no epoch boundary reached, or grow disabled)");
        }
      }
    } else {
      cv_.wait(lock);
    }
  }
}

size_t MembershipService::pending() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<size_t>(
      std::count_if(joins_.begin(), joins_.end(), [](const Join& j) {
        return j.state == JoinState::kPending;
      }));
}

size_t MembershipService::parked() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<size_t>(
      std::count_if(joins_.begin(), joins_.end(), [](const Join& j) {
        return j.state == JoinState::kPending && j.parked;
      }));
}

int MembershipService::admit_pending() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) return 0;
  int admitted = 0;
  bool rejected = false;
  for (Join& j : joins_) {
    if (j.state != JoinState::kPending || !j.parked) continue;
    const std::string mismatch =
        describe_signature_mismatch(signature_, j.signature);
    if (!mismatch.empty()) {
      j.state = JoinState::kRejected;
      j.reject_kind = MembershipErrorKind::kShapeMismatch;
      j.reject_why = mismatch;
      rejected = true;
      DMIS_LOG(kWarn) << "membership: rejecting joiner (ticket " << j.id
                     << "): " << mismatch;
      obs::MetricsRegistry::instance()
          .counter("comm.membership.joins_rejected")
          .add(1);
      continue;
    }
    j.state = JoinState::kAdmitted;
    j.rank = world_ + admitted;
    ++admitted;
  }
  if (rejected) cv_.notify_all();
  return admitted;
}

int MembershipService::commit_transition(int64_t now_us) {
  const std::lock_guard<std::mutex> lock(mutex_);
  int admitted = 0;
  for (Join& j : joins_) {
    if (j.state == JoinState::kAdmitted) {
      j.state = JoinState::kCommitted;
      ++admitted;
    }
  }
  if (admitted > 0) {
    world_ += admitted;
    lease_us_.assign(static_cast<size_t>(world_), now_us);
    ++epoch_;
    obs::MetricsRegistry::instance()
        .counter("comm.membership.joins_admitted")
        .add(admitted);
    cv_.notify_all();
  }
  return world_;
}

void MembershipService::shutdown() {
  const std::lock_guard<std::mutex> lock(mutex_);
  shutdown_ = true;
  bool woke = false;
  for (Join& j : joins_) {
    if (j.state == JoinState::kPending || j.state == JoinState::kAdmitted) {
      j.state = JoinState::kRejected;
      j.reject_kind = MembershipErrorKind::kShutdown;
      j.reject_why = "membership service shut down";
      woke = true;
    }
  }
  if (woke) cv_.notify_all();
}

}  // namespace dmis::comm
