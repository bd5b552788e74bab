#ifndef PANDORA_RDMA_QUEUE_PAIR_H_
#define PANDORA_RDMA_QUEUE_PAIR_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"
#include "rdma/network_model.h"
#include "rdma/protection_domain.h"
#include "rdma/types.h"
#include "rdma/verb_schedule.h"

namespace pandora {
namespace rdma {

/// A reliable-connected (RC) queue pair from one compute server to one
/// memory server. Verbs are synchronous: the call applies the operation at
/// the remote region and returns after the simulated round-trip time.
///
/// RC semantics preserved from real hardware (§2.1 "Consistency and Failure
/// Model"): verbs issued on the same QP apply in issue order, and the
/// transport neither drops nor duplicates messages (retransmission is the
/// transport's job). Failure semantics: if this QP's compute node has been
/// halted (crash emulation) the verb does not reach memory at all; if the
/// node's rights were revoked at the memory server (active-link
/// termination) the verb is dropped at the remote NIC.
class QueuePair {
 public:
  QueuePair(NodeId src, ProtectionDomain* remote, const NetworkModel* net,
            const std::atomic<bool>* src_halted,
            VerbHookSlot* hook_slot = nullptr)
      : src_(src),
        remote_(remote),
        net_(net),
        src_halted_(src_halted),
        hook_slot_(hook_slot) {}

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  NodeId src() const { return src_; }
  NodeId dst() const { return remote_->owner(); }

  /// One-sided RDMA Read of `len` bytes at (rkey, offset) into `dst`.
  Status Read(RKey rkey, uint64_t offset, void* dst, size_t len);

  /// One-sided RDMA Write of `len` bytes from `src` to (rkey, offset).
  Status Write(RKey rkey, uint64_t offset, const void* src, size_t len);

  /// One-sided RDMA Compare-And-Swap on the 64-bit word at (rkey, offset).
  /// Always returns the observed pre-operation value in `*observed`; the
  /// swap succeeded iff *observed == expected (hardware semantics).
  Status CompareSwap(RKey rkey, uint64_t offset, uint64_t expected,
                     uint64_t desired, uint64_t* observed);

  /// One-sided RDMA Fetch-And-Add on the 64-bit word at (rkey, offset).
  Status FetchAdd(RKey rkey, uint64_t offset, uint64_t delta,
                  uint64_t* old_value);

  /// --- Deferred-completion variants (doorbell batching) ---------------
  /// Apply the operation immediately and report the verb's RTT without
  /// waiting. VerbBatch uses these to model a group of verbs issued in the
  /// same doorbell: they fly in parallel, so the batch completes after the
  /// *maximum* RTT, not the sum.
  Status PostRead(RKey rkey, uint64_t offset, void* dst, size_t len,
                  uint64_t* rtt_ns);
  Status PostWrite(RKey rkey, uint64_t offset, const void* src, size_t len,
                   uint64_t* rtt_ns);
  Status PostCompareSwap(RKey rkey, uint64_t offset, uint64_t expected,
                         uint64_t desired, uint64_t* observed,
                         uint64_t* rtt_ns);

 private:
  Status CheckHalted() const;
  /// A verb the schedule hook dropped fails exactly like a verb issued by
  /// a freshly-dead node.
  Status DroppedVerbStatus() const;
  void Wait(uint64_t rtt_ns) const;

  NodeId src_;
  ProtectionDomain* remote_;
  const NetworkModel* net_;
  const std::atomic<bool>* src_halted_;
  /// The Fabric's verb-schedule hook slot (nullptr for QPs built outside a
  /// fabric). One relaxed load per verb when no hook is installed.
  VerbHookSlot* hook_slot_;
  /// Per-QP issue index of the verbs a schedule hook saw, tagged into
  /// VerbDesc::qp_seq. Atomic: every thread of the compute node shares
  /// this QP.
  std::atomic<uint64_t> seq_{0};
};

/// Groups verbs (possibly across several queue pairs / memory servers) that
/// the coordinator issues back-to-back without waiting for completions —
/// e.g. "write the undo log to all f+1 log servers" or "apply the write to
/// the primary and every backup". The batch completes after the slowest
/// verb's round trip.
class VerbBatch {
 public:
  VerbBatch() = default;

  void Read(QueuePair* qp, RKey rkey, uint64_t offset, void* dst,
            size_t len);
  void Write(QueuePair* qp, RKey rkey, uint64_t offset, const void* src,
             size_t len);
  void CompareSwap(QueuePair* qp, RKey rkey, uint64_t offset,
                   uint64_t expected, uint64_t desired, uint64_t* observed);

  /// Waits out the slowest round trip; returns the first verb error, if any.
  Status Execute();

  /// Slowest round trip posted so far. An OrderedBatch chain that fires in
  /// the same doorbell group passes this to its Execute() so one wait
  /// covers both; the caller then drains this batch with Collect().
  uint64_t pending_max_rtt_ns() const { return max_rtt_ns_; }

  /// Returns the first verb error and resets, without waiting — for a
  /// batch whose round trip was covered by another wait in the same
  /// doorbell group.
  Status Collect();

  size_t size() const { return count_; }

  /// Simulated nanoseconds the previous Execute() waited out — the slowest
  /// single round trip, never a per-verb sum. Deterministic, unlike
  /// wall-clock measurements of the spin wait.
  uint64_t last_wait_ns() const { return last_wait_ns_; }

 private:
  void Record(const Status& status, uint64_t rtt_ns);

  Status first_error_;
  uint64_t max_rtt_ns_ = 0;
  uint64_t last_wait_ns_ = 0;
  size_t count_ = 0;
};

}  // namespace rdma
}  // namespace pandora

#endif  // PANDORA_RDMA_QUEUE_PAIR_H_
