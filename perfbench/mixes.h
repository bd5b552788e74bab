// Benchmark-side transaction mixes and the per-thread recorder that
// accounts every transaction the workloads::Driver runs through them.
//
// The mixes issue the same TATP and SmallBank profiles as
// src/workloads/, but through Txn, a thin wrapper over the public
// txn::Coordinator API that can time each call. That keeps every timer
// and span in the benchmark's own files: nothing under src/ changes.

#ifndef PERFBENCH_MIXES_H_
#define PERFBENCH_MIXES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "common/status.h"
#include "txn/coordinator.h"
#include "workloads/workload.h"

namespace perfbench {

using pandora::Random;
using pandora::Status;

/// Span kinds: one per transaction, one per Coordinator call the mixes
/// make, and one per injected cluster event.
enum class SpanKind : uint8_t {
  kTxn,
  kBegin,
  kRead,
  kWrite,
  kInsert,
  kDelete,
  kCommit,
  kEvent,
};
const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t txn_id = 0;  // Shared by a transaction and its child spans.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  SpanKind kind = SpanKind::kTxn;
  uint32_t thread = 0;
};

/// Timing window and tracing switches of one driver pass. Read-only while
/// the pass runs.
struct PassClock {
  uint64_t run_start_ns = 0;
  uint64_t window_start_ns = 0;  // End of the warm-up.
  uint64_t window_end_ns = 0;
  uint64_t bin_ns = 10'000'000;
  size_t bins = 0;
  /// Time every Coordinator call and record spans.
  bool trace = false;
  /// Count heap allocations per transaction (exact only when transactions
  /// never interleave on a thread, i.e. with zero network latency).
  bool count_allocs = false;
  /// Spans are recorded for one traced transaction in this many, so the
  /// kept spans reach further into the window.
  uint64_t span_sample_every = 16;
  /// Spans kept per thread; later ones are not recorded.
  size_t span_cap_per_thread = 50'000;
};

/// Transaction outcome classes, as the benchmark counts them.
enum Outcome : int {
  kCommitted = 0,
  kAborted,
  kBusy,
  kUnavailable,  // Unavailable or PermissionDenied: the node crashed or
                 // was fenced.
  kUnexpected,   // Any other status: a benchmark failure.
  kNumOutcomes,
};
Outcome Classify(const Status& status);

/// Per-worker-thread accounting. Only its owning thread writes it while a
/// pass runs (fibers of one thread never preempt each other mid-update).
struct ThreadLog {
  uint32_t thread = 0;
  uint64_t all[kNumOutcomes] = {};     // Whole pass, warm-up included.
  uint64_t window[kNumOutcomes] = {};  // Transactions ending in the window.
  std::vector<uint32_t> commit_latency_ns;  // Window commits.
  std::vector<uint32_t> bins;  // Commits per bin, whole pass.
  // Traced passes, window transactions only.
  std::vector<uint32_t> begin_ns, exec_ns, commit_ns;  // Per commit.
  uint64_t traced_txns = 0;
  uint64_t txn_wall_ns = 0;   // Sum of transaction span durations.
  uint64_t call_wall_ns = 0;  // Sum of child (Coordinator call) spans.
  uint64_t allocs = 0;        // Heap allocations inside transactions.
  std::vector<Span> spans;
};

/// Owns the per-thread logs of one pass.
class Recorder {
 public:
  explicit Recorder(const PassClock& clock) : clock_(clock) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  const PassClock& clock() const { return clock_; }
  /// The calling thread's log (created on first use).
  ThreadLog* Local();
  uint64_t NextTxnId() {
    return next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Records an event span (any thread; rare).
  void AddEvent(const std::string& name, uint64_t start_ns, uint64_t end_ns);

  /// Snapshot accessors, valid after the pass.
  const std::vector<std::unique_ptr<ThreadLog>>& logs() const {
    return logs_;
  }
  const std::vector<std::pair<std::string, Span>>& events() const {
    return events_;
  }

 private:
  PassClock clock_;
  std::mutex mu_;  // Guards logs_ growth and events_.
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::vector<std::pair<std::string, Span>> events_;
  std::atomic<uint64_t> next_txn_id_{1};
  const uint64_t generation_ = next_generation_.fetch_add(1) + 1;
  static std::atomic<uint64_t> next_generation_;
};

/// The transactional API of txn::Coordinator, with optional per-call
/// timing and spans (kept while the thread holds fewer than `span_cap`).
/// One Txn lives on the stack of one transaction.
class Txn {
 public:
  Txn(pandora::txn::Coordinator* coord, ThreadLog* traced, uint64_t txn_id,
      size_t span_cap)
      : coord_(coord), log_(traced), txn_id_(txn_id), span_cap_(span_cap) {}

  Status Begin();
  Status Read(pandora::store::TableId table, pandora::store::Key key,
              std::string* value);
  Status Write(pandora::store::TableId table, pandora::store::Key key,
               pandora::Slice value);
  Status Insert(pandora::store::TableId table, pandora::store::Key key,
                pandora::Slice value);
  Status Delete(pandora::store::TableId table, pandora::store::Key key);
  Status Commit();

  uint64_t begin_ns() const { return phase_ns_[0]; }
  uint64_t exec_ns() const { return phase_ns_[1]; }
  uint64_t commit_ns() const { return phase_ns_[2]; }

 private:
  template <typename Fn>
  Status Timed(SpanKind kind, Fn&& fn);

  pandora::txn::Coordinator* coord_;
  ThreadLog* log_;  // Null: untimed pass-through.
  uint64_t txn_id_;
  size_t span_cap_;
  uint64_t phase_ns_[3] = {};  // Begin, execution calls, Commit.
};

/// A transaction mix over an already loaded cluster.
class Mix {
 public:
  virtual ~Mix() = default;
  /// Resolves the mix's tables by name after the loader ran.
  virtual void Bind(const pandora::cluster::Cluster& cluster) = 0;
  virtual Status Run(Txn* tx, Random* rng) = 0;
  /// Appends `n` (table, key) pairs drawn like the mix's own accesses.
  virtual void KeyStream(Random* rng, size_t n,
                         std::vector<std::pair<pandora::store::TableId,
                                               pandora::store::Key>>* out)
      const = 0;
  /// Read-only sweep over every loaded object in chunked transactions.
  /// Returns the first failure; every chunk must commit.
  virtual Status Sweep(pandora::txn::Coordinator* coord) = 0;
};

/// TATP's standard seven-profile mix (80% read-only), uniform keys.
std::unique_ptr<Mix> MakeTatpMix(uint64_t subscribers);

struct BankMixConfig {
  uint64_t num_accounts = 10'000;
  uint32_t hot_percent = 90;
  uint64_t hot_accounts = 100;
  /// Balance / Amalgamate / SendPayment only: the total never changes.
  bool conserving_only = false;
};

/// SmallBank's six-profile mix (85% writes) and its money audit.
class BankMix : public Mix {
 public:
  explicit BankMix(const BankMixConfig& config) : config_(config) {}
  void Bind(const pandora::cluster::Cluster& cluster) override;
  Status Run(Txn* tx, Random* rng) override;
  Status Sweep(pandora::txn::Coordinator* coord) override;
  void KeyStream(Random* rng, size_t n,
                 std::vector<std::pair<pandora::store::TableId,
                                       pandora::store::Key>>* out)
      const override;

  /// Net money created by committed non-conserving profiles.
  int64_t committed_delta() const {
    return committed_delta_.load(std::memory_order_acquire);
  }
  /// Sum of all balances read by the last Sweep.
  int64_t swept_total() const { return swept_total_; }

 private:
  uint64_t PickAccount(Random* rng) const;
  uint64_t PickOther(Random* rng, uint64_t account) const;

  BankMixConfig config_;
  pandora::store::TableId savings_ = 0;
  pandora::store::TableId checking_ = 0;
  std::atomic<int64_t> committed_delta_{0};
  int64_t swept_total_ = 0;
};

/// Looks up a table id by name; aborts the benchmark if absent.
pandora::store::TableId TableByName(const pandora::cluster::Cluster& cluster,
                                    const std::string& name);

/// The workloads::Workload the Driver runs: the mix, wrapped with outcome,
/// latency and (in traced passes) per-call accounting.
class BenchWorkload : public pandora::workloads::Workload {
 public:
  BenchWorkload(Mix* mix, Recorder* recorder)
      : mix_(mix), recorder_(recorder) {}
  std::string name() const override { return "perfbench"; }
  Status Setup(pandora::cluster::Cluster* cluster) override;
  Status RunTransaction(pandora::txn::Coordinator* coord,
                        Random* rng) override;

 private:
  Mix* mix_;
  Recorder* recorder_;
};

/// Heap allocations made by the calling thread so far (alloc_count.cc).
uint64_t ThreadAllocations();

}  // namespace perfbench

#endif  // PERFBENCH_MIXES_H_
