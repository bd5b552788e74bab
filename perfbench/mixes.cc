#include "mixes.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "common/coding.h"

namespace perfbench {

using pandora::NowNanos;
using pandora::Slice;
using pandora::store::Key;
using pandora::store::TableId;

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTxn: return "txn";
    case SpanKind::kBegin: return "Begin";
    case SpanKind::kRead: return "Read";
    case SpanKind::kWrite: return "Write";
    case SpanKind::kInsert: return "Insert";
    case SpanKind::kDelete: return "Delete";
    case SpanKind::kCommit: return "Commit";
    case SpanKind::kEvent: return "event";
  }
  return "?";
}

Outcome Classify(const Status& status) {
  if (status.ok()) return kCommitted;
  if (status.IsAborted()) return kAborted;
  if (status.IsBusy()) return kBusy;
  if (status.IsUnavailable() || status.IsPermissionDenied()) {
    return kUnavailable;
  }
  return kUnexpected;
}

// --- Recorder ---------------------------------------------------------

std::atomic<uint64_t> Recorder::next_generation_{0};

ThreadLog* Recorder::Local() {
  // Cached per thread and tagged with the recorder's generation, so a
  // worker thread of a later pass never reuses an earlier pass's log.
  thread_local uint64_t cached_generation = 0;
  thread_local ThreadLog* cached = nullptr;
  if (cached_generation == generation_) return cached;
  std::lock_guard<std::mutex> lock(mu_);
  auto log = std::make_unique<ThreadLog>();
  log->thread = static_cast<uint32_t>(logs_.size());
  log->bins.assign(clock_.bins, 0);
  log->commit_latency_ns.reserve(1 << 20);
  if (clock_.trace) {
    log->spans.reserve(clock_.span_cap_per_thread);
    log->begin_ns.reserve(1 << 20);
    log->exec_ns.reserve(1 << 20);
    log->commit_ns.reserve(1 << 20);
  }
  logs_.push_back(std::move(log));
  cached = logs_.back().get();
  cached_generation = generation_;
  return cached;
}

void Recorder::AddEvent(const std::string& name, uint64_t start_ns,
                        uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.txn_id = 0;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.kind = SpanKind::kEvent;
  events_.emplace_back(name, span);
}

// --- Txn --------------------------------------------------------------

template <typename Fn>
Status Txn::Timed(SpanKind kind, Fn&& fn) {
  if (log_ == nullptr) return fn();
  const uint64_t start = NowNanos();
  Status status = fn();
  const uint64_t end = NowNanos();
  const int phase = kind == SpanKind::kBegin    ? 0
                    : kind == SpanKind::kCommit ? 2
                                                : 1;
  phase_ns_[phase] += end - start;
  if (log_->spans.size() < span_cap_) {
    log_->spans.push_back({txn_id_, start, end, kind, log_->thread});
  }
  return status;
}

Status Txn::Begin() {
  return Timed(SpanKind::kBegin, [&] { return coord_->Begin(); });
}

Status Txn::Read(TableId table, Key key, std::string* value) {
  return Timed(SpanKind::kRead,
               [&] { return coord_->Read(table, key, value); });
}

Status Txn::Write(TableId table, Key key, Slice value) {
  return Timed(SpanKind::kWrite,
               [&] { return coord_->Write(table, key, value); });
}

Status Txn::Insert(TableId table, Key key, Slice value) {
  return Timed(SpanKind::kInsert,
               [&] { return coord_->Insert(table, key, value); });
}

Status Txn::Delete(TableId table, Key key) {
  return Timed(SpanKind::kDelete,
               [&] { return coord_->Delete(table, key); });
}

Status Txn::Commit() {
  return Timed(SpanKind::kCommit, [&] { return coord_->Commit(); });
}

TableId TableByName(const pandora::cluster::Cluster& cluster,
                    const std::string& name) {
  const auto& catalog = cluster.catalog();
  for (size_t i = 0; i < catalog.num_tables(); ++i) {
    const TableId id = static_cast<TableId>(i);
    if (catalog.table(id).spec.name == name) return id;
  }
  std::fprintf(stderr, "perfbench: table %s not loaded\n", name.c_str());
  std::abort();
}

// Chunked read-only transactions over [0, end) of one table; every chunk
// must commit. `visit` sees each row read.
template <typename Visit>
Status SweepTable(pandora::txn::Coordinator* coord, TableId table, Key end,
                  Visit&& visit) {
  constexpr Key kChunk = 512;
  std::vector<std::pair<Key, std::string>> rows;
  for (Key lo = 0; lo < end; lo += kChunk) {
    rows.clear();
    const Key hi = std::min(end, lo + kChunk) - 1;
    PANDORA_RETURN_NOT_OK(coord->Begin());
    PANDORA_RETURN_NOT_OK(coord->ReadRange(table, lo, hi, &rows));
    PANDORA_RETURN_NOT_OK(coord->Commit());
    for (const auto& row : rows) visit(row);
  }
  return Status::OK();
}

// --- TATP -------------------------------------------------------------

namespace {

constexpr uint32_t kTatpValueSize = 48;

// The loader's key encoding (src/workloads/tatp.h): subscriber id in the
// high bits, record type / start time in the low bits.
Key SubscriberKey(uint64_t s) { return s; }
Key AccessInfoKey(uint64_t s, uint32_t ai_type) { return (s << 3) | ai_type; }
Key SpecialFacilityKey(uint64_t s, uint32_t sf_type) {
  return (s << 3) | sf_type;
}
Key CallForwardingKey(uint64_t s, uint32_t sf_type, uint32_t start_time) {
  return (s << 5) | (sf_type << 2) | (start_time / 8);
}

void FillTatpValue(char* buf, uint64_t tag) {
  std::memset(buf, 0, kTatpValueSize);
  pandora::EncodeFixed64(buf, tag);
}

// NotFound is a legal TATP outcome for lookups of optional rows.
bool Fatal(const Status& status) {
  return !status.ok() && !status.IsNotFound();
}

class TatpMix : public Mix {
 public:
  explicit TatpMix(uint64_t subscribers) : subscribers_(subscribers) {}

  void Bind(const pandora::cluster::Cluster& cluster) override {
    subscriber_ = TableByName(cluster, "subscriber");
    access_info_ = TableByName(cluster, "access_info");
    special_facility_ = TableByName(cluster, "special_facility");
    call_forwarding_ = TableByName(cluster, "call_forwarding");
  }

  Status Run(Txn* tx, Random* rng) override {
    const uint64_t s = rng->Uniform(subscribers_);
    const uint32_t sf_type = 1 + static_cast<uint32_t>(rng->Uniform(4));
    const uint32_t ai_type = 1 + static_cast<uint32_t>(rng->Uniform(4));
    const uint32_t start_time = static_cast<uint32_t>(rng->Uniform(3)) * 8;
    const uint32_t dice = static_cast<uint32_t>(rng->Uniform(100));
    std::string value;
    char buf[kTatpValueSize];
    PANDORA_RETURN_NOT_OK(tx->Begin());
    if (dice < 35) {  // GetSubscriberData
      PANDORA_RETURN_NOT_OK(tx->Read(subscriber_, SubscriberKey(s), &value));
    } else if (dice < 45) {  // GetNewDestination
      Status status =
          tx->Read(special_facility_, SpecialFacilityKey(s, sf_type), &value);
      if (Fatal(status)) return status;
      if (status.ok()) {
        status = tx->Read(call_forwarding_,
                          CallForwardingKey(s, sf_type, start_time), &value);
        if (Fatal(status)) return status;
      }
    } else if (dice < 80) {  // GetAccessData
      const Status status =
          tx->Read(access_info_, AccessInfoKey(s, ai_type), &value);
      if (Fatal(status)) return status;
    } else if (dice < 82) {  // UpdateSubscriberData
      FillTatpValue(buf, rng->Next());
      PANDORA_RETURN_NOT_OK(tx->Write(subscriber_, SubscriberKey(s),
                                      Slice(buf, kTatpValueSize)));
      const Status status =
          tx->Write(special_facility_, SpecialFacilityKey(s, sf_type),
                    Slice(buf, kTatpValueSize));
      if (Fatal(status)) return status;
    } else if (dice < 96) {  // UpdateLocation
      FillTatpValue(buf, rng->Next());
      PANDORA_RETURN_NOT_OK(tx->Write(subscriber_, SubscriberKey(s),
                                      Slice(buf, kTatpValueSize)));
    } else if (dice < 98) {  // InsertCallForwarding
      PANDORA_RETURN_NOT_OK(tx->Read(subscriber_, SubscriberKey(s), &value));
      FillTatpValue(buf, rng->Next());
      PANDORA_RETURN_NOT_OK(
          tx->Insert(call_forwarding_,
                     CallForwardingKey(s, sf_type, start_time),
                     Slice(buf, kTatpValueSize)));
    } else {  // DeleteCallForwarding
      const Status status = tx->Delete(
          call_forwarding_, CallForwardingKey(s, sf_type, start_time));
      if (Fatal(status)) return status;
    }
    return tx->Commit();
  }

  void KeyStream(Random* rng, size_t n,
                 std::vector<std::pair<TableId, Key>>* out) const override {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t s = rng->Uniform(subscribers_);
      const uint32_t type = 1 + static_cast<uint32_t>(rng->Uniform(4));
      const uint32_t dice = static_cast<uint32_t>(rng->Uniform(100));
      if (dice < 35 || dice >= 80) {
        out->emplace_back(subscriber_, SubscriberKey(s));
      } else if (dice < 45) {
        out->emplace_back(special_facility_, SpecialFacilityKey(s, type));
      } else {
        out->emplace_back(access_info_, AccessInfoKey(s, type));
      }
    }
  }

  Status Sweep(pandora::txn::Coordinator* coord) override {
    auto ignore = [](const std::pair<Key, std::string>&) {};
    PANDORA_RETURN_NOT_OK(
        SweepTable(coord, subscriber_, subscribers_, ignore));
    PANDORA_RETURN_NOT_OK(
        SweepTable(coord, access_info_, subscribers_ << 3, ignore));
    PANDORA_RETURN_NOT_OK(
        SweepTable(coord, special_facility_, subscribers_ << 3, ignore));
    return SweepTable(coord, call_forwarding_, subscribers_ << 5, ignore);
  }

 private:
  uint64_t subscribers_;
  TableId subscriber_ = 0;
  TableId access_info_ = 0;
  TableId special_facility_ = 0;
  TableId call_forwarding_ = 0;
};

}  // namespace

std::unique_ptr<Mix> MakeTatpMix(uint64_t subscribers) {
  return std::make_unique<TatpMix>(subscribers);
}

// --- SmallBank --------------------------------------------------------

namespace {

// The loader's 16-byte value (src/workloads/smallbank.cc):
// [balance (int64)][generation counter].
int64_t DecodeBalance(const std::string& value) {
  return static_cast<int64_t>(pandora::DecodeFixed64(value.data()));
}

// Encodes `balance` with the generation after `old`'s.
void EncodeNext(char* buf, int64_t balance, const std::string& old) {
  pandora::EncodeFixed64(buf, static_cast<uint64_t>(balance));
  pandora::EncodeFixed64(buf + 8, pandora::DecodeFixed64(old.data() + 8) + 1);
}

}  // namespace

void BankMix::Bind(const pandora::cluster::Cluster& cluster) {
  savings_ = TableByName(cluster, "savings");
  checking_ = TableByName(cluster, "checking");
}

uint64_t BankMix::PickAccount(Random* rng) const {
  if (config_.hot_accounts > 0 && rng->PercentTrue(config_.hot_percent)) {
    return rng->Uniform(
        std::min<uint64_t>(config_.hot_accounts, config_.num_accounts));
  }
  return rng->Uniform(config_.num_accounts);
}

uint64_t BankMix::PickOther(Random* rng, uint64_t account) const {
  // Two-account profiles need distinct accounts; redraw instead of
  // returning a no-op success that no coordinator committed.
  uint64_t other = PickAccount(rng);
  while (other == account) other = PickAccount(rng);
  return other;
}

Status BankMix::Run(Txn* tx, Random* rng) {
  const uint64_t account = PickAccount(rng);
  const int64_t amount = static_cast<int64_t>(rng->Range(1, 100));
  const uint32_t dice = static_cast<uint32_t>(rng->Uniform(100));
  // Conserving: Balance 15% / Amalgamate 40% / SendPayment 45%.
  // Standard: Balance 15% / DepositChecking 15% / TransactSavings 15% /
  // Amalgamate 15% / WriteCheck 15% / SendPayment 25%.
  enum Profile { kBalance, kDeposit, kSavings, kAmalgamate, kCheck, kSend };
  Profile profile;
  if (config_.conserving_only) {
    profile = dice < 15 ? kBalance : dice < 55 ? kAmalgamate : kSend;
  } else {
    profile = dice < 15   ? kBalance
              : dice < 30 ? kDeposit
              : dice < 45 ? kSavings
              : dice < 60 ? kAmalgamate
              : dice < 75 ? kCheck
                          : kSend;
  }
  const uint64_t other =
      (profile == kAmalgamate || profile == kSend) ? PickOther(rng, account)
                                                   : account;
  std::string a, b, c;
  char buf_a[16], buf_b[16], buf_c[16];
  int64_t delta = 0;
  PANDORA_RETURN_NOT_OK(tx->Begin());
  switch (profile) {
    case kBalance:
      PANDORA_RETURN_NOT_OK(tx->Read(savings_, account, &a));
      PANDORA_RETURN_NOT_OK(tx->Read(checking_, account, &b));
      break;
    case kDeposit:
    case kSavings:
    case kCheck: {
      const TableId table = profile == kSavings ? savings_ : checking_;
      PANDORA_RETURN_NOT_OK(tx->Read(table, account, &a));
      delta = profile == kCheck ? -amount : amount;
      EncodeNext(buf_a, DecodeBalance(a) + delta, a);
      PANDORA_RETURN_NOT_OK(tx->Write(table, account, Slice(buf_a, 16)));
      break;
    }
    case kAmalgamate: {
      PANDORA_RETURN_NOT_OK(tx->Read(savings_, account, &a));
      PANDORA_RETURN_NOT_OK(tx->Read(checking_, account, &b));
      PANDORA_RETURN_NOT_OK(tx->Read(checking_, other, &c));
      const int64_t moved = DecodeBalance(a) + DecodeBalance(b);
      EncodeNext(buf_a, 0, a);
      EncodeNext(buf_b, 0, b);
      EncodeNext(buf_c, DecodeBalance(c) + moved, c);
      PANDORA_RETURN_NOT_OK(tx->Write(savings_, account, Slice(buf_a, 16)));
      PANDORA_RETURN_NOT_OK(tx->Write(checking_, account, Slice(buf_b, 16)));
      PANDORA_RETURN_NOT_OK(tx->Write(checking_, other, Slice(buf_c, 16)));
      break;
    }
    case kSend:
      PANDORA_RETURN_NOT_OK(tx->Read(checking_, account, &a));
      PANDORA_RETURN_NOT_OK(tx->Read(checking_, other, &b));
      EncodeNext(buf_a, DecodeBalance(a) - amount, a);
      EncodeNext(buf_b, DecodeBalance(b) + amount, b);
      PANDORA_RETURN_NOT_OK(tx->Write(checking_, account, Slice(buf_a, 16)));
      PANDORA_RETURN_NOT_OK(tx->Write(checking_, other, Slice(buf_b, 16)));
      break;
  }
  const Status status = tx->Commit();
  if (status.ok() && delta != 0) {
    committed_delta_.fetch_add(delta, std::memory_order_acq_rel);
  }
  return status;
}

void BankMix::KeyStream(Random* rng, size_t n,
                        std::vector<std::pair<TableId, Key>>* out) const {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t account = PickAccount(rng);
    out->emplace_back(rng->PercentTrue(50) ? savings_ : checking_, account);
  }
}

Status BankMix::Sweep(pandora::txn::Coordinator* coord) {
  int64_t total = 0;
  auto add = [&](const std::pair<Key, std::string>& row) {
    total += DecodeBalance(row.second);
  };
  PANDORA_RETURN_NOT_OK(SweepTable(coord, savings_, config_.num_accounts, add));
  PANDORA_RETURN_NOT_OK(
      SweepTable(coord, checking_, config_.num_accounts, add));
  swept_total_ = total;
  return Status::OK();
}

// --- BenchWorkload ----------------------------------------------------

Status BenchWorkload::Setup(pandora::cluster::Cluster* cluster) {
  mix_->Bind(*cluster);
  return Status::OK();
}

Status BenchWorkload::RunTransaction(pandora::txn::Coordinator* coord,
                                     Random* rng) {
  const PassClock& clock = recorder_->clock();
  ThreadLog* log = recorder_->Local();
  const uint64_t allocs_before = clock.count_allocs ? ThreadAllocations() : 0;
  const uint64_t txn_id = recorder_->NextTxnId();
  const uint64_t start = NowNanos();
  // Warm-up transactions run untimed, like an untraced pass.
  const bool traced = clock.trace && start >= clock.window_start_ns;
  const size_t span_cap = txn_id % clock.span_sample_every == 0
                              ? clock.span_cap_per_thread
                              : 0;
  Txn tx(coord, traced ? log : nullptr, txn_id, span_cap);
  const Status status = mix_->Run(&tx, rng);
  const uint64_t end = NowNanos();

  const Outcome outcome = Classify(status);
  log->all[outcome]++;
  if (outcome == kCommitted) {
    const uint64_t bin = (end - clock.run_start_ns) / clock.bin_ns;
    if (bin < log->bins.size()) log->bins[bin]++;
  }
  if (end < clock.window_start_ns || end >= clock.window_end_ns) {
    return status;
  }
  log->window[outcome]++;
  if (outcome == kCommitted) {
    log->commit_latency_ns.push_back(static_cast<uint32_t>(
        std::min<uint64_t>(end - start, UINT32_MAX)));
  }
  if (clock.count_allocs) log->allocs += ThreadAllocations() - allocs_before;
  if (traced) {
    if (outcome == kCommitted) {
      log->begin_ns.push_back(static_cast<uint32_t>(tx.begin_ns()));
      log->exec_ns.push_back(static_cast<uint32_t>(tx.exec_ns()));
      log->commit_ns.push_back(static_cast<uint32_t>(tx.commit_ns()));
    }
    log->traced_txns++;
    log->txn_wall_ns += end - start;
    log->call_wall_ns += tx.begin_ns() + tx.exec_ns() + tx.commit_ns();
    if (log->spans.size() < span_cap) {
      log->spans.push_back({txn_id, start, end, SpanKind::kTxn, log->thread});
    }
  }
  return status;
}

}  // namespace perfbench
