// The repository benchmark. One process builds a simulated cluster, runs
// one named workload on workloads::Driver (2 worker threads, 128 logical
// closed-loop coordinators), checks the outputs, and prints one JSON line:
// the end-to-end metrics (--trace 0) or the per-layer breakdown
// (--trace 1). See perfbench/LAYERS.md for every metric's definition.
//
//   perfbench --workload tatp_uniform --seed 1 --seconds 10 --trace 0

#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cluster/reconfig.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/logging.h"
#include "components.h"
#include "mixes.h"
#include "recovery/recovery_manager.h"
#include "store/object_header.h"
#include "txn/coordinator.h"
#include "workloads/driver.h"
#include "workloads/smallbank.h"
#include "workloads/tatp.h"

namespace perfbench {
namespace {

using namespace pandora;

constexpr uint32_t kThreads = 2;
constexpr uint32_t kCoordinators = 128;
constexpr uint32_t kFibersPerThread = 4;
constexpr uint64_t kWarmupMs = 1000;
constexpr uint64_t kBinMs = 10;
constexpr uint64_t kSetupRepeats = 9;
constexpr uint64_t kSubscribers = 10'000;
constexpr uint64_t kAccounts = 10'000;
// bank_disrupt: per-coordinator pacing and event cycle length.
constexpr uint64_t kPaceUs = 4000;
constexpr uint64_t kCycleMs = 5000;

enum class Kind { kTatpUniform, kSmallBankHot, kBankDisrupt };

struct Options {
  std::string workload;
  Kind kind = Kind::kTatpUniform;
  uint64_t seed = 1;
  uint64_t seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--out") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1 || options->seconds == 0) return false;
  if (options->workload == "tatp_uniform") {
    options->kind = Kind::kTatpUniform;
  } else if (options->workload == "smallbank_hot") {
    options->kind = Kind::kSmallBankHot;
  } else if (options->workload == "bank_disrupt") {
    options->kind = Kind::kBankDisrupt;
  } else {
    return false;
  }
  return true;
}

// --- Deployment ---------------------------------------------------------

cluster::ClusterConfig ClusterFor(Kind kind, bool zero_latency) {
  cluster::ClusterConfig config;
  const bool disrupt = kind == Kind::kBankDisrupt;
  config.memory_nodes = disrupt ? 4 : 2;
  config.standby_memory_nodes = disrupt ? 1 : 0;
  config.compute_nodes = 2;
  config.replication = 2;
  config.net.one_way_ns = zero_latency ? 0 : 1500;  // 3 us RTT.
  config.net.per_byte_ns = zero_latency ? 0 : 0.08;  // 100 Gbps.
  // Write-sets are at most 3 objects, so one 1 KiB slot holds a record;
  // the id space leaves room for the fresh coordinator-ids every pass
  // takes.
  config.log.slots_per_coordinator = 4;
  config.log.slot_bytes = 1024;
  config.log.max_coordinators = 2048;
  return config;
}

// The failure detector timing of the repository's throughput benches:
// heartbeat threads share the cores with saturating workers, so a 100 ms
// timeout keeps false positives out.
recovery::FdConfig BenchFd() {
  recovery::FdConfig fd;
  fd.timeout_us = 100'000;
  fd.heartbeat_period_us = 10'000;
  fd.poll_period_us = 10'000;
  return fd;
}

struct Deployment {
  txn::SystemGate gate;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<workloads::Workload> loader;
  std::unique_ptr<Mix> mix;
  BankMix* bank = nullptr;  // The mix, when it is SmallBank.
  int64_t expected_total = 0;
  std::unique_ptr<recovery::RecoveryManager> manager;
  std::unique_ptr<cluster::ReconfigManager> migrator;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    migrator.reset();
    if (manager) manager->Stop();
  }
};

// Builds the cluster, loads the data and (with latency) starts the FD.
std::unique_ptr<Deployment> Deploy(Kind kind, bool zero_latency) {
  auto d = std::make_unique<Deployment>();
  d->cluster =
      std::make_unique<cluster::Cluster>(ClusterFor(kind, zero_latency));
  if (kind == Kind::kTatpUniform) {
    workloads::TatpConfig tatp;
    tatp.subscribers = kSubscribers;
    d->loader = std::make_unique<workloads::TatpWorkload>(tatp);
    d->mix = MakeTatpMix(kSubscribers);
  } else {
    const bool disrupt = kind == Kind::kBankDisrupt;
    workloads::SmallBankConfig bank;
    bank.num_accounts = kAccounts;
    bank.hot_percent = 90;
    bank.hot_accounts = disrupt ? 1000 : 100;
    bank.conserving_only = disrupt;
    auto loader = std::make_unique<workloads::SmallBankWorkload>(bank);
    d->expected_total = loader->ExpectedTotal();
    d->loader = std::move(loader);
    BankMixConfig mix;
    mix.num_accounts = bank.num_accounts;
    mix.hot_percent = bank.hot_percent;
    mix.hot_accounts = bank.hot_accounts;
    mix.conserving_only = bank.conserving_only;
    auto bank_mix = std::make_unique<BankMix>(mix);
    d->bank = bank_mix.get();
    d->mix = std::move(bank_mix);
  }
  PANDORA_CHECK(d->loader->Setup(d->cluster.get()).ok());
  d->mix->Bind(*d->cluster);
  recovery::RecoveryManagerConfig rm;
  rm.mode = txn::ProtocolMode::kPandora;
  rm.fd = BenchFd();
  d->manager = std::make_unique<recovery::RecoveryManager>(d->cluster.get(),
                                                           rm, &d->gate);
  if (!zero_latency) d->manager->Start();
  if (kind == Kind::kBankDisrupt) {
    d->migrator = std::make_unique<cluster::ReconfigManager>(
        d->cluster.get(), d->manager->MakeReconfigOptions());
  }
  return d;
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// Times one set-up in a forked child process, so that every sample starts
// from a fresh allocator, as the single set-up of a real deployment does
// (set-ups repeated in one process reuse freed memory and run 2-3x
// faster). Must be called before the process starts any thread. Returns
// a negative value if the child failed.
double ForkedSetupSeconds(Kind kind) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    const uint64_t start = NowNanos();
    auto d = Deploy(kind, /*zero_latency=*/false);
    const double seconds = Seconds(NowNanos() - start);
    const bool written =
        write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds);
    // Exit without tearing the deployment down: only the timing matters.
    _exit(written ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1;
  if (read(fds[0], &seconds, sizeof(seconds)) != sizeof(seconds)) {
    seconds = -1;
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? seconds : -1;
}
double Millis(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Nearest-rank percentile (ns in, us out); 0 for an empty sample.
double PercentileUs(std::vector<uint32_t>* values, double p) {
  if (values->empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values->size())));
  const size_t index = std::min(values->size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values->begin(), values->begin() + index, values->end());
  return static_cast<double>((*values)[index]) / 1e3;
}

uint64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

// --- One driver pass ------------------------------------------------------

// bank_disrupt event measurements of one pass.
struct EventLog {
  std::vector<double> join_ms, drain_ms, cutover_ms;
  uint64_t first_event_ms = 0;  // Since the pass start.
  std::vector<std::string> errors;
};

struct PassSpec {
  uint64_t warmup_ms = kWarmupMs;
  uint64_t window_ms = 0;
  bool paced = false;
  bool events = false;
  bool trace = false;
  bool count_allocs = false;
};

struct PassResult {
  workloads::DriverResult driver;
  std::unique_ptr<Recorder> recorder;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  EventLog events;
  cluster::ReconfigStats reconfig;  // Delta over the pass.
  // Summed over the recorder's thread logs.
  uint64_t all[kNumOutcomes] = {};
  uint64_t window[kNumOutcomes] = {};
  uint64_t window_attempted = 0;
  std::vector<uint32_t> commit_latency_ns;
  std::vector<uint64_t> bins;
};

// Schedules the bank_disrupt events. The window is split into cycles of
// about kCycleMs; at 20% and 70% of each cycle come a live join of the
// standby and a drain of it, so each event has clean windows before and
// after it and the cluster ends every cycle in its initial shape.
void ScheduleEvents(Deployment* d, workloads::Driver* driver, Recorder* rec,
                    const PassSpec& spec, EventLog* log) {
  cluster::Cluster* cluster = d->cluster.get();
  const rdma::NodeId standby =
      cluster->memory_node_id(cluster->num_memory_nodes());
  const uint64_t cycles = std::max<uint64_t>(1, spec.window_ms / kCycleMs);
  const uint64_t cycle_ms = spec.window_ms / cycles;
  log->first_event_ms = spec.warmup_ms + cycle_ms / 5;
  for (uint64_t c = 0; c < cycles; ++c) {
    const uint64_t base = spec.warmup_ms + c * cycle_ms;
    workloads::FaultEvent join;
    join.kind = workloads::FaultEvent::Kind::kReconfig;
    join.at_ms = base + cycle_ms / 5;
    join.action = [d, rec, log, standby] {
      const uint64_t start = NowNanos();
      const Status status = d->migrator->JoinMemoryNode(standby);
      const uint64_t end = NowNanos();
      rec->AddEvent("join", start, end);
      if (!status.ok()) log->errors.push_back("join: " + status.ToString());
      log->join_ms.push_back(Millis(end - start));
      log->cutover_ms.push_back(
          Millis(d->migrator->stats().last_cutover_ns));
    };
    driver->AddFault(join);

    workloads::FaultEvent drain;
    drain.kind = workloads::FaultEvent::Kind::kReconfig;
    drain.at_ms = base + 7 * cycle_ms / 10;
    drain.action = [d, rec, log, standby] {
      const uint64_t start = NowNanos();
      const Status status = d->migrator->DrainMemoryNode(standby);
      const uint64_t end = NowNanos();
      rec->AddEvent("drain", start, end);
      if (!status.ok()) log->errors.push_back("drain: " + status.ToString());
      log->drain_ms.push_back(Millis(end - start));
      log->cutover_ms.push_back(
          Millis(d->migrator->stats().last_cutover_ns));
    };
    driver->AddFault(drain);
  }
}

PassResult RunPass(Deployment* d, const Options& options,
                   const PassSpec& spec) {
  PassResult result;
  PassClock clock;
  clock.trace = spec.trace;
  clock.count_allocs = spec.count_allocs;
  clock.bin_ns = kBinMs * 1'000'000;
  clock.bins = (spec.warmup_ms + spec.window_ms) / kBinMs;
  clock.run_start_ns = NowNanos();
  clock.window_start_ns = clock.run_start_ns + spec.warmup_ms * 1'000'000;
  clock.window_end_ns = clock.window_start_ns + spec.window_ms * 1'000'000;
  result.recorder = std::make_unique<Recorder>(clock);
  BenchWorkload workload(d->mix.get(), result.recorder.get());

  workloads::DriverConfig config;
  config.threads = kThreads;
  config.coordinators = kCoordinators;
  config.fibers_per_thread = kFibersPerThread;
  config.duration_ms = spec.warmup_ms + spec.window_ms;
  config.bucket_ms = kBinMs;
  config.pace_us = spec.paced ? kPaceUs : 0;
  config.txn.mode = txn::ProtocolMode::kPandora;
  config.seed = options.seed;
  workloads::Driver driver(d->cluster.get(), d->manager.get(), &d->gate,
                           &workload, config);
  if (spec.events) {
    ScheduleEvents(d, &driver, result.recorder.get(), spec, &result.events);
  }
  const cluster::ReconfigStats before =
      d->migrator ? d->migrator->stats() : cluster::ReconfigStats();
  const uint64_t cpu_start = ProcessCpuNanos();
  const uint64_t start = NowNanos();
  result.driver = driver.Run();
  result.wall_ns = NowNanos() - start;
  result.cpu_ns = ProcessCpuNanos() - cpu_start;
  if (d->migrator) {
    const cluster::ReconfigStats after = d->migrator->stats();
    result.reconfig.objects_copied =
        after.objects_copied - before.objects_copied;
    result.reconfig.objects_recopied =
        after.objects_recopied - before.objects_recopied;
    result.reconfig.copy_rtts = after.copy_rtts - before.copy_rtts;
  }

  result.bins.assign(clock.bins, 0);
  for (const auto& log : result.recorder->logs()) {
    for (int o = 0; o < kNumOutcomes; ++o) {
      result.all[o] += log->all[o];
      result.window[o] += log->window[o];
      result.window_attempted += log->window[o];
    }
    result.commit_latency_ns.insert(result.commit_latency_ns.end(),
                                    log->commit_latency_ns.begin(),
                                    log->commit_latency_ns.end());
    for (size_t b = 0; b < log->bins.size(); ++b) {
      result.bins[b] += log->bins[b];
    }
  }
  return result;
}

// Failure accounting: the benchmark's own outcome counts must equal the
// Driver's counters and the coordinators' TxnStats sums.
void CrossCheck(const PassResult& pass, std::vector<std::string>* errors) {
  const workloads::DriverResult& r = pass.driver;
  auto expect = [&](const char* what, uint64_t bench, uint64_t other) {
    if (bench != other) {
      errors->push_back(std::string("count mismatch: ") + what + " bench=" +
                        std::to_string(bench) +
                        " other=" + std::to_string(other));
    }
  };
  expect("committed vs DriverResult", pass.all[kCommitted], r.committed);
  expect("committed vs TxnStats", pass.all[kCommitted], r.totals.committed);
  expect("aborted+busy vs DriverResult",
         pass.all[kAborted] + pass.all[kBusy], r.aborted);
  expect("aborted+busy vs TxnStats", pass.all[kAborted] + pass.all[kBusy],
         r.totals.aborted);
  expect("unavailable vs DriverResult", pass.all[kUnavailable], r.crashed);
  if (r.totals.crashed > pass.all[kUnavailable]) {
    errors->push_back("TxnStats.crashed exceeds unavailable outcomes");
  }
  if (pass.all[kUnexpected] != 0) {
    errors->push_back(std::to_string(pass.all[kUnexpected]) +
                      " transactions returned an unexpected status");
  }
  for (const std::string& error : pass.events.errors) {
    errors->push_back("event: " + error);
  }
}

// Names the locks still held on the idle cluster (read straight from
// every live memory server's table regions), for a failed sweep's report.
std::string DescribeHeldLocks(Deployment* d) {
  cluster::Cluster* cluster = d->cluster.get();
  uint64_t held = 0, owner_failed = 0;
  std::string sample;
  std::vector<char> word(8);
  for (size_t t = 0; t < cluster->catalog().num_tables(); ++t) {
    const auto& info =
        cluster->catalog().table(static_cast<store::TableId>(t));
    for (uint32_t n = 0; n < cluster->total_memory_nodes(); ++n) {
      const rdma::NodeId node = cluster->memory_node_id(n);
      if (!cluster->membership().IsMemoryAlive(node)) continue;
      rdma::QueuePair* qp = cluster->compute(0)->qp(node);
      for (uint64_t slot = 0; slot < info.layout.capacity(); ++slot) {
        if (!qp->Read(info.region_rkeys[node], info.layout.LockOffset(slot),
                      word.data(), word.size())
                 .ok()) {
          continue;
        }
        const store::LockWord lock = DecodeFixed64(word.data());
        if (!store::LockHeld(lock)) continue;
        const uint16_t owner = store::LockOwner(lock);
        const bool failed = d->manager->fd().failed_ids().Test(owner);
        held++;
        if (failed) owner_failed++;
        if (held <= 4) {
          sample += " table " + info.spec.name + " node " +
                    std::to_string(node) + " slot " + std::to_string(slot) +
                    " owner " + std::to_string(owner) +
                    (failed ? " (failed id)" : " (id not marked failed)") +
                    ";";
        }
      }
    }
  }
  return std::to_string(held) + " locks held, " +
         std::to_string(owner_failed) + " by failed ids:" + sample;
}

// Output checks on the idle cluster after a pass: a read-only sweep of
// every object must commit (no stray lock outlived the run), and
// SmallBank's money must be conserved.
void CheckOutputs(Deployment* d, std::vector<std::string>* errors) {
  std::vector<uint16_t> ids;
  const Status registered =
      d->manager->RegisterComputeNode(d->cluster->compute(0), 1, &ids);
  if (!registered.ok()) {
    errors->push_back("sweep coordinator: " + registered.ToString());
    return;
  }
  txn::Coordinator auditor(d->cluster.get(), d->cluster->compute(0), ids[0],
                           txn::TxnConfig(), &d->gate);
  const Status swept = d->mix->Sweep(&auditor);
  if (!swept.ok()) {
    errors->push_back("read-only sweep failed: " + swept.ToString() +
                      "; " + DescribeHeldLocks(d));
    return;
  }
  if (d->bank != nullptr) {
    const int64_t expected = d->expected_total + d->bank->committed_delta();
    if (d->bank->swept_total() != expected) {
      errors->push_back("SmallBank conservation: total " +
                        std::to_string(d->bank->swept_total()) +
                        " expected " + std::to_string(expected));
    }
  }
}

// --- Metrics ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double CommitTps(const PassResult& pass, const PassSpec& spec) {
  return static_cast<double>(pass.window[kCommitted]) /
         (static_cast<double>(spec.window_ms) / 1000.0);
}

double FailRatio(const PassResult& pass) {
  const uint64_t failed =
      pass.window[kAborted] + pass.window[kBusy] + pass.window[kUnavailable];
  return pass.window_attempted == 0
             ? 0
             : static_cast<double>(failed) /
                   static_cast<double>(pass.window_attempted);
}

// Time in the window's bins whose commit count fell below half the
// median bin before the first event (of the whole window when the pass
// has no events).
double OutageMs(const PassResult& pass, const PassSpec& spec) {
  const size_t first = spec.warmup_ms / kBinMs;
  const size_t last = std::min(
      (spec.warmup_ms + spec.window_ms) / kBinMs, pass.bins.size());
  const size_t pre_end =
      pass.events.first_event_ms == 0
          ? last
          : std::min(pass.events.first_event_ms / kBinMs, last);
  std::vector<double> pre;
  for (size_t b = first; b < pre_end; ++b) {
    pre.push_back(static_cast<double>(pass.bins[b]));
  }
  const double threshold = Median(pre) / 2;
  uint64_t below = 0;
  for (size_t b = first; b < last; ++b) {
    if (static_cast<double>(pass.bins[b]) < threshold) below++;
  }
  return static_cast<double>(below * kBinMs);
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Writes the traced pass's spans as Chrome trace-event JSON.
void WriteTrace(const Options& options, const PassResult& pass) {
  const std::string path = options.out_dir + "/trace_" + options.workload +
                           "_" + std::to_string(options.seed) + ".json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const uint64_t origin = pass.recorder->clock().run_start_ns;
  std::fprintf(file, "{\"traceEvents\": [\n");
  bool first = true;
  auto emit = [&](const char* name, const Span& span, uint32_t tid) {
    std::fprintf(file,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"txn\": %llu}}",
                 first ? "" : ",\n", name, tid,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.txn_id));
    first = false;
  };
  for (const auto& log : pass.recorder->logs()) {
    for (const Span& span : log->spans) {
      emit(SpanKindName(span.kind), span, span.thread);
    }
  }
  for (const auto& [name, span] : pass.recorder->events()) {
    emit(name.c_str(), span, 100);
  }
  std::fprintf(file, "\n]}\n");
  std::fclose(file);
}

double PerCommit(uint64_t total, uint64_t commits) {
  return commits == 0 ? 0
                      : static_cast<double>(total) /
                            static_cast<double>(commits);
}

double MeanOr0(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

int Run(const Options& options) {
  const bool disrupt = options.kind == Kind::kBankDisrupt;
  PassSpec spec;
  spec.window_ms = options.seconds * 1000;
  spec.paced = disrupt;
  spec.events = disrupt;

  // setup_s is the median of kSetupRepeats set-ups: kSetupRepeats - 1 in
  // forked children, then the one this run keeps.
  std::vector<std::string> errors;
  std::vector<double> setup_s;
  for (uint64_t i = 1; !options.trace && i < kSetupRepeats; ++i) {
    const double seconds = ForkedSetupSeconds(options.kind);
    if (seconds < 0) {
      errors.push_back("forked set-up failed");
    } else {
      setup_s.push_back(seconds);
    }
  }
  const uint64_t setup_start = NowNanos();
  std::unique_ptr<Deployment> d = Deploy(options.kind, /*zero_latency=*/false);
  setup_s.push_back(Seconds(NowNanos() - setup_start));

  std::printf("perfbench: workload=%s seed=%llu seconds=%llu trace=%d "
              "threads=%u coordinators=%u fibers_per_thread=%u\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.seconds),
              options.trace ? 1 : 0, kThreads, kCoordinators,
              kFibersPerThread);

  PassResult plain = RunPass(d.get(), options, spec);
  CrossCheck(plain, &errors);
  CheckOutputs(d.get(), &errors);
  const double tps = CommitTps(plain, spec);
  std::vector<uint32_t> latency = plain.commit_latency_ns;
  const double p50 = PercentileUs(&latency, 50);
  const double p99 = PercentileUs(&latency, 99);
  std::printf("perfbench: window commits=%llu attempted=%llu "
              "(latency samples=%zu) tps=%.1f p50=%.2fus p99=%.2fus\n",
              static_cast<unsigned long long>(plain.window[kCommitted]),
              static_cast<unsigned long long>(plain.window_attempted),
              latency.size(), tps, p50, p99);

  std::printf("perfbench: commits per second:");
  for (uint64_t sec = 0; sec < options.seconds; ++sec) {
    uint64_t commits = 0;
    for (uint64_t b = 0; b < 1000 / kBinMs; ++b) {
      const uint64_t bin = (kWarmupMs + sec * 1000) / kBinMs + b;
      if (bin < plain.bins.size()) commits += plain.bins[bin];
    }
    std::printf(" %llu", static_cast<unsigned long long>(commits));
  }
  std::printf("\n");
  if (disrupt) {
    std::printf("perfbench: events join_ms=%.1f drain_ms=%.1f "
                "cutover_ms=%.1f outage_ms=%.0f\n",
                MeanOr0(plain.events.join_ms), MeanOr0(plain.events.drain_ms),
                MeanOr0(plain.events.cutover_ms),
                OutageMs(plain, spec));
  }

  std::vector<Metric> metrics;
  PassResult* reported = &plain;
  PassResult traced;
  if (!options.trace) {
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back({"commit_tps", tps, "1/s"});
    metrics.push_back({"commit_p50_us", p50, "us"});
    metrics.push_back({"commit_p99_us", p99, "us"});
    metrics.push_back({"fail_ratio", FailRatio(plain), "ratio"});
    metrics.push_back({"available_fraction",
                       1.0 - OutageMs(plain, spec) /
                                 static_cast<double>(spec.window_ms),
                       "ratio"});
  } else {
    PassSpec traced_spec = spec;
    traced_spec.trace = true;
    traced = RunPass(d.get(), options, traced_spec);
    reported = &traced;
    CrossCheck(traced, &errors);
    CheckOutputs(d.get(), &errors);
    WriteTrace(options, traced);

    // Zero-latency pass: CPU and allocations per commit, unpaced.
    auto zero = Deploy(options.kind, /*zero_latency=*/true);
    PassSpec zero_spec;
    zero_spec.warmup_ms = 300;
    zero_spec.window_ms = 1500;
    zero_spec.count_allocs = true;
    PassResult cpu = RunPass(zero.get(), options, zero_spec);
    CrossCheck(cpu, &errors);
    uint64_t cpu_allocs = 0;
    for (const auto& log : cpu.recorder->logs()) cpu_allocs += log->allocs;
    std::vector<std::pair<store::TableId, store::Key>> keys;
    Random key_rng(options.seed * 2654435761ULL + 17);
    zero->mix->KeyStream(&key_rng, 100'000, &keys);
    const ComponentCosts costs = TimeComponents(zero->cluster.get(), keys);
    zero.reset();

    const workloads::DriverResult& r = traced.driver;
    const txn::TxnStats& t = r.totals;
    const uint64_t commits = t.committed;
    const uint64_t attempts = traced.all[kCommitted] + traced.all[kAborted] +
                              traced.all[kBusy] + traced.all[kUnavailable];
    const double rtt_us = 2 * 1500 / 1e3;
    uint64_t traced_txns = 0, txn_wall = 0, call_wall = 0, spans = 0;
    std::vector<uint32_t> begin, exec, commit;
    for (const auto& log : traced.recorder->logs()) {
      traced_txns += log->traced_txns;
      txn_wall += log->txn_wall_ns;
      call_wall += log->call_wall_ns;
      spans += log->spans.size();
      begin.insert(begin.end(), log->begin_ns.begin(), log->begin_ns.end());
      exec.insert(exec.end(), log->exec_ns.begin(), log->exec_ns.end());
      commit.insert(commit.end(), log->commit_ns.begin(),
                    log->commit_ns.end());
    }
    const double wire_per_txn =
        PerCommit(t.execution_rtts + t.commit_rtts, attempts) * rtt_us;
    std::vector<uint32_t> traced_latency = traced.commit_latency_ns;
    const double traced_p50 = PercentileUs(&traced_latency, 50);
    const double traced_tps = CommitTps(traced, spec);
    const double idle =
        static_cast<double>(r.fiber_idle_ns) /
        (static_cast<double>(kThreads) * static_cast<double>(traced.wall_ns));

    metrics = {
        {"workloads.busy_fraction", std::clamp(1.0 - idle, 0.0, 1.0),
         "fraction"},
        {"workloads.max_resume_lag_us", r.fiber_max_resume_lag_ns / 1e3,
         "us"},
        {"workloads.paced_admissions",
         static_cast<double>(r.fiber_paced_admissions), "count"},
        {"workloads.fiber_wait_us_per_commit",
         PerCommit(r.fiber_wait_ns, commits) / 1e3, "us"},
        {"workloads.self_us_per_txn",
         PerCommit(txn_wall - call_wall, traced_txns) / 1e3, "us"},
        {"workloads.commit_samples",
         static_cast<double>(traced.window[kCommitted]), "count"},
        {"txn.begin_us.p50", PercentileUs(&begin, 50), "us"},
        {"txn.begin_us.p99", PercentileUs(&begin, 99), "us"},
        {"txn.exec_us.p50", PercentileUs(&exec, 50), "us"},
        {"txn.exec_us.p99", PercentileUs(&exec, 99), "us"},
        {"txn.commit_us.p50", PercentileUs(&commit, 50), "us"},
        {"txn.commit_us.p99", PercentileUs(&commit, 99), "us"},
        {"txn.self_us_per_txn",
         PerCommit(call_wall, traced_txns) / 1e3 - wire_per_txn, "us"},
        {"txn.exec_rtts_per_commit", PerCommit(t.execution_rtts, commits),
         "1/commit"},
        {"txn.commit_rtts_per_commit", PerCommit(t.commit_rtts, commits),
         "1/commit"},
        {"txn.doorbells_per_commit", PerCommit(t.doorbells, commits),
         "1/commit"},
        {"txn.log_records_per_commit",
         PerCommit(t.log_records_written, commits), "1/commit"},
        {"txn.abort_ratio", PerCommit(t.aborted, t.aborted + t.committed),
         "ratio"},
        {"txn.lock_conflicts_per_txn", PerCommit(t.lock_conflicts, attempts),
         "1/txn"},
        {"txn.validation_failures_per_txn",
         PerCommit(t.validation_failures, attempts), "1/txn"},
        {"txn.allocs_per_commit",
         PerCommit(cpu_allocs, cpu.window[kCommitted]), "1/commit"},
        {"txn.cpu_us_per_commit",
         PerCommit(cpu.cpu_ns, cpu.all[kCommitted]) / 1e3, "us"},
        {"rdma.wire_us_per_commit",
         PerCommit(t.execution_rtts + t.commit_rtts, commits) * rtt_us, "us"},
        {"rdma.verb_ns.read", costs.read_ns, "ns"},
        {"rdma.verb_ns.cas", costs.cas_ns, "ns"},
        {"rdma.verb_ns.write", costs.write_ns, "ns"},
        {"cluster.placement_hit_rate",
         PerCommit(t.placement_hits, t.placement_hits + t.placement_misses),
         "ratio"},
        {"cluster.placement_ns", costs.placement_ns, "ns"},
        {"cluster.address_lookup_ns", costs.address_lookup_ns, "ns"},
        {"store.probe_ns", costs.probe_ns, "ns"},
        {"reconfig.join_ms", MeanOr0(traced.events.join_ms), "ms"},
        {"reconfig.drain_ms", MeanOr0(traced.events.drain_ms), "ms"},
        {"reconfig.cutover_ms", MeanOr0(traced.events.cutover_ms), "ms"},
        {"reconfig.outage_ms", OutageMs(traced, spec), "ms"},
        {"reconfig.objects_copied",
         static_cast<double>(traced.reconfig.objects_copied), "count"},
        {"reconfig.objects_recopied",
         static_cast<double>(traced.reconfig.objects_recopied), "count"},
        {"reconfig.copy_rtts", static_cast<double>(traced.reconfig.copy_rtts),
         "count"},
        {"reconfig.fence_aborts", static_cast<double>(t.reconfig_aborts),
         "count"},
        {"trace.overhead_tps_pct",
         tps > 0 ? (tps - traced_tps) / tps * 100 : 0, "%"},
        {"trace.overhead_p50_pct",
         p50 > 0 ? (traced_p50 - p50) / p50 * 100 : 0, "%"},
        {"trace.spans", static_cast<double>(spans), "count"},
    };
  }

  const uint64_t failed = plain.all[kUnexpected] + traced.all[kUnexpected];
  for (const std::string& error : errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", error.c_str());
  }
  d.reset();
  // A completed run exits 0; failed output checks are reported through
  // "correct" (details on stderr).
  PrintJson(errors.empty(), reported->window_attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "tatp_uniform|smallbank_hot|bank_disrupt --seed N "
                 "--seconds N --trace 0|1 [--out DIR]\n");
    return 2;
  }
  return perfbench::Run(options);
}
