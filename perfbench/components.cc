// Zero-latency component pass: times the public rdma, cluster and store
// calls a coordinator makes, over a workload's own seeded key stream, on
// a cluster whose network model has zero latency (so only CPU is timed).

#include "components.h"

#include <memory>

#include "cluster/address_cache.h"
#include "cluster/placement.h"
#include "common/clock.h"
#include "common/logging.h"
#include "store/remote_object.h"

namespace perfbench {

using pandora::NowNanos;
using pandora::cluster::ReplicaSet;
using pandora::rdma::NodeId;
using pandora::store::Key;
using pandora::store::TableId;

namespace {

// Mean nanoseconds per call of `fn` over the stream; the first sweep
// warms caches and is not timed.
template <typename Fn>
double TimePerKey(const std::vector<std::pair<TableId, Key>>& keys, Fn&& fn) {
  for (const auto& [table, key] : keys) fn(table, key);
  const uint64_t start = NowNanos();
  for (const auto& [table, key] : keys) fn(table, key);
  return static_cast<double>(NowNanos() - start) /
         static_cast<double>(keys.size());
}

}  // namespace

ComponentCosts TimeComponents(
    pandora::cluster::Cluster* cluster,
    const std::vector<std::pair<TableId, Key>>& keys) {
  PANDORA_CHECK(!cluster->fabric().network().latency_enabled());
  ComponentCosts costs;
  const auto& ring = cluster->ring();
  // Coordinator-private caches, as in txn::Coordinator::PlacementFor and
  // ResolveSlot (heap-allocated: each is tens of KiB).
  auto placement = std::make_unique<pandora::cluster::PlacementCache>();
  auto addresses = std::make_unique<pandora::cluster::LocalAddressCache>();
  uint64_t sink = 0;

  costs.placement_ns = TimePerKey(keys, [&](TableId table, Key key) {
    const uint64_t hash = pandora::cluster::HashRing::PlacementHash(table, key);
    const uint64_t epoch = cluster->placement_epoch();
    ReplicaSet replicas;
    if (const ReplicaSet* hit = placement->Lookup(hash, epoch)) {
      replicas = *hit;
    } else {
      replicas = ring.ReplicaSetForHash(hash);
      placement->Insert(hash, epoch, replicas);
    }
    sink += cluster->PrimaryOf(replicas);
  });

  // Primaries precomputed so the next timings cover one layer each.
  std::vector<NodeId> primaries;
  primaries.reserve(keys.size());
  for (const auto& [table, key] : keys) {
    primaries.push_back(cluster->PrimaryFor(table, key));
  }
  size_t i = 0;
  auto next_primary = [&] {
    const NodeId node = primaries[i];
    i = (i + 1) % primaries.size();
    return node;
  };

  const auto& shared = cluster->addresses();
  costs.address_lookup_ns = TimePerKey(keys, [&](TableId table, Key key) {
    const NodeId node = next_primary();
    if (auto slot = addresses->Lookup(shared, table, node, key)) {
      sink += *slot;
    } else if (auto base = shared.Lookup(table, node, key)) {
      addresses->Insert(shared, table, node, key, *base);
      sink += *base;
    }
  });

  pandora::cluster::ComputeServer* server = cluster->compute(0);
  std::vector<uint64_t> slots(keys.size(), 0);
  i = 0;
  size_t probed = 0;
  costs.probe_ns = TimePerKey(keys, [&](TableId table, Key key) {
    const size_t index = i;
    const NodeId node = next_primary();
    const auto& info = cluster->catalog().table(table);
    pandora::store::SlotState state;
    if (pandora::store::FindSlotByProbe(server->qp(node),
                                        info.region_rkeys[node], info.layout,
                                        key, &state)
            .ok()) {
      slots[index] = state.slot;
      ++probed;
    }
  });
  PANDORA_CHECK(probed > 0);

  // One verb of each kind per key on the key's slot, posted and completed
  // at zero latency. The CAS swaps the unlocked word for itself and the
  // write stores it back, so the data is left unchanged.
  std::vector<char> buf(4096);
  auto verb_time = [&](auto&& verb) {
    i = 0;
    return TimePerKey(keys, [&](TableId table, Key) {
      const size_t index = i;
      const NodeId node = next_primary();
      const auto& info = cluster->catalog().table(table);
      verb(server->qp(node), info.region_rkeys[node], info.layout,
           slots[index]);
    });
  };
  costs.read_ns = verb_time([&](auto* qp, auto rkey, const auto& layout,
                                uint64_t slot) {
    PANDORA_CHECK(qp->Read(rkey, layout.SlotOffset(slot), buf.data(),
                           pandora::store::SlotReadSize(layout))
                      .ok());
  });
  costs.cas_ns = verb_time([&](auto* qp, auto rkey, const auto& layout,
                               uint64_t slot) {
    uint64_t observed = 0;
    PANDORA_CHECK(qp->CompareSwap(rkey, layout.LockOffset(slot), 0, 0,
                                  &observed)
                      .ok());
    sink += observed;
  });
  costs.write_ns = verb_time([&](auto* qp, auto rkey, const auto& layout,
                                 uint64_t slot) {
    const uint64_t unlocked = 0;
    PANDORA_CHECK(qp->Write(rkey, layout.LockOffset(slot), &unlocked,
                            sizeof(unlocked))
                      .ok());
  });
  costs.sink = sink;
  return costs;
}

}  // namespace perfbench
