// Zero-latency timings of single rdma, cluster and store calls.

#ifndef PERFBENCH_COMPONENTS_H_
#define PERFBENCH_COMPONENTS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster.h"

namespace perfbench {

/// Mean nanoseconds per call over a key stream.
struct ComponentCosts {
  double placement_ns = 0;       // PlacementCache, then the ring on a miss.
  double address_lookup_ns = 0;  // LocalAddressCache, then AddressCache.
  double probe_ns = 0;           // store::FindSlotByProbe.
  double read_ns = 0;            // QueuePair::Read of a whole slot.
  double cas_ns = 0;             // QueuePair::CompareSwap on a lock word.
  double write_ns = 0;           // QueuePair::Write of a lock word.
  uint64_t sink = 0;             // Keeps the timed results observable.
};

/// Times each call over `keys`. The cluster's network model must have
/// zero latency and the keys must be loaded.
ComponentCosts TimeComponents(
    pandora::cluster::Cluster* cluster,
    const std::vector<std::pair<pandora::store::TableId,
                                pandora::store::Key>>& keys);

}  // namespace perfbench

#endif  // PERFBENCH_COMPONENTS_H_
