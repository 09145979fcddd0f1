#include "topo/pinning.h"

#include <algorithm>

namespace pmemolap {

const char* PinningPolicyName(PinningPolicy policy) {
  switch (policy) {
    case PinningPolicy::kNone:
      return "None";
    case PinningPolicy::kNumaRegion:
      return "NUMA";
    case PinningPolicy::kCores:
      return "Cores";
  }
  return "Unknown";
}

int ThreadPlacement::CountNear() const {
  int n = 0;
  for (const ThreadSlot& slot : slots) n += slot.near_data ? 1 : 0;
  return n;
}

double ThreadPlacement::MeanMigrationRate() const {
  if (slots.empty()) return 0.0;
  double sum = 0.0;
  for (const ThreadSlot& slot : slots) sum += slot.migration_rate;
  return sum / static_cast<double>(slots.size());
}

Result<ThreadPlacement> ThreadPlacer::Place(int threads, PinningPolicy policy,
                                            int data_socket) const {
  if (threads < 1) {
    return Status::InvalidArgument("thread count must be >= 1");
  }
  if (data_socket < 0 || data_socket >= topology_.sockets()) {
    return Status::InvalidArgument("data_socket out of range");
  }

  ThreadPlacement placement;
  placement.policy = policy;
  placement.data_socket = data_socket;

  if (policy == PinningPolicy::kNone) {
    // The scheduler spreads load over every socket; threads also migrate
    // between sockets over time, so even "near" threads keep churning the
    // coherence directory. Round-robin over sockets approximates the
    // observed long-run distribution.
    const auto& cpus = topology_.cpus();
    placement.oversubscription =
        static_cast<double>(threads) /
        static_cast<double>(topology_.logical_cores_total());
    for (int i = 0; i < threads; ++i) {
      int socket = i % topology_.sockets();
      // Pick the next free core of that socket (physical first).
      int index_in_socket = i / topology_.sockets();
      std::vector<LogicalCpu> socket_cpus = topology_.CpusOfSocket(socket);
      const LogicalCpu& cpu =
          socket_cpus[static_cast<size_t>(index_in_socket) %
                      socket_cpus.size()];
      ThreadSlot slot;
      slot.socket = socket;
      slot.numa_node = cpu.numa_node;
      slot.physical_core = cpu.physical_core;
      slot.on_hyperthread = cpu.is_hyperthread;
      slot.near_data = SystemTopology::IsNear(socket, data_socket);
      slot.migration_rate = 1.0;
      placement.slots.push_back(slot);
    }
    (void)cpus;
    return placement;
  }

  // kNumaRegion and kCores both restrict threads to the data socket.
  std::vector<LogicalCpu> socket_cpus = topology_.CpusOfSocket(data_socket);
  placement.oversubscription = static_cast<double>(threads) /
                               static_cast<double>(socket_cpus.size());
  for (int i = 0; i < threads; ++i) {
    const LogicalCpu& cpu =
        socket_cpus[static_cast<size_t>(i) % socket_cpus.size()];
    ThreadSlot slot;
    slot.socket = data_socket;
    slot.numa_node = cpu.numa_node;
    slot.physical_core = cpu.physical_core;
    // A thread shares its physical core once we wrap into the hyperthread
    // half of the socket's logical CPUs (or oversubscribe).
    slot.on_hyperthread =
        cpu.is_hyperthread ||
        static_cast<size_t>(i) >= socket_cpus.size();
    slot.near_data = true;
    // NUMA-region pinning leaves intra-region placement to the scheduler:
    // it rebalances threads across cores (and across the two NUMA nodes of
    // the region), which the paper observed as a small penalty relative to
    // explicit per-core pinning — strongest once threads exceed the
    // physical cores and the scheduler time-slices.
    if (policy == PinningPolicy::kNumaRegion) {
      slot.migration_rate =
          threads > topology_.physical_cores_per_socket() ? 0.35 : 0.2;
    }
    placement.slots.push_back(slot);
  }
  return placement;
}

}  // namespace pmemolap
