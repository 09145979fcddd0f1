#include "core/partitioner.h"

namespace pmemolap {

Result<std::vector<SocketPartition>> Partitioner::Partition(
    uint64_t num_tuples, int workers_per_socket) const {
  if (workers_per_socket < 1) {
    return Status::InvalidArgument("workers_per_socket must be >= 1");
  }
  const int sockets = topology_.sockets();
  std::vector<SocketPartition> partitions;
  partitions.reserve(static_cast<size_t>(sockets));

  uint64_t per_socket = num_tuples / static_cast<uint64_t>(sockets);
  uint64_t socket_begin = 0;
  for (int socket = 0; socket < sockets; ++socket) {
    SocketPartition partition;
    partition.socket = socket;
    uint64_t socket_size =
        socket + 1 == sockets ? num_tuples - socket_begin : per_socket;
    partition.tuples = {socket_begin, socket_begin + socket_size};

    uint64_t per_worker = socket_size / static_cast<uint64_t>(workers_per_socket);
    uint64_t worker_begin = partition.tuples.begin;
    for (int worker = 0; worker < workers_per_socket; ++worker) {
      uint64_t worker_size = worker + 1 == workers_per_socket
                                 ? partition.tuples.end - worker_begin
                                 : per_worker;
      partition.worker_ranges.push_back(
          {worker_begin, worker_begin + worker_size});
      worker_begin += worker_size;
    }
    socket_begin += socket_size;
    partitions.push_back(std::move(partition));
  }
  return partitions;
}

Result<std::vector<SocketPartition>> Partitioner::PartitionWeighted(
    uint64_t num_tuples, int workers_per_socket,
    const std::vector<double>& chunk_weights) const {
  if (workers_per_socket < 1) {
    return Status::InvalidArgument("workers_per_socket must be >= 1");
  }
  if (chunk_weights.empty()) {
    return Status::InvalidArgument("chunk_weights must not be empty");
  }
  double total_weight = 0.0;
  for (double weight : chunk_weights) {
    if (weight < 0.0) {
      return Status::InvalidArgument("weights must be non-negative");
    }
    total_weight += weight;
  }
  if (total_weight <= 0.0) {
    return Status::InvalidArgument("total weight must be positive");
  }

  const int sockets = topology_.sockets();
  const uint64_t chunks = chunk_weights.size();
  const double chunk_tuples =
      static_cast<double>(num_tuples) / static_cast<double>(chunks);

  // Tuple index at which the cumulative weight reaches `target`
  // (linearly interpolated within a chunk).
  auto boundary_for = [&](double target) -> uint64_t {
    double acc = 0.0;
    for (uint64_t i = 0; i < chunks; ++i) {
      if (acc + chunk_weights[i] >= target) {
        double within = chunk_weights[i] > 0.0
                            ? (target - acc) / chunk_weights[i]
                            : 0.0;
        return static_cast<uint64_t>(
            (static_cast<double>(i) + within) * chunk_tuples);
      }
      acc += chunk_weights[i];
    }
    return num_tuples;
  };

  const int total_workers = sockets * workers_per_socket;
  std::vector<uint64_t> cuts;  // total_workers + 1 boundaries
  cuts.push_back(0);
  for (int worker = 1; worker < total_workers; ++worker) {
    double target = total_weight * static_cast<double>(worker) /
                    static_cast<double>(total_workers);
    uint64_t cut = boundary_for(target);
    cuts.push_back(std::max(cut, cuts.back()));
  }
  cuts.push_back(num_tuples);

  std::vector<SocketPartition> partitions;
  for (int socket = 0; socket < sockets; ++socket) {
    SocketPartition partition;
    partition.socket = socket;
    size_t first = static_cast<size_t>(socket) *
                   static_cast<size_t>(workers_per_socket);
    partition.tuples = {cuts[first], cuts[first + workers_per_socket]};
    for (int worker = 0; worker < workers_per_socket; ++worker) {
      partition.worker_ranges.push_back(
          {cuts[first + worker], cuts[first + worker + 1]});
    }
    partitions.push_back(std::move(partition));
  }
  return partitions;
}

MorselPlan Partitioner::ToMorsels(
    const std::vector<SocketPartition>& partitions, uint64_t morsel_tuples) {
  MorselPlan plan;
  for (const SocketPartition& partition : partitions) {
    AppendMorsels(partition.tuples.begin, partition.tuples.end,
                  partition.socket, morsel_tuples, &plan);
  }
  return plan;
}

}  // namespace pmemolap
