#include "core/runner.h"

#include <utility>

#include "core/profile.h"

namespace pmemolap {

const char* MultiSocketConfigName(MultiSocketConfig config) {
  switch (config) {
    case MultiSocketConfig::kOneNear:
      return "1 Near";
    case MultiSocketConfig::kOneFar:
      return "1 Far";
    case MultiSocketConfig::kTwoNear:
      return "2 Near";
    case MultiSocketConfig::kTwoFar:
      return "2 Far";
    case MultiSocketConfig::kNearFarShared:
      return "1 Near 1 Far";
  }
  return "Unknown";
}

Result<AccessClass> WorkloadRunner::MakeClass(OpType op, Pattern pattern,
                                              Media media,
                                              uint64_t access_size,
                                              int threads,
                                              const RunOptions& options) const {
  // ToAccessClass runs a thread count below one as one thread; a sweep
  // point without threads is a caller error.
  if (threads < 1) {
    return Status::InvalidArgument("thread count must be >= 1");
  }
  TrafficRecord record;
  record.op = op;
  record.pattern = pattern;
  record.media = media;
  record.data_socket = options.data_socket;
  record.access_size = access_size;
  record.region_bytes = options.region_bytes;
  record.worker_socket = options.thread_socket;
  PMEMOLAP_ASSIGN_OR_RETURN(
      AccessClass klass, ToAccessClass(record, threads, options.pinning,
                                       model_->config().topology));
  klass.run_index = options.run_index;
  klass.instruction = options.instruction;
  return klass;
}

Result<BandwidthResult> WorkloadRunner::Run(OpType op, Pattern pattern,
                                            Media media, uint64_t access_size,
                                            int threads,
                                            const RunOptions& options) const {
  PMEMOLAP_ASSIGN_OR_RETURN(
      AccessClass klass,
      MakeClass(op, pattern, media, access_size, threads, options));
  WorkloadSpec spec;
  spec.classes.push_back(std::move(klass));
  spec.l2_prefetcher_enabled = options.l2_prefetcher_enabled;
  spec.devdax = options.devdax;
  return model_->EvaluateOnce(spec);
}

Result<GigabytesPerSecond> WorkloadRunner::Bandwidth(
    OpType op, Pattern pattern, Media media, uint64_t access_size,
    int threads, const RunOptions& options) const {
  PMEMOLAP_ASSIGN_OR_RETURN(
      BandwidthResult result,
      Run(op, pattern, media, access_size, threads, options));
  return result.total_gbps;
}

Result<BandwidthResult> WorkloadRunner::MultiSocket(OpType op, Media media,
                                                    MultiSocketConfig config,
                                                    int threads_per_socket,
                                                    uint64_t access_size,
                                                    int run_index) const {
  WorkloadSpec spec;
  // Threads pinned to `thread_socket` access the region on `data_socket`'s
  // DIMMs. Each socket holds one region, so two classes share bytes
  // exactly when they share a data socket.
  auto add = [&](int thread_socket, int data_socket) -> Status {
    RunOptions options;
    options.data_socket = data_socket;
    options.thread_socket = thread_socket;
    options.run_index = run_index;
    PMEMOLAP_ASSIGN_OR_RETURN(
        AccessClass klass,
        MakeClass(op, Pattern::kSequentialIndividual, media, access_size,
                  threads_per_socket, options));
    klass.region_id = data_socket;
    spec.classes.push_back(std::move(klass));
    return Status::OK();
  };

  switch (config) {
    case MultiSocketConfig::kOneNear:
      PMEMOLAP_RETURN_NOT_OK(add(0, 0));
      break;
    case MultiSocketConfig::kOneFar:
      PMEMOLAP_RETURN_NOT_OK(add(0, 1));
      break;
    case MultiSocketConfig::kTwoNear:
      PMEMOLAP_RETURN_NOT_OK(add(0, 0));
      PMEMOLAP_RETURN_NOT_OK(add(1, 1));
      break;
    case MultiSocketConfig::kTwoFar:
      PMEMOLAP_RETURN_NOT_OK(add(0, 1));
      PMEMOLAP_RETURN_NOT_OK(add(1, 0));
      break;
    case MultiSocketConfig::kNearFarShared:
      // Both sockets access region 0 living on socket 0.
      PMEMOLAP_RETURN_NOT_OK(add(0, 0));
      PMEMOLAP_RETURN_NOT_OK(add(1, 0));
      break;
  }
  return model_->EvaluateOnce(spec);
}

Result<BandwidthResult> WorkloadRunner::Mixed(int write_threads,
                                              int read_threads, Media media,
                                              uint64_t access_size) const {
  RunOptions options;
  options.region_bytes = 40ULL * kGiB;
  PMEMOLAP_ASSIGN_OR_RETURN(
      AccessClass writer,
      MakeClass(OpType::kWrite, Pattern::kSequentialIndividual, media,
                access_size, write_threads, options));
  PMEMOLAP_ASSIGN_OR_RETURN(
      AccessClass reader,
      MakeClass(OpType::kRead, Pattern::kSequentialIndividual, media,
                access_size, read_threads, options));
  writer.region_id = 0;
  writer.label = "write";
  reader.region_id = 1;  // disjoint data on the same DIMMs
  reader.label = "read";

  WorkloadSpec spec;
  spec.classes.push_back(std::move(writer));
  spec.classes.push_back(std::move(reader));
  return model_->EvaluateOnce(spec);
}

}  // namespace pmemolap
