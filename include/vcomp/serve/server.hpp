#pragma once

/// \file server.hpp
/// The stitching job daemon: concurrent jobs over a shared artifact cache
/// with malleable per-job parallelism.
///
/// One Server owns an ArtifactRegistry plus a set of per-job runner
/// threads.  Each submitted job gets:
///
///  * its own runner thread (jobs never run on the process thread pool —
///    the parallel primitives run inline on pool workers, which would
///    serialize jobs against each other and deadlock the malleable caps);
///  * a private parallelism cap, retuned to the fair share
///    pool_parallelism / running_jobs whenever a job starts or finishes.
///    Caps only change how many pool workers a loop recruits; the standing
///    determinism contract makes reallocation points unobservable in any
///    computed value;
///  * the runner `vcomp_stitch` uses, serve::run_spec (serve/job.hpp),
///    so its row matches the standalone CLI's byte for byte, cache hit or
///    miss.
///
/// Concurrency is bounded by ServeOptions::max_active_jobs (vcomp_serve's
/// --max-jobs): excess submissions queue inside their runner threads.
/// Event emission is serialized by one mutex, so concurrent jobs
/// interleave *lines*, never bytes.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "vcomp/serve/protocol.hpp"
#include "vcomp/serve/registry.hpp"

namespace vcomp::serve {

struct ServeOptions {
  /// Max jobs running concurrently (0 → 2).
  std::size_t max_active_jobs = 0;
  /// Artifact registry budget (cached circuits; 0 = unlimited).
  std::size_t registry_budget = 0;
  /// Default progress cadence for jobs that do not set progress_every
  /// themselves (0 = no progress events unless the job asks).
  std::size_t progress_every = 0;
};

class Server {
 public:
  /// Sink for one outgoing event line (no trailing newline).  Called under
  /// the server's emit lock — implementations just append/write.
  using Sink = std::function<void(const std::string&)>;

  explicit Server(const ServeOptions& options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handles one request line, emitting events on \p sink (submitted jobs
  /// keep emitting on it asynchronously until their result/error event).
  /// Returns false on a shutdown request — the caller should stop reading
  /// and call drain().
  bool handle_line(const std::string& line, const Sink& sink);

  /// Blocks until every submitted job has emitted its final event.
  void drain();

  ArtifactRegistry& registry() { return registry_; }
  std::size_t max_active_jobs() const { return max_active_; }

 private:
  struct Job {
    JobSpec spec;
    Sink sink;
    std::atomic<std::size_t> cap{1};
    std::thread runner;
  };

  void run_job(Job& job);
  void emit(const Sink& sink, const std::string& line);
  void rebalance_locked();

  ArtifactRegistry registry_;
  std::size_t max_active_;
  std::size_t progress_every_;

  std::mutex emit_m_;

  std::mutex jobs_m_;
  std::condition_variable slot_cv_;
  std::vector<Job*> running_;           // slotted jobs (cap retune targets)
  std::vector<std::unique_ptr<Job>> jobs_;  // all jobs, for drain()
  std::uint64_t completed_ = 0;
  std::uint64_t queued_ = 0;
};

}  // namespace vcomp::serve
