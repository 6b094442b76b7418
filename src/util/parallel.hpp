#pragma once

/// \file parallel.hpp
/// Deterministic parallel execution for the library's embarrassingly
/// parallel hot loops (probe vectors, JL sketch solves, row-wise SpMV,
/// per-edge accumulations).
///
/// Design rules that make "parallel" compatible with the library's
/// bit-reproducibility contract:
///
///  * **Chunked static decomposition.** `parallel_for_chunks` splits an
///    index range into at most `max_threads` contiguous chunks whose
///    boundaries depend only on the range and the chunk count — never on
///    scheduling. Which worker executes a chunk is irrelevant as long as
///    every output location is owned by exactly one chunk; callers that
///    need a reduction combine per-chunk (or per-stream) partials in index
///    order afterwards.
///  * **One reusable pool.** `global_pool()` lazily spawns
///    `default_threads() - 1` workers once per process and reuses them for
///    every region; there is no per-call thread spawn cost.
///  * **Nested regions run inline.** A parallel region entered from inside
///    a pool worker executes sequentially on that worker (no deadlock, no
///    oversubscription) — e.g. a row-parallel SpMV inside a parallel probe
///    loop.
///  * **Deterministic failure.** If chunk bodies throw, the exception from
///    the lowest-indexed failing chunk is rethrown on the calling thread
///    after all chunks finish.
///
/// Hand-off: a region is published through one atomic word (epoch, an
/// "open" bit, the count of attached workers). Workers attach with a CAS
/// that only succeeds while the region is open, claim chunk indices from
/// an atomic counter, and detach; the submitter runs chunks too, closes
/// the region once every chunk is claimed, and returns when no worker is
/// attached. Idle workers poll the word and the finished submitter polls
/// the attach count for up to `kSpinUs` = 200 µs before they park on a
/// condition variable (each park counts in `pool.parks`); a publisher
/// only pays a futex wake when somebody is parked.
///
/// The spin budget comes from two measurements on a 4-vCPU x86-64 VM
/// (2-worker pool):
///  * hand-off latency — from issuing a region to the second chunk
///    starting on the other thread — is 0.7 µs to a spinning worker and
///    35 µs (p90 64 µs) to a parked one, as long as a dense-network
///    SpMV region itself (p50 42 µs);
///  * the gaps between consecutive regions of a 600-vertex,
///    30-edge-per-vertex ER sparsification at σ² = 100 are p50 13 µs and
///    p90 70 µs (94% under 100 µs; the rest are > 1 ms round
///    boundaries), while a 128×128 mesh's spectral estimate leaves
///    p50 350 µs between its SpMVs (one sparse-Cholesky solve each).
///
/// 200 µs catches every short gap with margin and still parks through the
/// mesh's solves and the round boundaries, so idle workers burn at most
/// 200 µs of CPU per region.
///
/// Worker count resolution: `default_threads()` honours the `SSP_THREADS`
/// environment variable when it holds a positive integer and falls back to
/// `std::thread::hardware_concurrency()`. Components with a `threads`
/// option (e.g. `SparsifyOptions::threads`) treat 0 as "use
/// `default_threads()`".

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace ssp {

/// Persistent worker pool executing chunked index ranges. Thread-safe for
/// one region at a time (regions are serialized by an internal mutex);
/// nested submissions from worker threads run inline.
class ThreadPool {
 public:
  /// Spawns `workers - 1` background threads (the submitting thread always
  /// participates as worker 0). `workers` must be >= 1.
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int workers() const { return workers_; }

  /// Runs `body(chunk, chunk_begin, chunk_end)` for `n_chunks` contiguous
  /// chunks covering [begin, end), blocking until all complete. Chunk
  /// boundaries are a pure function of (begin, end, n_chunks). Called from
  /// inside a pool worker, the chunks run inline on that worker.
  void run_chunks(Index begin, Index end, int n_chunks,
                  const std::function<void(int, Index, Index)>& body);

  /// True when the calling thread is one of this process's pool workers
  /// (used to force nested regions inline).
  [[nodiscard]] static bool on_worker_thread();

 private:
  /// How long a worker polls for the next region, and the submitter for
  /// the region's end, before parking on a condition variable (see the
  /// file comment for the measurement behind the value).
  static constexpr int kSpinUs = 200;

  /// `worker` indexes the busy-time metrics (`pool.worker.<i>.busy_ns`);
  /// the submitting thread reports as worker 0, spawned threads as 1..N-1.
  void worker_loop(int worker);
  void run_chunks_inline(Index begin, Index end, int n_chunks,
                         const std::function<void(int, Index, Index)>& body);
  /// Polls `ready()` for up to kSpinUs, then parks on `cv` (counted in
  /// `pool.parks`) until a `wake(cv, parked)` finds it true.
  template <typename Ready>
  void await(std::condition_variable& cv, std::atomic<int>& parked,
             Ready ready);
  /// Wakes whoever is parked on `cv`; call after publishing the state the
  /// parkers' `ready()` checks. Free when nobody is parked.
  void wake(std::condition_variable& cv, const std::atomic<int>& parked);

  struct Region;  // one parallel region's shared state

  const int workers_;
  std::vector<std::thread> threads_;
  std::mutex submit_mutex_;  ///< serializes concurrent regions
  std::uint64_t epoch_ = 0;  ///< regions issued (guarded by submit_mutex_)

  /// The hand-off word: the current region's epoch (high 32 bits), an
  /// "open to new workers" bit, and the count of attached workers.
  std::atomic<std::uint64_t> state_{0};
  /// The current region; read only by workers attached through state_.
  Region* region_ = nullptr;
  std::atomic<bool> stop_{false};

  std::mutex park_mutex_;
  std::condition_variable wake_;  ///< parked workers wait for a region
  std::condition_variable done_;  ///< the parked submitter waits for detaches
  std::atomic<int> parked_workers_{0};
  std::atomic<int> parked_submitter_{0};
};

/// max(1, std::thread::hardware_concurrency()).
[[nodiscard]] int hardware_threads();

/// Process-wide default worker count: `SSP_THREADS` when set to a positive
/// integer, else `hardware_threads()`; can be overridden programmatically.
[[nodiscard]] int default_threads();

/// Overrides `default_threads()` for this process (tools' `--threads`
/// flag, tests). `n` <= 0 restores the environment/hardware default.
void set_default_threads(int n);

/// Resolves a component-level thread request: `requested` > 0 is taken as
/// is, 0 (or negative) selects `default_threads()`.
[[nodiscard]] int resolve_threads(int requested);

/// The process-wide reusable pool, created on first use with
/// `default_threads()` workers. Later `set_default_threads` calls cap how
/// many of its workers a region uses but do not shrink the pool.
[[nodiscard]] ThreadPool& global_pool();

/// Chunked static parallel for over [begin, end): at most
/// `resolve_threads(max_threads)` chunks on the global pool. The chunk
/// decomposition — and therefore which elements share a chunk — depends
/// only on the range and the resolved chunk count.
void parallel_for_chunks(Index begin, Index end, int max_threads,
                         const std::function<void(int, Index, Index)>& body);

/// Element-wise convenience wrapper: `fn(i)` for i in [begin, end), each
/// element owned by exactly one chunk. `fn` must write only to locations
/// owned by `i` for the result to be schedule-independent.
template <typename Fn>
void parallel_for(Index begin, Index end, int max_threads, Fn&& fn) {
  parallel_for_chunks(begin, end, max_threads,
                      [&fn](int /*chunk*/, Index b, Index e) {
                        for (Index i = b; i < e; ++i) fn(i);
                      });
}

}  // namespace ssp
