#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace ssp {

namespace {

/// Set while a thread executes chunks for any ThreadPool, so nested
/// parallel regions detect they are already inside one.
thread_local bool t_on_worker = false;

std::uint64_t busy_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-worker busy-time accounting (worker 0 = the submitting thread).
/// Telemetry only — never feeds back into chunk decomposition, so the
/// schedule and results are unchanged by metrics being on.
void add_worker_busy(int worker, std::uint64_t ns) {
  char name[48];
  std::snprintf(name, sizeof(name), "pool.worker.%d.busy_ns", worker);
  obs::counter_add_named(name, ns);
}

std::atomic<int> g_default_override{0};

int env_threads() {
  const char* env = std::getenv("SSP_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0 || v > 4096) return 0;
  return static_cast<int>(v);
}

}  // namespace

/// Shared state of one in-flight region. Chunk boundaries are fixed up
/// front as a pure function of (begin, end, n_chunks); workers claim chunk
/// *indices* dynamically, which balances load without affecting which data
/// a chunk touches — results stay schedule-independent.
struct ThreadPool::Region {
  Index begin = 0;
  Index end = 0;
  int n_chunks = 0;
  const std::function<void(int, Index, Index)>* body = nullptr;
  std::atomic<int> next_chunk{0};
  std::mutex error_mutex;
  int first_error_chunk = -1;
  std::exception_ptr error;  ///< from the lowest-indexed failing chunk

  void chunk_bounds(int chunk, Index* b, Index* e) const {
    const Index n = end - begin;
    const Index base = n / n_chunks;
    const Index extra = n % n_chunks;
    const Index lo = begin + base * chunk + std::min<Index>(chunk, extra);
    *b = lo;
    *e = lo + base + (chunk < extra ? 1 : 0);
  }

  void run_claimed_chunks() {
    for (;;) {
      const int chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= n_chunks) return;
      Index b = 0;
      Index e = 0;
      chunk_bounds(chunk, &b, &e);
      try {
        (*body)(chunk, b, e);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error_chunk < 0 || chunk < first_error_chunk) {
          first_error_chunk = chunk;
          error = std::current_exception();
        }
      }
    }
  }
};

namespace {

// Layout of ThreadPool::state_: the region epoch in the high 32 bits, an
// "open to new workers" flag, and the number of attached workers below.
constexpr std::uint64_t kEpochShift = 32;
constexpr std::uint64_t kOpen = std::uint64_t{1} << 31;
constexpr std::uint64_t kAttachedMask = kOpen - 1;

std::uint64_t epoch_of(std::uint64_t state) { return state >> kEpochShift; }

/// Eases the spinning core (and its SMT sibling) between polls.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

ThreadPool::ThreadPool(int workers) : workers_(workers) {
  SSP_REQUIRE(workers >= 1, "ThreadPool: need at least one worker");
  threads_.reserve(static_cast<std::size_t>(workers - 1));
  for (int i = 1; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  wake(wake_, parked_workers_);
  for (std::thread& t : threads_) t.join();
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

template <typename Ready>
void ThreadPool::await(std::condition_variable& cv, std::atomic<int>& parked,
                       Ready ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(kSpinUs);
  for (unsigned polls = 1;; ++polls) {
    if (ready()) return;
    cpu_relax();
    if (polls % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
  }
  std::unique_lock<std::mutex> lock(park_mutex_);
  obs::counter_add("pool.parks", 1);
  // Announce the park before the final check (both seq_cst): a publisher
  // that reads parked == 0 published early enough for `ready()` to see it.
  parked.fetch_add(1, std::memory_order_seq_cst);
  cv.wait(lock, ready);
  parked.fetch_sub(1, std::memory_order_seq_cst);
}

void ThreadPool::wake(std::condition_variable& cv,
                      const std::atomic<int>& parked) {
  if (parked.load(std::memory_order_seq_cst) == 0) return;
  // Taking the lock orders this wake after any parker's final check: it
  // is either already waiting on `cv` or will see the published state.
  { const std::lock_guard<std::mutex> lock(park_mutex_); }
  cv.notify_all();
}

void ThreadPool::worker_loop(int worker) {
  t_on_worker = true;
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::uint64_t state = 0;
    await(wake_, parked_workers_, [&] {
      state = state_.load(std::memory_order_seq_cst);
      return stop_.load(std::memory_order_seq_cst) ||
             ((state & kOpen) != 0 && epoch_of(state) != seen_epoch);
    });
    if (stop_.load(std::memory_order_seq_cst)) return;
    // Attach: succeeds only while this region is still open, and the
    // submitter retires a region only once nobody is attached — so
    // `region_` stays valid until the matching detach below.
    if (!state_.compare_exchange_strong(state, state + 1,
                                        std::memory_order_acq_rel)) {
      continue;  // another worker attached first, or the region closed
    }
    seen_epoch = epoch_of(state);
    const bool timed = obs::metrics_enabled();
    const std::uint64_t t0 = timed ? busy_now_ns() : 0;
    region_->run_claimed_chunks();
    if (timed) add_worker_busy(worker, busy_now_ns() - t0);
    state_.fetch_sub(1, std::memory_order_seq_cst);  // detach
    wake(done_, parked_submitter_);
  }
}

void ThreadPool::run_chunks_inline(
    Index begin, Index end, int n_chunks,
    const std::function<void(int, Index, Index)>& body) {
  Region region;
  region.begin = begin;
  region.end = end;
  region.n_chunks = n_chunks;
  region.body = &body;
  // An inline region is still a region: mark the thread so nested
  // parallel calls (e.g. row-parallel SpMV inside a 1-chunk probe loop)
  // run inline too instead of fanning out across the pool — a
  // threads == 1 region must confine all work it spawns to this thread.
  const bool was_worker = t_on_worker;
  t_on_worker = true;
  region.run_claimed_chunks();
  t_on_worker = was_worker;
  if (region.error) std::rethrow_exception(region.error);
}

void ThreadPool::run_chunks(Index begin, Index end, int n_chunks,
                            const std::function<void(int, Index, Index)>& body) {
  if (end <= begin) return;
  SSP_REQUIRE(n_chunks >= 1, "ThreadPool: need at least one chunk");
  n_chunks = static_cast<int>(
      std::min<Index>(n_chunks, end - begin));  // no empty chunks
  // Nested or trivial region: run on the calling thread. The chunk
  // decomposition is unchanged, so results are bit-identical.
  if (n_chunks == 1 || t_on_worker || workers_ == 1) {
    obs::counter_add("pool.inline_regions", 1);
    run_chunks_inline(begin, end, n_chunks, body);
    return;
  }

  const std::lock_guard<std::mutex> serialize(submit_mutex_);
  obs::counter_add("pool.regions", 1);
  obs::counter_add("pool.chunks", static_cast<std::uint64_t>(n_chunks));
  obs::gauge_set("pool.queue_depth", n_chunks);
  const obs::Span region_span("pool.region", "chunks", n_chunks);
  Region region;
  region.begin = begin;
  region.end = end;
  region.n_chunks = n_chunks;
  region.body = &body;
  region_ = &region;
  ++epoch_;
  // Publish: spinning workers see the new epoch on their next poll,
  // parked ones are woken.
  state_.store((epoch_ << kEpochShift) | kOpen, std::memory_order_seq_cst);
  wake(wake_, parked_workers_);

  // The submitting thread participates as a worker (worker 0 in the
  // busy-time accounting).
  t_on_worker = true;
  const bool timed = obs::metrics_enabled();
  const std::uint64_t t0 = timed ? busy_now_ns() : 0;
  region.run_claimed_chunks();
  if (timed) add_worker_busy(0, busy_now_ns() - t0);
  t_on_worker = false;

  // Every chunk is claimed now: close the region to late workers, then
  // wait for the attached ones to finish theirs.
  state_.fetch_and(~kOpen, std::memory_order_seq_cst);
  await(done_, parked_submitter_, [&] {
    return (state_.load(std::memory_order_seq_cst) & kAttachedMask) == 0;
  });
  region_ = nullptr;
  obs::gauge_set("pool.queue_depth", 0);
  if (region.error) std::rethrow_exception(region.error);
}

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int default_threads() {
  const int override = g_default_override.load(std::memory_order_relaxed);
  if (override > 0) return override;
  const int env = env_threads();
  return env > 0 ? env : hardware_threads();
}

void set_default_threads(int n) {
  g_default_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

int resolve_threads(int requested) {
  return requested > 0 ? requested : default_threads();
}

ThreadPool& global_pool() {
  // Sized once at first use from default_threads(); later
  // set_default_threads() calls change how many chunks a region submits
  // but never grow the pool — tools therefore apply --threads before
  // touching any parallel path.
  static ThreadPool pool(std::max(default_threads(), 1));
  return pool;
}

void parallel_for_chunks(Index begin, Index end, int max_threads,
                         const std::function<void(int, Index, Index)>& body) {
  if (end <= begin) return;
  const int chunks = resolve_threads(max_threads);
  global_pool().run_chunks(begin, end, chunks, body);
}

}  // namespace ssp
