#include "support/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/cli.hpp"
#include "support/error.hpp"

namespace topomap::support {

namespace {

/// True while the current thread is executing a pool chunk; nested
/// parallel_for calls from worker threads run inline instead of deadlocking
/// on the pool.
thread_local bool t_in_worker = false;

/// One parallel_for invocation.  Owned by shared_ptr so a worker that wakes
/// late can still drain a job the caller has already abandoned.
struct Job {
  std::function<void(int)> run_chunk;  // chunk index -> work
  int total = 0;
  std::atomic<int> next{0};
  std::atomic<int> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex mutex;
  std::condition_variable finished;

  void work() {
    for (;;) {
      const int c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= total) return;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          run_chunk(c);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        std::lock_guard<std::mutex> lock(mutex);  // pair with caller's wait
        finished.notify_all();
      }
    }
  }
};

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  int num_threads() const { return num_threads_; }

  void set_num_threads(int n) {
    TOPOMAP_REQUIRE(n >= 1, "thread count must be >= 1");
    stop_workers();
    num_threads_ = n;
    start_workers();
  }

  void run(int num_chunks, const std::function<void(int)>& chunk_body) {
    if (num_chunks <= 0) return;
    if (num_threads_ == 1 || num_chunks == 1 || t_in_worker) {
      for (int c = 0; c < num_chunks; ++c) chunk_body(c);
      return;
    }
    auto job = std::make_shared<Job>();
    job->run_chunk = chunk_body;
    job->total = num_chunks;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      current_ = job;
      ++job_id_;
    }
    wake_.notify_all();
    t_in_worker = true;  // chunks run on this thread too; nested calls inline
    job->work();
    t_in_worker = false;
    std::unique_lock<std::mutex> lock(job->mutex);
    job->finished.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) >= job->total;
    });
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  ThreadPool() : num_threads_(configured_num_threads()) { start_workers(); }

  ~ThreadPool() { stop_workers(); }

  void start_workers() {
    shutdown_ = false;
    for (int i = 1; i < num_threads_; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  void worker_loop() {
    t_in_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return shutdown_ || job_id_ != seen; });
        if (shutdown_) return;
        seen = job_id_;
        job = current_;
      }
      if (job) job->work();
    }
  }

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::shared_ptr<Job> current_;
  std::uint64_t job_id_ = 0;
  bool shutdown_ = false;
};

}  // namespace

int parse_thread_count(const std::string& value) {
  const std::int64_t n = parse_integer(value, "TOPOMAP_THREADS");
  TOPOMAP_REQUIRE(n >= 1 && n <= kMaxThreads,
                  "TOPOMAP_THREADS must be in 1.." +
                      std::to_string(kMaxThreads) + ", got '" + value + "'");
  return static_cast<int>(n);
}

int configured_num_threads() {
  if (const char* env = std::getenv("TOPOMAP_THREADS"))
    return parse_thread_count(env);
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return n >= 1 ? n : 1;
}

InlineScope::InlineScope() : prev_(t_in_worker) { t_in_worker = true; }

InlineScope::~InlineScope() { t_in_worker = prev_; }

int num_threads() { return ThreadPool::instance().num_threads(); }

void set_num_threads(int n) { ThreadPool::instance().set_num_threads(n); }

int parallel_chunk_count(int n, int grain) {
  if (n <= 0) return 0;
  if (grain < 1) grain = 1;
  return (n + grain - 1) / grain;
}

namespace detail {

bool use_inline() {
  return t_in_worker || ThreadPool::instance().num_threads() == 1;
}

void run_pooled(int n, int grain,
                const std::function<void(int, int, int)>& body) {
  const int chunks = parallel_chunk_count(n, grain);
  ThreadPool::instance().run(chunks, [&](int c) {
    const int begin = c * grain;
    const int end = begin + grain < n ? begin + grain : n;
    body(c, begin, end);
  });
}

}  // namespace detail

}  // namespace topomap::support
